"""Tests for confidence-interval estimators."""

import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import record_golden, run_sampling
from repro.metrics import (
    binomial_pmf,
    clopper_pearson_interval,
    extrapolated_failure_interval,
    failure_proportion_interval,
    interval_coverage,
    required_samples,
    wald_interval,
    wilson_interval,
)
from repro.programs import hi


class TestIntervalBasics:
    @pytest.mark.parametrize("method", [wald_interval, wilson_interval,
                                        clopper_pearson_interval])
    def test_interval_contains_point_estimate(self, method):
        interval = method(20, 100, 0.95)
        assert interval.contains(0.2)
        assert 0.0 <= interval.low <= interval.high <= 1.0

    @pytest.mark.parametrize("method", [wald_interval, wilson_interval,
                                        clopper_pearson_interval])
    def test_extreme_counts(self, method):
        zero = method(0, 50, 0.95)
        assert zero.low == 0.0
        full = method(50, 50, 0.95)
        assert full.high == 1.0

    def test_higher_confidence_widens(self):
        narrow = wilson_interval(10, 100, 0.80)
        wide = wilson_interval(10, 100, 0.99)
        assert wide.width > narrow.width

    def test_more_samples_narrow(self):
        small = wilson_interval(10, 100, 0.95)
        large = wilson_interval(100, 1000, 0.95)
        assert large.width < small.width

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)
        with pytest.raises(ValueError):
            wilson_interval(-1, 10)

    def test_scaled_interval(self):
        interval = wilson_interval(10, 100, 0.95)
        scaled = interval.scaled(1000)
        assert scaled.low == pytest.approx(interval.low * 1000)
        assert scaled.high == pytest.approx(interval.high * 1000)
        with pytest.raises(ValueError):
            interval.scaled(-1)

    @given(st.integers(min_value=0, max_value=200),
           st.integers(min_value=1, max_value=200))
    @settings(max_examples=100)
    def test_clopper_pearson_contains_wilson_point(self, failures, extra):
        samples = failures + extra
        cp = clopper_pearson_interval(failures, samples, 0.95)
        assert cp.contains(failures / samples)


class TestCampaignIntervals:
    @pytest.fixture(scope="class")
    def sampled(self):
        return run_sampling(record_golden(hi.baseline()), 1000, seed=0)

    def test_proportion_interval_contains_truth(self, sampled):
        # True failure proportion of Hi is 48/128 = 0.375.
        interval = failure_proportion_interval(sampled, 0.99)
        assert interval.contains(0.375)

    def test_extrapolated_interval_contains_true_f(self, sampled):
        interval = extrapolated_failure_interval(sampled, 0.99)
        assert interval.contains(48)

    def test_method_selection(self, sampled):
        for method in ("wald", "wilson", "clopper-pearson"):
            interval = failure_proportion_interval(sampled, 0.95,
                                                   method=method)
            assert 0.0 <= interval.low <= interval.high <= 1.0
        with pytest.raises(ValueError, match="unknown method"):
            failure_proportion_interval(sampled, 0.95, method="magic")


#: ``F / w`` of ``bin_sem2-sumdmr`` × memory (full scan): the hardened
#: variant, whose failure proportion is small enough to break Wald.
SUMDMR_P = 56_676 / 11_368_512


class TestExactCoverage:
    @pytest.mark.parametrize("n, p", [(1, 0.3), (40, 0.5), (10_000, 0.005),
                                      (10_000, SUMDMR_P)])
    def test_pmf_sums_to_one_without_overflow(self, n, p):
        total = math.fsum(binomial_pmf(n, k, p) for k in range(n + 1))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_pmf_small_cases_and_edges(self):
        assert binomial_pmf(4, 2, 0.5) == pytest.approx(6 / 16)
        assert binomial_pmf(3, 0, 0.0) == 1.0
        assert binomial_pmf(3, 1, 0.0) == 0.0
        assert binomial_pmf(3, 3, 1.0) == 1.0
        assert binomial_pmf(3, 4, 0.5) == binomial_pmf(3, -1, 0.5) == 0.0
        with pytest.raises(ValueError):
            binomial_pmf(3, 1, 1.5)

    @pytest.mark.parametrize("method, n, expected", [
        ("wald", 100, 0.393), ("wald", 1_000, 0.870),
        ("wilson", 100, 0.911), ("wilson", 1_000, 0.962)])
    def test_hardened_variant_table(self, method, n, expected):
        """Wald misses the hardened variant's F in 61 % of 100-sample
        campaigns — each that sees no failure reports ``[0, 0]``."""
        assert interval_coverage(method, n, SUMDMR_P) \
            == pytest.approx(expected, abs=5e-4)

    def test_clopper_pearson_is_conservative(self):
        pytest.importorskip("scipy")
        for n in (100, 1_000):
            assert interval_coverage("clopper-pearson", n, SUMDMR_P) \
                >= 0.95

    def test_unknown_method_and_empty_campaign_refused(self):
        with pytest.raises(ValueError, match="unknown method"):
            interval_coverage("agresti", 10, 0.1)
        with pytest.raises(ValueError):
            interval_coverage("wilson", 0, 0.1)

    def test_the_coverage_submodule_is_not_shadowed(self):
        """``repro.metrics.coverage`` is the fault-coverage module; the
        interval's exact coverage has its own name, so exporting it
        cannot rebind the submodule's attribute on the package."""
        import repro.metrics
        import repro.metrics.coverage as module

        assert callable(module.weighted_coverage)
        assert module.__name__ == "repro.metrics.coverage"
        assert repro.metrics.interval_coverage("wilson", 1_000, SUMDMR_P) \
            == pytest.approx(0.962, abs=5e-4)


class TestSamplePlanning:
    def test_required_samples_monotone_in_precision(self):
        loose = required_samples(0.3, half_width=0.05)
        tight = required_samples(0.3, half_width=0.01)
        assert tight > loose

    def test_known_textbook_value(self):
        """Wilson sizes at 95 %.  The Wald sizes (1, 765, 1068) are one
        sample whatever the width at p = 0, and too few near it."""
        assert required_samples(0.0, half_width=0.01) == 189
        assert required_samples(0.005, half_width=0.005) == 918
        assert required_samples(0.5, half_width=0.03) == 1064

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            required_samples(1.5, half_width=0.1)
        with pytest.raises(ValueError):
            required_samples(0.5, half_width=0)


class TestScipyFreeStartup:
    """scipy (and numpy with it) costs a second of start-up that every
    CLI command and every fabric worker spawn used to pay."""

    @pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.99,
                                            0.999999])
    @pytest.mark.parametrize("failures, samples", [(0, 50), (1, 1000),
                                                   (20, 100), (50, 50)])
    def test_intervals_equal_the_scipy_formulas(self, confidence, failures,
                                                samples):
        from scipy import stats

        z = float(stats.norm.ppf(0.5 + confidence / 2.0))
        p = failures / samples
        half = z * math.sqrt(p * (1.0 - p) / samples)
        wald = wald_interval(failures, samples, confidence)
        assert wald.low == pytest.approx(max(0.0, p - half), abs=1e-12)
        assert wald.high == pytest.approx(min(1.0, p + half), abs=1e-12)
        denom = 1.0 + z * z / samples
        center = (p + z * z / (2.0 * samples)) / denom
        half = (z / denom) * math.sqrt(
            p * (1.0 - p) / samples + z * z / (4.0 * samples * samples))
        wilson = wilson_interval(failures, samples, confidence)
        assert wilson.low == pytest.approx(max(0.0, center - half),
                                           abs=1e-12)
        assert wilson.high == pytest.approx(min(1.0, center + half),
                                            abs=1e-12)
        n = required_samples(0.3, half_width=0.01, confidence=confidence)

        def wilson_half(n):
            return (z / (1.0 + z * z / n)) * math.sqrt(
                0.3 * 0.7 / n + z * z / (4.0 * n * n))

        assert wilson_half(n) <= 0.01
        assert n == 1 or wilson_half(n - 1) > 0.01

    def test_import_and_list_load_neither_scipy_nor_numpy(self):
        probe = (
            "import sys, repro\n"
            "from repro.cli import main\n"
            "loaded = lambda: sorted({'scipy', 'numpy'} & set(sys.modules))\n"
            "assert not loaded(), ('import repro', loaded())\n"
            "for argv in (['list'], ['scan', 'hi'],\n"
            "             ['scan', 'hi', '--domain', 'register',\n"
            "              '--jobs', '2']):\n"
            "    assert main(argv) in (0, None)\n"
            "    assert not loaded(), (argv, loaded())\n")
        done = _run_fresh(probe)
        assert done.returncode == 0, done.stderr


def _run_fresh(probe: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``probe`` in a fresh interpreter that imports this checkout's
    ``repro``."""
    import repro

    src_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src_root] + ([os.environ["PYTHONPATH"]]
                      if os.environ.get("PYTHONPATH") else [])))
    return subprocess.run([sys.executable, "-c", probe, *args], env=env,
                          capture_output=True, text=True, timeout=120)


#: Stdlib layers a serial scan never runs: process start, the
#: journal's database and the normal quantile of an interval; and an
#: event loop (which loads ``ssl`` and libssl with it), which no
#: command runs — the fabric is one selector loop.  A fleet without a
#: journal runs process start alone: the fabric keeps its lease state
#: on its board, so only ``--journal`` opens a database.
HEAVY_LAYERS = ("asyncio", "ssl", "multiprocessing", "sqlite3",
                "statistics", "fractions")


class TestColdProcessImports:
    """A cold process loads a heavy stdlib layer only where it is first
    used: every ``repro`` process pays each one's import in start-up
    time and resident memory, whether or not the command runs it."""

    #: Prints the heavy layers loaded after ``import repro`` and after
    #: the CLI ran the arguments it is given, as two JSON lists.
    PROBE = (
        "import json, sys\n"
        "import repro\n"
        "from repro.cli import main\n"
        f"heavy = {HEAVY_LAYERS!r}\n"
        "loaded = lambda: [m for m in heavy if m in sys.modules]\n"
        "on_import = loaded()\n"
        "assert main(sys.argv[1:]) in (0, None)\n"
        "print(json.dumps([on_import, loaded()]))\n")

    def _loaded(self, *argv: str) -> list[list]:
        done = _run_fresh(self.PROBE, *argv)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    def test_import_and_a_serial_scan_load_none(self):
        on_import, after = self._loaded("scan", "hi")
        assert on_import == []
        assert after == []

    def test_a_journaled_scan_loads_only_sqlite3(self, tmp_path):
        on_import, after = self._loaded(
            "scan", "hi", "--journal", str(tmp_path / "j.sqlite"))
        assert on_import == []
        assert after == ["sqlite3"]

    def test_a_fleet_loads_process_start_and_no_event_loop(self):
        """``multiprocessing`` is the positive control (the probe sees a
        layer that is used); the fabric's selector loop loads neither
        ``asyncio`` nor ``ssl``, and a fleet without a journal opens no
        database, so not ``sqlite3`` either (a fabric run once kept its
        lease state in an in-memory journal, which loaded it)."""
        on_import, after = self._loaded("scan", "hi", "--jobs", "2")
        assert on_import == []
        assert after == ["multiprocessing"]
