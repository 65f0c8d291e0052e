"""Tests for confidence-interval estimators."""

import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import record_golden, run_sampling
from repro.metrics import (
    clopper_pearson_interval,
    extrapolated_failure_interval,
    failure_proportion_interval,
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


class TestSamplePlanning:
    def test_required_samples_monotone_in_precision(self):
        loose = required_samples(0.3, half_width=0.05)
        tight = required_samples(0.3, half_width=0.01)
        assert tight > loose

    def test_known_textbook_value(self):
        # p=0.5, ±0.03 at 95% needs ~1068 samples.
        assert required_samples(0.5, half_width=0.03) == \
            pytest.approx(1068, abs=3)

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
        n = z * z * 0.3 * 0.7 / (0.01 * 0.01)
        assert required_samples(0.3, half_width=0.01,
                                confidence=confidence) \
            == max(1, math.ceil(n))

    def test_import_and_list_load_neither_scipy_nor_numpy(self):
        import repro

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
        src_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src_root] + ([os.environ["PYTHONPATH"]]
                          if os.environ.get("PYTHONPATH") else [])))
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
