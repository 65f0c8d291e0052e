"""Tests for the comparison ratio and the pitfall-contrast report."""

import math

import pytest

from repro.campaign import record_golden, run_full_scan, run_sampling
from repro.metrics import compare, comparison_report
from repro.programs import hi


@pytest.fixture(scope="module")
def baseline_scan():
    return run_full_scan(record_golden(hi.baseline()))


@pytest.fixture(scope="module")
def dft_scan():
    return run_full_scan(record_golden(hi.dft_variant(4)))


class TestCompare:
    def test_dft_ratio_is_exactly_one(self, baseline_scan, dft_scan):
        """The dilution cheat does not move the paper's metric at all."""
        comparison = compare(baseline_scan, dft_scan)
        assert comparison.ratio == pytest.approx(1.0)
        assert not comparison.improves
        assert not comparison.worsens

    def test_ratio_direction(self, baseline_scan, dft_scan):
        comparison = compare(baseline_scan, dft_scan)
        assert "unchanged" in comparison.describe()

    def test_mixed_full_scan_and_sampling(self, baseline_scan):
        sampled = run_sampling(baseline_scan.golden, 2000, seed=0)
        comparison = compare(baseline_scan, sampled)
        assert comparison.ratio == pytest.approx(1.0, abs=0.2)

    def test_zero_baseline_failures_gives_inf_or_one(self, baseline_scan):
        # Construct a synthetic zero-failure baseline via a program whose
        # output does not depend on RAM.
        from repro.isa import assemble
        inert = assemble(
            ".text\nstart: li r1, 'z'\n out r1\n halt", ram_size=1)
        inert_scan = run_full_scan(record_golden(inert))
        comparison = compare(inert_scan, baseline_scan)
        assert math.isinf(comparison.ratio)
        same = compare(inert_scan, inert_scan)
        assert same.ratio == 1.0


class TestComparisonReport:
    def test_dft_report_exposes_the_delusion(self, baseline_scan,
                                             dft_scan):
        report = comparison_report("hi", baseline_scan, dft_scan)
        # Sound metric: no improvement (r == 1).
        assert report.ratio == pytest.approx(1.0)
        # Coverage claims a 12.5-point improvement — the delusion.
        assert report.coverage_delta_weighted == pytest.approx(12.5)
        verdicts = report.verdicts()
        assert verdicts["coverage weighted (pitfall 3)"]
        assert not verdicts["failure-count (sound)"]
        assert "coverage weighted (pitfall 3)" in \
            report.misleading_metrics()

    def test_describe_mentions_benchmark_name(self, baseline_scan,
                                              dft_scan):
        report = comparison_report("hi", baseline_scan, dft_scan)
        assert "hi" in report.describe()

    def test_report_rejects_sampling_results(self, baseline_scan):
        sampled = run_sampling(baseline_scan.golden, 10, seed=0)
        with pytest.raises(TypeError):
            comparison_report("hi", baseline_scan, sampled)

    def test_unweighted_ratio_for_identical_variants_is_one(
            self, baseline_scan):
        report = comparison_report("hi", baseline_scan, baseline_scan)
        assert report.unweighted_ratio == pytest.approx(1.0)
        assert report.coverage_delta_unweighted == pytest.approx(0.0)


class TestBiasedClassRatio:
    """Pitfall 2's number rides on the summary: the biased-class
    estimate of each side, read off the scan's one walk."""

    @pytest.fixture(scope="class", params=["memory", "register", "pc"])
    def pair(self, request):
        from repro.programs import all_programs

        programs = all_programs()
        return [run_full_scan(record_golden(programs[name]()),
                              domain=request.param)
                for name in ("guarded", "guarded-sumdmr")]

    def test_each_side_is_the_expected_biased_estimate(self, pair):
        from fractions import Fraction

        from repro.metrics import expected_biased_class_estimate

        baseline, hardened = pair
        report = comparison_report("guarded-sumdmr", baseline, hardened)
        expected = [expected_biased_class_estimate(scan) for scan in pair]
        found = [report.baseline.biased_class_estimate,
                 report.hardened.biased_class_estimate]
        assert all(type(value) is Fraction for value in found)
        assert found == expected
        assert report.biased_class_ratio == float(expected[1] / expected[0])

    def test_the_table_prints_it_and_the_csv_does_not(self, pair,
                                                      tmp_path):
        from repro.metrics import comparison_table, export_comparison_csv

        report = comparison_report("guarded-sumdmr", *pair)
        header, base, variant = comparison_table([report]).splitlines()
        assert "biased_class_ratio" in header.split()
        cell = f"{report.biased_class_ratio:.10g}"
        assert cell in variant.split()
        path = tmp_path / "comparison.csv"
        export_comparison_csv([report], path)
        assert "biased_class" not in path.read_text()
