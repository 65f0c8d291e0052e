"""Reduced-scale checks of the paper's Figure 2 shapes.

The benchmark harness validates the paper-scale configurations; these
tests run the same four-way comparison at reduced benchmark sizes so
the shapes are exercised on every test run within seconds.
"""

import math
import statistics

import pytest

from repro.campaign import record_golden, run_full_scan
from repro.faultspace.sampling import BiasedClassSampler
from repro.metrics import (
    comparison_report,
    expected_biased_class_estimate,
    unweighted_coverage,
    weighted_coverage,
    weighted_failure_count,
)
from repro.programs import bin_sem2


@pytest.fixture(scope="module")
def scans():
    return {
        "base": run_full_scan(record_golden(bin_sem2.baseline(rounds=2))),
        "hard": run_full_scan(record_golden(bin_sem2.hardened(rounds=2))),
    }


class TestBinSem2Shapes:
    def test_unweighted_coverage_underestimates(self, scans):
        for scan in scans.values():
            assert unweighted_coverage(scan) < weighted_coverage(scan)

    def test_weighted_coverage_improves(self, scans):
        assert weighted_coverage(scans["hard"]) \
            > weighted_coverage(scans["base"])

    def test_sound_metric_shows_improvement(self, scans):
        report = comparison_report("bin_sem2", scans["base"],
                                   scans["hard"])
        assert report.ratio < 1.0

    def test_unweighted_counts_flip_the_verdict(self, scans):
        report = comparison_report("bin_sem2", scans["base"],
                                   scans["hard"])
        assert report.unweighted_ratio > 1.0
        assert "failure-count unweighted (pitfall 1)" in \
            report.misleading_metrics()

    def test_hardened_detects_and_corrects(self, scans):
        """The SUM+DMR variant turns a substantial share of would-be
        failures into benign detected-and-corrected outcomes."""
        from repro.campaign import Outcome
        counts = scans["hard"].weighted_counts()
        assert counts[Outcome.DETECTED_CORRECTED] > 0
        baseline_counts = scans["base"].weighted_counts()
        assert baseline_counts[Outcome.DETECTED_CORRECTED] == 0

    def test_fail_stop_mode_appears_only_in_hardened(self, scans):
        from repro.campaign import Outcome
        hard_counts = scans["hard"].weighted_counts()
        base_counts = scans["base"].weighted_counts()
        assert base_counts[Outcome.DETECTED_FAIL_STOP] == 0
        assert hard_counts[Outcome.DETECTED_FAIL_STOP] >= 0


class TestBiasedSamplerClosedForm:
    """Pitfall 2's negative control has an exact expectation."""

    CAMPAIGNS, DRAWS = 200, 100

    def _campaign_estimates(self, scan) -> list[float]:
        """The estimates of seeded ``BiasedClassSampler`` campaigns, each
        extrapolated against ``w``; their outcomes are looked up in the
        stored scan, so no experiment is executed."""
        estimates = []
        for seed in range(self.CAMPAIGNS):
            samples = BiasedClassSampler(
                scan.partition, seed=seed,
                domain=scan.domain).draw_classified(self.DRAWS)
            failures = sum(scan.outcome_of(sample.coordinate).is_failure
                           for sample in samples)
            estimates.append(scan.fault_space_size * failures / self.DRAWS)
        return estimates

    def test_the_closed_form_is_the_mean_of_seeded_campaigns(self, scans):
        for scan in scans.values():
            expected = expected_biased_class_estimate(scan)
            estimates = self._campaign_estimates(scan)
            error = statistics.stdev(estimates) / math.sqrt(len(estimates))
            assert abs(statistics.fmean(estimates) - expected) \
                <= 4 * error

    def test_the_biased_expectation_reverses_the_verdict(self, scans):
        """SUM+DMR lowers F, yet the biased sampler expects it to raise
        the failure count: the sampler's bias, not sampling noise."""
        base, hard = scans["base"], scans["hard"]
        assert weighted_failure_count(hard).total \
            < weighted_failure_count(base).total
        assert expected_biased_class_estimate(hard) \
            > expected_biased_class_estimate(base) \
            > weighted_failure_count(base).total
