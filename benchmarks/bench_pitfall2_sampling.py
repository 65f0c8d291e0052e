"""Pitfall 2: biased sampling vs. raw-fault-space sampling.

Quantifies, on a program with strongly size-skewed equivalence classes,
how far the biased class sampler's failure-proportion estimate drifts
from the full-scan ground truth while raw-uniform sampling converges.
"""

import pytest

from repro.campaign import record_golden, run_full_scan, run_sampling
from repro.metrics import weighted_coverage
from repro.programs import micro


@pytest.fixture(scope="module")
def golden():
    return record_golden(micro.memcopy(8))


@pytest.fixture(scope="module")
def truth(golden):
    return 1.0 - weighted_coverage(run_full_scan(golden))


def test_pitfall2_uniform_sampling_converges(golden, truth):
    result = run_sampling(golden, 1500, seed=0, sampler="uniform")
    value = result.failure_count() / result.n_samples
    assert value == pytest.approx(truth, abs=0.04)


def test_pitfall2_biased_sampling_is_off(golden, truth, output_dir):
    result = run_sampling(golden, 1500, seed=0, sampler="biased-class")
    value = result.failure_count() / result.n_samples
    bias = abs(value - truth)
    assert bias > 0.05, (value, truth)
    (output_dir / "pitfall2_sampling.txt").write_text(
        "Pitfall 2: sampling estimator bias on memcopy8\n"
        f"ground truth failure proportion: {truth:.4f}\n"
        f"biased class-sampler estimate:   {value:.4f} "
        f"(bias {bias:+.4f})\n")


def test_pitfall2_sample_sharing_efficiency(golden):
    """Def/use sharing: thousands of samples, far fewer experiments."""
    result = run_sampling(golden, 4000, seed=1)
    assert result.experiments_conducted < 400
