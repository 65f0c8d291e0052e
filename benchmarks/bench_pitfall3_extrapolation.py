"""Pitfall 3, Corollary 2: extrapolating sampled counts to the fault space.

Sweeps the sample count and shows the extrapolated absolute failure
count F converging to the full-scan ground truth, for both the raw
population w and the reduced live-only population w′ (Corollary 1
refinement); raw sample counts, by contrast, just track N_sampled.
"""

import pytest

from repro.campaign import record_golden, run_full_scan, run_sampling
from repro.metrics import (
    extrapolated_failure_count,
    extrapolated_failure_interval,
    raw_sample_failure_count,
    weighted_failure_count,
)
from repro.programs import micro


@pytest.fixture(scope="module")
def golden():
    return record_golden(micro.checksum_loop(4))


@pytest.fixture(scope="module")
def exact_f(golden):
    return weighted_failure_count(run_full_scan(golden)).total


def test_pitfall3_extrapolation_converges(golden, exact_f, output_dir):
    rows = []
    for n in (200, 800, 3200):
        result = run_sampling(golden, n, seed=3)
        estimate = extrapolated_failure_count(result).total
        interval = extrapolated_failure_interval(result, 0.95)
        raw = raw_sample_failure_count(result).total
        rows.append((n, raw, estimate, interval))
    # Raw counts scale with N; extrapolated counts approach the truth.
    assert rows[-1][1] > 8 * rows[0][1]
    assert rows[-1][2] == pytest.approx(exact_f, rel=0.1)
    assert rows[-1][3].contains(exact_f)

    lines = ["Pitfall 3, Corollary 2: extrapolation sweep "
             f"(ground truth F = {exact_f:.0f})",
             f"{'N':>6s} {'F_raw':>8s} {'F_extrapolated':>15s} "
             f"{'95% CI':>20s}"]
    for n, raw, estimate, interval in rows:
        lines.append(f"{n:6d} {raw:8.0f} {estimate:15.1f} "
                     f"[{interval.low:8.1f}, {interval.high:8.1f}]")
    (output_dir / "pitfall3_extrapolation.txt").write_text(
        "\n".join(lines) + "\n")


def test_pitfall3_live_only_population_ablation(golden, exact_f):
    """Sampling from w′ (live coordinates only) must extrapolate to the
    same F, with fewer wasted samples."""
    raw_space = run_sampling(golden, 2000, seed=5, sampler="uniform")
    live_only = run_sampling(golden, 2000, seed=5, sampler="live-only")
    f_raw = extrapolated_failure_count(raw_space).total
    f_live = extrapolated_failure_count(live_only).total
    assert f_raw == pytest.approx(exact_f, rel=0.15)
    assert f_live == pytest.approx(exact_f, rel=0.15)
    # Every live-only sample needed an experiment outcome; none were
    # spent on a-priori-known No Effect coordinates.
    assert live_only.population < raw_space.population
