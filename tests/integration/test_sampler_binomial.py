"""The real samplers follow the binomial law the exact sums assume.

:func:`~repro.metrics.interval_coverage` and every interval of
:mod:`repro.metrics.confidence` take a campaign's failure count to be
``Binomial(N, F / population)``: ``N`` independent draws, each failing
with the failing share of the space it was drawn from.  That holds for
raw-uniform draws against ``w`` and live-only draws against ``w′``; it
breaks when a sampler extrapolates against the wrong space, draws from
the pruned space (one point per experiment) or ignores the class
weights (Pitfall 2).

Each case draws ``N`` samples with the campaign's own sampler (the
sampled campaign's style, so sampler and population are paired as a
real campaign pairs them) for each of :data:`SEEDS` seeds, and resolves
every sample through the full scan's
:meth:`~repro.campaign.runner.CampaignResult.outcome_of`: nothing
executes.  The failing counts' mean and variance must match the
binomial's within :data:`TOLERANCE` standard errors.
"""

import math
import statistics

import pytest

from repro.campaign import record_golden, run_full_scan
from repro.campaign.runner import SamplingStyle
from repro.faultspace.domain import get_domain
from repro.metrics import interval_coverage
from repro.programs import micro

#: Samples per campaign.
N = 100

#: Campaigns per case, one seed each.
SEEDS = 200

#: Allowed distance of the sample mean and variance from the
#: binomial's, in standard errors of each.  The correct samplers stay
#: within 2.3.  Extrapolating a uniform draw against ``w′``, drawing
#: from the pruned space or dropping the class weight moves the mean of
#: each register case's affected sampler by 14 to 350.
TOLERANCE = 4.0

#: Wilson's exact coverage floor at 95 % nominal, wherever N·p ≥ 5.
COVERAGE_FLOOR = 0.93

#: ``(program, domain)``: ``memcopy(6)`` fails on every live memory
#: coordinate (live-only draws are Binomial(N, 1)); its register space
#: and ``counter``'s have classes whose weight and failing share differ,
#: so only a weighted draw gets their proportion right.
CASES = [("memcopy6", "memory"), ("memcopy6", "register"),
         ("counter5", "register")]

PROGRAMS = {"memcopy6": lambda: micro.memcopy(6),
            "counter5": lambda: micro.counter(5)}


@pytest.fixture(scope="module")
def scans():
    """Each case's full scan: the truth every sample resolves against."""
    goldens = {name: record_golden(build()) for name, build
               in PROGRAMS.items()}
    return {(name, domain): run_full_scan(goldens[name], domain=domain)
            for name, domain in CASES}


def _failing_counts(scan, sampler: str) -> tuple[list[int], int]:
    """The failing count of each seed's ``N``-sample campaign and the
    population its estimate extrapolates against."""
    domain = get_domain(scan.domain)
    counts, populations = [], set()
    for seed in range(SEEDS):
        style = SamplingStyle(scan.golden, domain, N, seed, sampler,
                              scan.partition)
        populations.add(style.population)
        counts.append(sum(scan.outcome_of(sample.coordinate).is_failure
                          for sample in style.drawn))
    (population,) = populations
    return counts, population


@pytest.mark.parametrize("sampler", ["uniform", "live-only"])
@pytest.mark.parametrize("case", CASES, ids=["-".join(c) for c in CASES])
def test_failing_count_is_binomial(scans, case, sampler):
    scan = scans[case]
    counts, population = _failing_counts(scan, sampler)
    p = scan.weighted_failure_count() / population
    mean, variance = N * p, N * p * (1.0 - p)
    # Standard errors over SEEDS campaigns: of the mean, σ/√S; of the
    # sample variance, √((μ4 − σ⁴)/S) with the binomial's fourth
    # central moment μ4 = σ²(1 + 3(N − 2)pq).
    mean_se = math.sqrt(variance / SEEDS)
    fourth = variance * (1.0 + 3.0 * (N - 2) * p * (1.0 - p))
    variance_se = math.sqrt(max(fourth - variance * variance, 0.0) / SEEDS)
    assert abs(statistics.fmean(counts) - mean) <= TOLERANCE * mean_se, \
        (case, sampler, statistics.fmean(counts), mean)
    assert abs(statistics.variance(counts) - variance) \
        <= TOLERANCE * variance_se, \
        (case, sampler, statistics.variance(counts), variance)
    if N * p >= 5:
        assert interval_coverage("wilson", N, p) >= COVERAGE_FLOOR, \
            (case, sampler, p)
