"""Extrapolated absolute failure counts — the paper's proposed metric.

Section V derives that the ground-truth failure probability of a
benchmark run is directly proportional to the absolute number of failed
experiments in a *complete fault-space scan*::

    P(Failure) ≈ F · g · e^{-gw}  ∝  F          (Equations 5–6)

so ``F`` (weighted, i.e. expanded to the raw fault space) is the valid
comparison metric.  For sampled campaigns, raw counts must first be
extrapolated to the population size (Pitfall 3, Corollary 2)::

    F_extrapolated = population · F_sampled / N_sampled

"No Effect" results are irrelevant and excluded (Corollary 1).

Every function here is generic over fault domains: memory and register
campaign results (full scans and sampled) flow through the same code,
with the population taken from the result's own domain.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..campaign.database import CampaignSummary
from ..campaign.outcomes import Outcome
from ..campaign.runner import CampaignResult, SamplingResult


@dataclass(frozen=True)
class FailureCount:
    """An absolute failure count, with its per-failure-mode breakdown.

    ``total`` is in fault-space coordinates (cycle·bits): for a full
    scan it is exact; for a sampled campaign it is the extrapolated
    estimate and may be fractional.
    """

    total: float
    by_mode: dict[Outcome, float]
    population: int
    exact: bool

    def mode(self, outcome: Outcome) -> float:
        if outcome.is_benign:
            raise ValueError(
                f"{outcome} is benign; benign counts are excluded from "
                "the comparison metric (Pitfall 3, Corollary 1)")
        return self.by_mode.get(outcome, 0.0)


def weighted_failure_count(result) -> FailureCount:
    """Exact absolute failure count F from a full fault-space scan.

    Uses weighted counts (Pitfall 1 avoided); benign outcomes excluded
    (Pitfall 3, Corollary 1).
    """
    summary = (result if isinstance(result, CampaignSummary)
               else CampaignSummary.from_result(result))
    by_mode = {outcome: float(count)
               for outcome, count in summary.weighted().items()
               if outcome.is_failure}
    return FailureCount(total=sum(by_mode.values()), by_mode=by_mode,
                        population=summary.fault_space_size, exact=True)


def unweighted_failure_count(result) -> FailureCount:
    """The Pitfall 1 anti-pattern: raw per-experiment failure counts.

    Exposed only to reproduce Figure 2(d) and to quantify how wrong the
    unweighted numbers are; never use this for comparison.
    """
    summary = (result if isinstance(result, CampaignSummary)
               else CampaignSummary.from_result(result))
    by_mode = {outcome: float(count)
               for outcome, count in summary.raw().items()
               if outcome.is_failure}
    return FailureCount(total=sum(by_mode.values()), by_mode=by_mode,
                        population=summary.experiments, exact=False)


def extrapolated_failure_count(result: SamplingResult) -> FailureCount:
    """F extrapolated from a sampled campaign (Pitfall 3, Corollary 2).

    ``F_extrapolated = population · F_sampled / N_sampled`` where the
    population is ``w`` for raw-uniform sampling or ``w′`` for live-only
    sampling; each failure mode is extrapolated separately
    (Section VI-B).
    """
    n = result.n_samples
    if n == 0:
        raise ValueError("cannot extrapolate from zero samples")
    scale = result.population / n
    by_mode: dict[Outcome, float] = {}
    for _, outcome in result.samples:
        if outcome.is_failure:
            by_mode[outcome] = by_mode.get(outcome, 0.0) + scale
    return FailureCount(total=sum(by_mode.values()), by_mode=by_mode,
                        population=result.population, exact=False)


def raw_sample_failure_count(result: SamplingResult) -> FailureCount:
    """The Pitfall 3 Corollary 2 anti-pattern: un-extrapolated counts.

    Raw sampled failure counts depend on the arbitrary choice of
    N_sampled and are meaningless across campaigns; exposed only for
    demonstrations.
    """
    by_mode: dict[Outcome, float] = {}
    for _, outcome in result.samples:
        if outcome.is_failure:
            by_mode[outcome] = by_mode.get(outcome, 0.0) + 1.0
    return FailureCount(total=sum(by_mode.values()), by_mode=by_mode,
                        population=result.population, exact=False)


def expected_biased_class_estimate(result: CampaignResult):
    """What a ``BiasedClassSampler`` campaign estimates, on average:
    the Pitfall 2 anti-pattern's expectation, exactly, from a full scan.

    The biased sampler draws a live class uniformly, whatever its size,
    then one of the class's experiments uniformly, and its estimate is
    extrapolated against ``w`` (:func:`extrapolated_failure_count`).
    So at any sample count its expectation is::

        E[F̂] = w · (1/L) · Σ_c f_c / n_c

    over the ``L`` live classes, ``f_c`` of whose ``n_c`` experiments
    fail — in every fault domain.  It reads the scan's outcomes only, no
    executor; compare it with :func:`weighted_failure_count`, the
    ``F`` the campaign set out to estimate.  The answer is an exact
    :class:`fractions.Fraction`.
    """
    from fractions import Fraction  # loaded where used, like statistics

    domain = result.domain
    live = result.partition.live_classes()
    if not live:
        raise ValueError("no live classes to sample from")
    total = Fraction(0)
    for interval in live:
        outcomes = result.class_outcomes[domain.class_key(interval)]
        failing = sum(outcome.is_failure for outcome in outcomes)
        total += Fraction(failing, domain.experiment_count(interval))
    return result.fault_space_size * total / len(live)


def failure_count(result) -> FailureCount:
    """Dispatch to the correct (pitfall-free) counter for a result type."""
    if isinstance(result, SamplingResult):
        return extrapolated_failure_count(result)
    if isinstance(result, (CampaignResult, CampaignSummary)):
        return weighted_failure_count(result)
    raise TypeError(f"unsupported result type {type(result).__name__}")
