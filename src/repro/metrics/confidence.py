"""Confidence intervals for sampled campaigns.

The paper defers sampling statistics to the literature but requires "a
sufficiently large number of samples ... for statistically authoritative
results" (Section III-B).  This module provides the standard estimators
used with FI sampling: Wald, Wilson and Clopper–Pearson intervals for
the failure proportion, plus their extrapolation to absolute failure
counts, a sample-size planner, and each interval's exact coverage at a
known proportion (:func:`interval_coverage`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

from ..campaign.runner import SamplingResult


@dataclass(frozen=True)
class Interval:
    """A two-sided confidence interval ``[low, high]`` at ``confidence``."""

    low: float
    high: float
    confidence: float

    def __post_init__(self) -> None:
        if not 0 < self.confidence < 1:
            raise ValueError("confidence must be in (0, 1)")
        if self.low > self.high:
            raise ValueError("interval bounds out of order")

    @property
    def width(self) -> float:
        return self.high - self.low

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    def scaled(self, factor: float) -> "Interval":
        """Scale both bounds (e.g. proportion → absolute count)."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return Interval(low=self.low * factor, high=self.high * factor,
                        confidence=self.confidence)


def _normal_quantile(confidence: float) -> float:
    """z for a two-sided interval (stdlib: every ``import repro`` loads
    this module, and scipy costs a second of start-up)."""
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def _check(failures: int, samples: int) -> None:
    if samples <= 0:
        raise ValueError("samples must be positive")
    if not 0 <= failures <= samples:
        raise ValueError("failures must be within [0, samples]")


def wald_interval(failures: int, samples: int,
                  confidence: float = 0.95) -> Interval:
    """The textbook normal-approximation interval.

    Known to behave badly for proportions near 0 or 1 — exactly the
    regime of FI failure probabilities — so prefer Wilson or
    Clopper–Pearson; kept for comparison.
    """
    _check(failures, samples)
    p = failures / samples
    z = _normal_quantile(confidence)
    half = z * math.sqrt(p * (1.0 - p) / samples)
    return Interval(low=max(0.0, p - half), high=min(1.0, p + half),
                    confidence=confidence)


def wilson_interval(failures: int, samples: int,
                    confidence: float = 0.95) -> Interval:
    """Wilson score interval — good coverage even for rare failures."""
    _check(failures, samples)
    p = failures / samples
    z = _normal_quantile(confidence)
    z2 = z * z
    denom = 1.0 + z2 / samples
    center = (p + z2 / (2.0 * samples)) / denom
    half = (z / denom) * math.sqrt(
        p * (1.0 - p) / samples + z2 / (4.0 * samples * samples))
    return Interval(low=max(0.0, center - half),
                    high=min(1.0, center + half), confidence=confidence)


def clopper_pearson_interval(failures: int, samples: int,
                             confidence: float = 0.95) -> Interval:
    """Exact (conservative) binomial interval via beta quantiles."""
    from scipy import stats  # the only user; kept off the import path

    _check(failures, samples)
    alpha = 1.0 - confidence
    low = (0.0 if failures == 0
           else stats.beta.ppf(alpha / 2.0, failures,
                               samples - failures + 1))
    high = (1.0 if failures == samples
            else stats.beta.ppf(1.0 - alpha / 2.0, failures + 1,
                                samples - failures))
    return Interval(low=float(low), high=float(high), confidence=confidence)


#: Interval methods by name.
_METHODS = {
    "wald": wald_interval,
    "wilson": wilson_interval,
    "clopper-pearson": clopper_pearson_interval,
}


def _method(method: str):
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; pick from "
                         f"{sorted(_METHODS)}")
    return _METHODS[method]


def failure_proportion_interval(result: SamplingResult,
                                confidence: float = 0.95,
                                method: str = "wilson") -> Interval:
    """Interval for P(Failure | 1 fault in the sampled population)."""
    return _method(method)(result.failure_count(), result.n_samples,
                           confidence)


def binomial_pmf(n: int, k: int, p: float) -> float:
    """``P(X = k)`` for ``X ~ Binomial(n, p)``, in log space
    (``math.lgamma``), so that ``n`` in the tens of thousands neither
    overflows the binomial coefficient nor underflows ``p**k`` early."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if not 0 <= k <= n:
        return 0.0
    if p in (0.0, 1.0):
        return float(k == n * p)
    return math.exp(math.lgamma(n + 1) - math.lgamma(k + 1)
                    - math.lgamma(n - k + 1)
                    + k * math.log(p) + (n - k) * math.log1p(-p))


def interval_coverage(method: str, n: int, p: float,
                      confidence: float = 0.95) -> float:
    """Exact coverage of ``method``'s interval: the probability that an
    ``n``-sample campaign's interval contains the true proportion ``p``.

    A sampler that draws with replacement from a population whose
    failing fraction is ``p`` sees ``Binomial(n, p)`` failures, so the
    coverage is the finite sum of :func:`binomial_pmf` over the failure
    counts whose interval holds ``p`` — no simulation, no seeds.
    """
    interval = _method(method)
    if n <= 0:
        raise ValueError("n must be positive")
    return sum(binomial_pmf(n, k, p) for k in range(n + 1)
               if interval(k, n, confidence).contains(p))


def extrapolated_failure_interval(result: SamplingResult,
                                  confidence: float = 0.95,
                                  method: str = "wilson") -> Interval:
    """Interval for the extrapolated absolute failure count F.

    Scales the proportion interval by the sampled population size —
    the uncertainty companion to Pitfall 3, Corollary 2.
    """
    return failure_proportion_interval(result, confidence, method) \
        .scaled(result.population)


def required_samples(expected_proportion: float, *, half_width: float,
                     confidence: float = 0.95) -> int:
    """Samples needed for a Wald half-width at an expected proportion.

    A planning helper: how many samples until the failure-proportion
    estimate is within ``±half_width`` at the given confidence.
    """
    if not 0.0 <= expected_proportion <= 1.0:
        raise ValueError("expected_proportion must be in [0, 1]")
    if half_width <= 0:
        raise ValueError("half_width must be positive")
    z = _normal_quantile(confidence)
    p = expected_proportion
    n = (z * z * p * (1.0 - p)) / (half_width * half_width)
    return max(1, math.ceil(n))
