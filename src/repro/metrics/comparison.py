"""Benchmark comparison — the paper's objective metric (Section V).

The comparison ratio between a hardened and a baseline variant is::

    r = P(Failure)_hardened / P(Failure)_baseline
      = F_hardened / F_baseline                      (full scans)
      = (w_h · F_h,sampled / N_h,sampled) /
        (w_b · F_b,sampled / N_b,sampled)            (sampling)

The hardened variant improves over the baseline iff ``r < 1``.

:func:`compare` computes the pitfall-free ratio from any mix of
full-scan and sampling results.  :class:`ComparisonReport` additionally
carries the misleading numbers (coverage deltas, unweighted counts) so
reproduction figures and cautionary reports can show them side by side.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from ..campaign.database import CampaignSummary
from ..campaign.runner import CampaignResult
from .coverage import (
    unweighted_coverage,
    weighted_coverage,
)
from .failure_counts import (
    FailureCount,
    failure_count,
    unweighted_failure_count,
)


@dataclass(frozen=True)
class Comparison:
    """The pitfall-free comparison of one hardened/baseline pair."""

    baseline: FailureCount
    hardened: FailureCount

    @property
    def ratio(self) -> float:
        """r = F_hardened / F_baseline; improvement iff r < 1."""
        if self.baseline.total == 0:
            return math.inf if self.hardened.total > 0 else 1.0
        return self.hardened.total / self.baseline.total

    @property
    def improves(self) -> bool:
        return self.ratio < 1.0

    @property
    def worsens(self) -> bool:
        return self.ratio > 1.0

    def describe(self) -> str:
        verdict = ("improves" if self.improves
                   else "worsens" if self.worsens else "is unchanged")
        return (f"hardened variant {verdict}: r = {self.ratio:.3g} "
                f"(F_baseline = {self.baseline.total:.4g}, "
                f"F_hardened = {self.hardened.total:.4g})")


def compare(baseline, hardened) -> Comparison:
    """Pitfall-free comparison from full-scan or sampling results.

    Accepts any mix of :class:`CampaignResult`, :class:`CampaignSummary`
    and :class:`SamplingResult`; sampled counts are extrapolated to
    their population automatically.
    """
    return Comparison(baseline=failure_count(baseline),
                      hardened=failure_count(hardened))


@dataclass(frozen=True)
class ComparisonReport:
    """Side-by-side view of sound and unsound comparison verdicts.

    Built from full-scan results only (the misleading metrics need the
    complete data).  Used to reproduce the Figure 2 narrative: which
    metric would have led to which design decision.
    """

    name: str
    baseline: CampaignSummary
    hardened: CampaignSummary

    # -- the sound metric ----------------------------------------------------

    @property
    def comparison(self) -> Comparison:
        return compare(self.baseline, self.hardened)

    @property
    def ratio(self) -> float:
        return self.comparison.ratio

    # -- the misleading metrics, for contrast --------------------------------

    @property
    def coverage_delta_weighted(self) -> float:
        """Weighted coverage gain (percentage points) — Pitfall 3 metric."""
        return 100.0 * (weighted_coverage(self.hardened)
                        - weighted_coverage(self.baseline))

    @property
    def coverage_delta_unweighted(self) -> float:
        """Unweighted coverage gain — Pitfalls 1 *and* 3 combined."""
        return 100.0 * (unweighted_coverage(self.hardened)
                        - unweighted_coverage(self.baseline))

    @property
    def unweighted_ratio(self) -> float:
        """Failure-count ratio without weighting — Pitfall 1 numbers."""
        base = unweighted_failure_count(self.baseline).total
        hard = unweighted_failure_count(self.hardened).total
        if base == 0:
            return math.inf if hard > 0 else 1.0
        return hard / base

    @property
    def biased_class_ratio(self) -> float:
        """Ratio of what a ``BiasedClassSampler`` campaign estimates on
        average — Pitfall 2 numbers (``CampaignSummary.
        biased_class_terms``; the int division rounds once)."""
        base, base_denominator = self.baseline.biased_class_terms
        hard, hard_denominator = self.hardened.biased_class_terms
        if base == 0:
            return math.inf if hard > 0 else 1.0
        return hard * base_denominator / (hard_denominator * base)

    def verdicts(self) -> dict[str, bool]:
        """Would each metric call the hardened variant an improvement?"""
        return {
            "failure-count (sound)": self.ratio < 1.0,
            "failure-count unweighted (pitfall 1)": self.unweighted_ratio < 1.0,
            "coverage weighted (pitfall 3)": self.coverage_delta_weighted > 0,
            "coverage unweighted (pitfalls 1+3)":
                self.coverage_delta_unweighted > 0,
        }

    def misleading_metrics(self) -> list[str]:
        """Metric names whose verdict contradicts the sound one."""
        verdicts = self.verdicts()
        sound = verdicts.pop("failure-count (sound)")
        return [name for name, verdict in verdicts.items()
                if verdict != sound]

    def describe(self) -> str:
        lines = [f"benchmark {self.name}: {self.comparison.describe()}"]
        for metric, verdict in self.verdicts().items():
            word = "improvement" if verdict else "degradation"
            lines.append(f"  {metric}: {word}")
        wrong = self.misleading_metrics()
        if wrong:
            lines.append(f"  -> misleading metrics here: {', '.join(wrong)}")
        return "\n".join(lines)


def comparison_report(name: str, baseline, hardened) -> ComparisonReport:
    """Build a :class:`ComparisonReport` from full-scan results."""
    def as_summary(result):
        if isinstance(result, CampaignSummary):
            return result
        if isinstance(result, CampaignResult):
            return CampaignSummary.from_result(result)
        raise TypeError(
            "ComparisonReport needs full-scan results (sampling results "
            "cannot produce the unweighted pitfall numbers)")
    return ComparisonReport(name=name, baseline=as_summary(baseline),
                            hardened=as_summary(hardened))


def _table_rows(reports: list[ComparisonReport]) -> list[list[str]]:
    """The comparison table as strings — shared by text and CSV form.

    One row per variant, baseline first; every number is formatted here
    so the printed table and the exported CSV can never disagree.
    """
    if not reports:
        raise ValueError("no comparison reports")
    base = reports[0].baseline
    for report in reports:
        if report.baseline != base:
            raise ValueError(
                f"comparison reports mix baselines: "
                f"{report.baseline.program_name!r} vs "
                f"{base.program_name!r}")
    rows = [[base.program_name, base.domain,
             f"{failure_count(base).total:.10g}", "1", "1", "0", "0",
             "baseline"]]
    for report in reports:
        comp = report.comparison
        verdict = ("improves" if comp.improves
                   else "worsens" if comp.worsens else "unchanged")
        rows.append([
            report.hardened.program_name, report.hardened.domain,
            f"{comp.hardened.total:.10g}",
            f"{comp.ratio:.10g}",
            f"{report.unweighted_ratio:.10g}",
            f"{report.coverage_delta_weighted:.10g}",
            f"{report.coverage_delta_unweighted:.10g}",
            verdict,
        ])
    return rows


#: Column names of :func:`_table_rows` / :func:`export_comparison_csv`.
COMPARISON_COLUMNS = (
    "variant", "domain", "failures", "ratio", "unweighted_ratio",
    "coverage_delta_weighted_pp", "coverage_delta_unweighted_pp",
    "verdict")


def comparison_table(reports: list[ComparisonReport]) -> str:
    """Render baseline + N hardened variants as one text table.

    All reports must share a baseline.  Columns are the sound metric
    (F and the ratio r) next to the pitfall metrics — the CSV's, plus
    the biased-class ratio (Pitfall 2), which the CSV leaves out — so a
    glance shows where the unsound numbers would have flipped the
    verdict; variants with misleading metrics are flagged on their row.
    """
    at = COMPARISON_COLUMNS.index("unweighted_ratio") + 1
    biased = ["1"] + [f"{r.biased_class_ratio:.10g}" for r in reports]
    rows = [row[:at] + [cell] + row[at:]
            for row, cell in zip(_table_rows(reports), biased)]
    misleading = [""] + [", ".join(r.misleading_metrics())
                         for r in reports]
    header = [*COMPARISON_COLUMNS[:at], "biased_class_ratio",
              *COMPARISON_COLUMNS[at:]]
    widths = [max(len(header[i]), *(len(row[i]) for row in rows))
              for i in range(len(header))]
    def fmt(cells):
        return "  ".join(cell.ljust(width)
                         for cell, width in zip(cells, widths)).rstrip()
    lines = [fmt(header)]
    for row, wrong in zip(rows, misleading):
        line = fmt(row)
        if wrong:
            line += f"  [misleading here: {wrong}]"
        lines.append(line)
    return "\n".join(lines)


def export_comparison_csv(reports: list[ComparisonReport],
                          path: str | Path) -> None:
    """Write the comparison table to CSV, one row per variant.

    The cells come from the same formatter as :func:`comparison_table`,
    so a warm (section-composed) sweep that reproduces a cold sweep's
    counts produces a byte-identical file — the property the
    incremental-sweep benchmark asserts.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(COMPARISON_COLUMNS)
        writer.writerows(_table_rows(reports))
