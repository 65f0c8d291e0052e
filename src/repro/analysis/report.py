"""Plain-text report rendering for campaign results and paper figures."""

from __future__ import annotations

from collections import Counter

from ..campaign.database import CampaignSummary
from ..campaign.pipeline import ExecutionReport
from ..campaign.runner import CampaignResult
from .figures import Fig2Series, fig2_verdicts, fig3_data, table1_data


def format_table(headers: list[str], rows: list[list], *,
                 title: str = "") -> str:
    """Render an aligned plain-text table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(len(headers[i]), *(len(r[i]) for r in cells))
              if cells else len(headers[i]) for i in range(len(headers))]
    sep = "  "
    out = []
    if title:
        out.append(title)
    out.append(sep.join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append(sep.join("-" * w for w in widths))
    for row in cells:
        out.append(sep.join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def table1_report() -> str:
    """Table I rendered as text."""
    rows = [[row["k"], f"{row['probability']:.6g}"]
            for row in table1_data()]
    return format_table(["k", "P(k faults)"], rows,
                        title="Table I: Poisson fault-count probabilities "
                              "(g from published FIT rates, Δt=1s, "
                              "Δm=2^20 bit)")


def fig2_report(series: list[Fig2Series]) -> str:
    """Figure 2 panels (a)(b)(d)(e)(g) as one table."""
    rows = [[
        s.variant,
        f"{100 * s.coverage_unweighted:.2f}%",
        f"{100 * s.coverage_weighted:.2f}%",
        f"{s.failures_unweighted:.0f}",
        f"{s.failures_weighted:.0f}",
        s.runtime_cycles,
        s.memory_bytes,
    ] for s in series]
    return format_table(
        ["variant", "cov (a, unweighted)", "cov (b, weighted)",
         "F (d, unweighted)", "F (e, weighted)", "Δt cycles", "Δm bytes"],
        rows, title="Figure 2: coverage and failure counts, with and "
                    "without Pitfall 1/3 avoidance")


def fig3_report(summaries: dict[str, CampaignSummary]) -> str:
    rows = [[
        r["variant"], r["cycles"], r["memory_bits"],
        r["fault_space_size"], f"{100 * r['coverage']:.1f}%",
        f"{r['failures']:.0f}",
    ] for r in fig3_data(summaries)]
    return format_table(
        ["variant", "Δt", "Δm bits", "w", "coverage", "F"],
        rows, title="Figure 3 / Section IV: the fault-space dilution "
                    "delusion")


def verdict_report(baseline: CampaignSummary, hardened: CampaignSummary,
                   name: str) -> str:
    data = fig2_verdicts(baseline, hardened, name)
    lines = [
        f"benchmark {name}:",
        f"  sound comparison ratio r = {data['ratio']:.3f} "
        f"({'improves' if data['ratio'] < 1 else 'worsens' if data['ratio'] > 1 else 'unchanged'})",
        f"  unweighted failure ratio (pitfall 1): "
        f"{data['unweighted_ratio']:.3f}",
        f"  weighted coverage delta (pitfall 3): "
        f"{data['coverage_delta_weighted_pp']:+.2f} pp",
        f"  unweighted coverage delta (pitfalls 1+3): "
        f"{data['coverage_delta_unweighted_pp']:+.2f} pp",
    ]
    if data["misleading_metrics"]:
        lines.append("  misleading here: "
                     + ", ".join(data["misleading_metrics"]))
    return "\n".join(lines)


def outcome_histogram(result: CampaignResult) -> str:
    """Weighted outcome distribution of one campaign as a text table."""
    counts = result.weighted_counts()
    total = sum(counts.values())
    rows = [[outcome.value, count, f"{100 * count / total:.3f}%"]
            for outcome, count in counts.most_common()]
    return format_table(["outcome", "weight", "share"], rows,
                        title=f"{result.golden.program.name}: weighted "
                              f"outcome distribution "
                              f"({result.domain.name} faults)")


def completeness_report(report: ExecutionReport) -> str:
    """Render an :class:`~repro.campaign.pipeline.ExecutionReport` as text.

    Summarizes how the campaign actually ran: fresh vs. journal-resumed
    work units, worker retries and — for a
    degraded campaign — how much of the planned fault space the partial
    result covers.
    """
    lines = [f"execution: {report.total_units} work units — "
             f"{report.executed} executed, {report.resumed} resumed "
             f"from journal"]
    if report.shard_retries:
        lines.append(f"  worker retries: {report.shard_retries}")
    if report.convergence_hits:
        lines.append(
            f"  early exits (ladder + state memo): "
            f"{report.convergence_hits} experiment(s) classified at a "
            f"known state")
    if report.slice_hits:
        lines.append(
            f"  criticality pre-skips: {report.slice_hits} "
            f"experiment(s) classified without execution")
    if report.composed_hits:
        lines.append(
            f"  composed from section store: {report.composed_hits} "
            f"experiment(s) reused from cached sections")
    if report.failed_shards:
        lines.append(f"  shards abandoned after retry budget: "
                     f"{report.failed_shards}")
    if report.integrity_rejected:
        lines.append(
            f"  integrity rejections: {report.integrity_rejected} "
            f"class result(s) refused (shape)")
    if report.discarded_results:
        lines.append(
            f"  discarded: {report.discarded_results} journaled "
            f"class(es) (failed validation; re-executed)")
    if report.workers:
        attribution = ", ".join(f"{name}: {units}"
                                for name, units in report.workers)
        lines.append(f"  distributed across {len(report.workers)} "
                     f"worker(s) — {attribution}")
    if report.complete:
        lines.append("  complete: all planned units accounted for")
    else:
        lines.append(
            f"  INCOMPLETE: {len(report.missing)} unit(s) missing, "
            f"completeness {100 * report.completeness:.1f}% — rerun "
            f"with the same journal to finish")
    return "\n".join(lines)


def failure_attribution(result: CampaignResult, *,
                        top: int | None = 10) -> list[tuple[str, int]]:
    """Attribute weighted failure counts to fault locations by label.

    Returns ``(label, weight)`` pairs, heaviest first, the ``top`` of
    them (``None``: every failing label) — the analysis
    behind the "which data actually fails" discussions.  The labels are
    the domain's (:meth:`~repro.faultspace.domain.FaultDomain.
    location_label`): a RAM-cell domain (memory, bursts, stuck-at)
    attributes to the program's data labels, the register domain to
    register names (``r1`` ... ``r15``), the PC domain to the flipped bit (``pc[5]``) or the
    grouped illegal-target class (``pc[illegal]``).  Each failing
    experiment weighs what it stands for, its class's data lifetime
    times its slot weight, so the weights sum to the failure count F.
    """
    domain = result.domain
    label = domain.location_label(result.golden)
    weights: Counter = Counter()
    for interval, outcomes in result.class_records():
        failing = sum(weight for outcome, weight in zip(
            outcomes, domain.experiment_slot_weights(interval))
            if outcome.is_failure)
        if failing:
            weights[label(domain.axis_of(interval))] += \
                interval.length * failing
    return weights.most_common(top)
