"""Figure 2(d)/(e): absolute failure counts without and with weighting.

The headline reproduction: under the paper's sound metric (weighted
absolute failure counts, panel e)

* bin_sem2 genuinely improves under SUM+DMR (r < 1), and
* sync2 *worsens* (r > 1) although its fault coverage improved —
  the wrong design decision the fault-coverage metric would have caused;

while the unweighted counts (panel d) make *both* benchmarks look worse
when hardened — flipping the bin_sem2 verdict (Pitfall 1).
"""

from repro.analysis import fig2_verdicts, verdict_report
from repro.metrics import unweighted_failure_count, weighted_failure_count


def test_fig2_weighted_failure_counts(fig2_summaries, output_dir):
    r = {}
    for name in ("bin_sem2", "sync2"):
        base = weighted_failure_count(fig2_summaries[name]).total
        hard = weighted_failure_count(
            fig2_summaries[f"{name}-sumdmr"]).total
        r[name] = hard / base
    assert r["bin_sem2"] < 0.7, r   # improves clearly
    assert r["sync2"] > 1.5, r      # worsens clearly
    report = "\n\n".join(
        verdict_report(fig2_summaries[name],
                       fig2_summaries[f"{name}-sumdmr"], name)
        for name in ("bin_sem2", "sync2"))
    (output_dir / "fig2_failures.txt").write_text(report + "\n")


def test_fig2_unweighted_counts_flip_the_verdict(fig2_summaries):
    """Panel (d): without weighting, both hardened variants look worse —
    for bin_sem2 that is the wrong design decision."""
    for name in ("bin_sem2", "sync2"):
        base = unweighted_failure_count(fig2_summaries[name]).total
        hard = unweighted_failure_count(
            fig2_summaries[f"{name}-sumdmr"]).total
        assert hard > base, name
    # The flip: bin_sem2 improves weighted but worsens unweighted.
    verdicts = fig2_verdicts(fig2_summaries["bin_sem2"],
                             fig2_summaries["bin_sem2-sumdmr"],
                             "bin_sem2")
    assert verdicts["verdicts"]["failure-count (sound)"]
    assert not verdicts["verdicts"][
        "failure-count unweighted (pitfall 1)"]
    assert "failure-count unweighted (pitfall 1)" in \
        verdicts["misleading_metrics"]


def test_fig2_coverage_hides_sync2_degradation(fig2_summaries):
    """The paper's central warning, stated on our data: sync2's weighted
    coverage improves while its failure count worsens."""
    verdicts = fig2_verdicts(fig2_summaries["sync2"],
                             fig2_summaries["sync2-sumdmr"], "sync2")
    assert verdicts["coverage_delta_weighted_pp"] > 0
    assert verdicts["ratio"] > 1
    assert "coverage weighted (pitfall 3)" in \
        verdicts["misleading_metrics"]
