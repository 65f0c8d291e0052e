"""Figure 2(a)/(b): fault coverage without and with def/use weighting.

Regenerates both coverage panels for bin_sem2/sync2 × baseline/SUM+DMR
from full fault-space scans and checks the paper's shape:

* panel (a) vs (b): the unweighted coverage *underestimates* the
  weighted coverage for every variant, by several percentage points
  (the paper reports 9.1 up to 33.2 pp);
* panel (b): weighted coverage improves baseline → hardened for both
  benchmarks (which is exactly what makes the metric dangerous for
  sync2 — see the failure-count bench).
"""

from repro.analysis import fig2_data, fig2_report
from repro.metrics import unweighted_coverage, weighted_coverage

PAIRS = [("bin_sem2", "bin_sem2-sumdmr"), ("sync2", "sync2-sumdmr")]


def test_fig2_coverage_panels(fig2_summaries, output_dir):
    series = fig2_data(fig2_summaries)
    by_name = {s.variant: s for s in series}

    # Shape 1: unweighted underestimates weighted, everywhere.
    for s in series:
        gap_pp = 100 * (s.coverage_weighted - s.coverage_unweighted)
        assert gap_pp > 3.0, (s.variant, gap_pp)

    # Shape 2: weighted coverage improves for both hardened variants.
    for base, hard in PAIRS:
        assert by_name[hard.replace("-sumdmr", "-sumdmr")] \
            .coverage_weighted > by_name[base].coverage_weighted

    (output_dir / "fig2_coverage.txt").write_text(
        fig2_report(series) + "\n")


def test_fig2_unweighted_coverage_bias_magnitude(fig2_summaries):
    """The bias spans a wide range across variants, as in the paper
    (9.1–33.2 pp there)."""
    gaps = []
    for summary in fig2_summaries.values():
        gaps.append(100 * (weighted_coverage(summary)
                           - unweighted_coverage(summary)))
    assert max(gaps) - min(gaps) > 5.0
    assert max(gaps) > 20.0
