"""Section V summary: the pitfall-free comparison ratio r for all pairs.

Produces the final paper-vs-reproduction scoreboard consumed by
EXPERIMENTS.md and checks every qualitative claim at once.
"""

from repro.analysis import fig2_data, fig2_report, fig2_verdicts
from repro.metrics import compare, mwtf_ratio


def test_summary_scoreboard(fig2_summaries, hi_summaries, output_dir):
    lines = ["Final scoreboard: comparison ratio r = F_hardened/"
             "F_baseline (r < 1 improves)", ""]

    bin_sem2 = fig2_verdicts(fig2_summaries["bin_sem2"],
                             fig2_summaries["bin_sem2-sumdmr"],
                             "bin_sem2")
    sync2 = fig2_verdicts(fig2_summaries["sync2"],
                          fig2_summaries["sync2-sumdmr"], "sync2")
    hi_dft = compare(hi_summaries["hi"], hi_summaries["hi-dft4"])

    lines.append(f"bin_sem2 + SUM+DMR: r = {bin_sem2['ratio']:.3f} "
                 "(paper: clear improvement)")
    lines.append(f"sync2 + SUM+DMR:    r = {sync2['ratio']:.3f} "
                 "(paper: worsens by more than 5x)")
    lines.append(f"hi + DFT:           r = {hi_dft.ratio:.3f} "
                 "(paper: exactly 1 — dilution does not move F)")
    lines.append("")
    lines.append(fig2_report(fig2_data(fig2_summaries)))

    assert bin_sem2["ratio"] < 0.7
    assert sync2["ratio"] > 1.5
    assert hi_dft.ratio == 1.0

    # The MWTF ranking (Section VII) agrees with 1/r.
    mwtf_bin = mwtf_ratio(fig2_summaries["bin_sem2"],
                          fig2_summaries["bin_sem2-sumdmr"])
    mwtf_sync = mwtf_ratio(fig2_summaries["sync2"],
                           fig2_summaries["sync2-sumdmr"])
    assert mwtf_bin > 1  # improvement
    assert mwtf_sync < 1  # degradation
    lines.append(f"\nMWTF ratios (Section VII consistency): "
                 f"bin_sem2 {mwtf_bin:.3f}, sync2 {mwtf_sync:.3f}")

    (output_dir / "summary_scoreboard.txt").write_text(
        "\n".join(lines) + "\n")
