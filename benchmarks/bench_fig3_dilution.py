"""Figure 3 / Section IV: the "Hi" benchmark and the dilution delusion.

Reproduces the paper's exact numbers:

* baseline: Δt = 8, w = 128, F = 48, c = 62.5 %;
* DFT (four NOPs): Δt = 12, w = 192, F = 48, c = 75.0 %;
* DFT′ (four dummy loads): same as DFT, and it also defeats the
  "count only activated faults" restriction;
* spatial dilution (unused RAM) inflates coverage just the same;
* the comparison ratio r stays exactly 1 for every dilution.
"""

import pytest

from repro.analysis import fig3_report
from repro.campaign import record_golden, run_full_scan
from repro.metrics import (
    activated_only_coverage,
    weighted_coverage,
    weighted_failure_count,
)
from repro.programs import hi


def test_fig3_exact_paper_numbers(hi_summaries, output_dir):
    base = hi_summaries["hi"]
    dft = hi_summaries["hi-dft4"]
    prime = hi_summaries["hi-dftprime4"]
    mem = hi_summaries["hi-mem2"]

    assert base.cycles == 8
    assert base.fault_space_size == 128
    assert weighted_coverage(base) == pytest.approx(0.625)
    assert weighted_failure_count(base).total == 48

    assert dft.cycles == 12
    assert dft.fault_space_size == 192
    assert weighted_coverage(dft) == pytest.approx(0.75)
    assert weighted_failure_count(dft).total == 48

    assert weighted_coverage(prime) == pytest.approx(0.75)
    assert weighted_failure_count(prime).total == 48

    assert weighted_coverage(mem) > weighted_coverage(base)
    assert weighted_failure_count(mem).total == 48

    (output_dir / "fig3.txt").write_text(
        fig3_report(hi_summaries) + "\n")


def test_fig3_activated_only_restriction_defeated(hi_summaries):
    """Section IV-B: excluding never-activated faults catches DFT but
    not DFT′."""
    base = activated_only_coverage(hi_summaries["hi"])
    dft = activated_only_coverage(hi_summaries["hi-dft4"])
    prime = activated_only_coverage(hi_summaries["hi-dftprime4"])
    assert dft == pytest.approx(base)
    assert prime > base + 0.3


def test_fig3_arbitrary_coverage_inflation():
    """Section IV-B: 'we could arbitrarily increase the coverage to any
    c < 100% by inserting more NOPs'."""
    coverages = []
    for nops in (0, 8, 32, 120):
        scan = run_full_scan(record_golden(hi.dft_variant(nops)))
        coverages.append(weighted_coverage(scan))
    assert coverages == sorted(coverages)
    assert coverages[-1] > 0.96
    assert all(c < 1.0 for c in coverages)
