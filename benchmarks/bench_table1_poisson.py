"""Table I: Poisson probabilities for k independent faults per run.

Regenerates the table from the published FIT rates and the paper's
Δt = 1 s / Δm = 2^20 bit parametrization, checks its shape (P(0) ≈ 1,
each subsequent k at least twelve orders of magnitude rarer) and writes
the rendered table to ``benchmarks/output/table1.txt``.
"""

import pytest

from repro.analysis import table1_data, table1_report
from repro.metrics import PoissonFaultModel, paper_table1_model


def test_table1_poisson(output_dir):
    rows = table1_data(5)
    by_k = {row["k"]: row["probability"] for row in rows}
    assert by_k[0] == pytest.approx(1.0, abs=1e-10)
    assert by_k[1] == pytest.approx(1.66e-14, rel=0.02)
    for k in range(1, 5):
        assert by_k[k + 1] < by_k[k] * 1e-12
    (output_dir / "table1.txt").write_text(table1_report() + "\n")


def test_single_fault_dominance_footnote():
    """The paper's footnote 4: even at g = 1e-20 the gap between one and
    two faults exceeds four orders of magnitude."""
    model = PoissonFaultModel(rate=1e-20,
                              fault_space_size=10 ** 9 * 2 ** 20)
    assert model.single_fault_dominance() > 1e4


def test_failure_probability_derivation():
    """Equations 5-6: P(Failure) ∝ F with negligible error."""
    model = paper_table1_model()
    assert model.failure_probability(12345) \
        == pytest.approx(12345 * model.rate, rel=1e-9)
    assert model.proportionality_error() < 1e-12
