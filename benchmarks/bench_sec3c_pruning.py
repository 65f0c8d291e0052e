"""Section III-C: def/use pruning effectiveness on real benchmarks.

The paper reports the sync2 baseline shrinking from a raw fault space of
w ≈ 1.5e8 to 19,553 experiments.  Our substrate is smaller, but the
benchmark checks the same structural claim: pruning reduces the
experiment count by orders of magnitude with zero loss of precision.
"""

from repro.analysis import fig1_data
from repro.campaign import record_golden
from repro.programs import bin_sem2, sync2


def test_sec3c_pruning_effectiveness(output_dir):
    lines = ["Section III-C: def/use pruning effectiveness",
             f"{'program':18s} {'w':>12s} {'experiments':>12s} "
             f"{'reduction':>10s}"]
    for thunk in (bin_sem2.baseline, bin_sem2.hardened, sync2.baseline,
                  sync2.hardened):
        golden = record_golden(thunk())
        data = fig1_data(golden)
        lines.append(f"{data['program']:18s} "
                     f"{data['fault_space_size']:12d} "
                     f"{data['experiments']:12d} "
                     f"{data['reduction_factor']:9.1f}x")
        # Orders of magnitude, with full precision retained.
        assert data["reduction_factor"] > 50
        assert data["experiments"] < data["fault_space_size"] / 50
    (output_dir / "sec3c_pruning.txt").write_text("\n".join(lines) + "\n")
