"""Figure 1: def/use equivalence classes extracted from a program trace.

The paper's illustrative fault space (Figure 1a/1b) shows the pruning of
a write-at-4 / read-at-11 pattern over a 12-cycle run.  This benchmark
regenerates the same structure from a real trace of an equivalent
program, checks it, and writes the rendered fault-space diagrams to
``benchmarks/output/fig1.txt``.
"""

import pytest

from repro.analysis import fig1_data, render_fault_space
from repro.campaign import record_golden
from repro.faultspace import DefUsePartition
from repro.isa import assemble

#: Write a byte early, read it late, pad the run to 12 cycles — the
#: temporal structure of the paper's Figure 1 example.
FIG1_SOURCE = """
        .data
cell:   .byte 0
        .text
start:  nop
        nop
        li   r1, 0x5A
        sb   r1, cell(zero)
        nop
        nop
        nop
        nop
        nop
        nop
        lbu  r2, cell(zero)
        out  r2
"""


@pytest.fixture(scope="module")
def fig1_golden():
    return record_golden(assemble(FIG1_SOURCE, name="fig1", ram_size=1))


def test_fig1_partition_structure(fig1_golden, output_dir):
    partition = DefUsePartition.from_trace(fig1_golden.trace,
                                           fig1_golden.fault_space)
    partition.validate()
    data = fig1_data(fig1_golden, partition)
    # 12 cycles x 8 bits = 96 coordinates; a single live class (the
    # write->read window, 7 cycles long) needs 8 experiments.
    assert data["cycles"] == 12
    assert data["fault_space_size"] == 96
    assert data["experiments"] == 8
    assert data["reduction_factor"] == pytest.approx(12.0)
    live = partition.live_classes()
    assert len(live) == 1
    assert (live[0].first_slot, live[0].last_slot) == (5, 11)
    assert live[0].length == 7
    art = render_fault_space(fig1_golden)
    (output_dir / "fig1.txt").write_text(
        "Figure 1: def/use equivalence classes "
        "(W/R = accesses, # = live, . = known No Effect)\n\n"
        + art + f"\n\n{data}\n")


def test_fig1_locate_finds_every_live_coordinate(fig1_golden):
    """Coordinate-to-class lookup (the sampling hot path) puts each of
    the live class's 7 × 8 coordinates in it, and no other."""
    partition = fig1_golden.partition()
    space = fig1_golden.fault_space
    live_hits = sum(1 for i in range(space.size)
                    if partition.locate(space.coordinate(i)).kind == "live")
    assert live_hits == 7 * 8
