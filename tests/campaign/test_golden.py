"""Tests for golden-run recording."""

import pytest

from repro.campaign import GoldenRunError, record_golden
from repro.campaign.golden import MAX_CHECKPOINTS
from repro.isa import Machine, Op, assemble
from repro.programs import micro
from repro.programs.registry import all_programs


class TestRecordGolden:
    def test_records_output_cycles_and_trace(self):
        golden = record_golden(assemble("""
            .data
v:      .byte 0
            .text
start:  li   r1, 'A'
        sb   r1, v(zero)
        lbu  r2, v(zero)
        out  r2
        halt
""", ram_size=1))
        assert golden.output == b"A"
        assert golden.cycles == 5
        assert golden.trace.total_slots == 5
        assert golden.fault_space.size == 5 * 8

    def test_partition_is_validated(self):
        golden = record_golden(assemble(
            ".text\nstart: li r1, 1\n sb r1, 0(zero)\n lbu r2, 0(zero)\n"
            " halt", ram_size=2))
        partition = golden.partition()
        assert partition.total_weight == golden.fault_space.size

    def test_trapping_program_rejected(self):
        program = assemble(".text\nstart: lw r1, 999(zero)\n halt",
                           ram_size=8)
        with pytest.raises(GoldenRunError, match="trapped"):
            record_golden(program)

    def test_nonterminating_program_rejected(self):
        program = assemble(".text\nstart: j start")
        with pytest.raises(GoldenRunError, match="exceeded"):
            record_golden(program, cycle_limit=1000)

    def test_spurious_detection_rejected(self):
        program = assemble(".text\nstart: detect 1\n halt")
        with pytest.raises(GoldenRunError, match="detections"):
            record_golden(program)

    def test_golden_run_is_reproducible(self):
        program = assemble(
            ".text\nstart: li r1, 'x'\n out r1\n halt")
        first = record_golden(program)
        second = record_golden(program)
        assert first.output == second.output
        assert first.cycles == second.cycles


#: Stores of all three widths, each into bytes the others leave alone,
#: in a loop that reads them back: a ladder that missed a sub-word
#: store would carry a stale RAM hash on the rungs after it.
MIXED_STORES = """\
        .data
w:      .word 0
h:      .half 0
b:      .byte 0
        .text
start:  li   r3, 4
loop:   addi r1, r1, 7
        sh   r1, h(zero)
        lhu  r2, h(zero)
        sb   r2, b(zero)
        lbu  r4, b(zero)
        add  r5, r5, r4
        sw   r5, w(zero)
        out  r4
        addi r3, r3, -1
        bnez r3, loop
        halt
"""


def _assert_ladder_replays(golden):
    """Every rung equals ``Machine.state_digest()`` of an independent,
    untraced replay run to the rung's cycle, and ``lookup()`` maps the
    replayed digest back to that cycle."""
    ladder = golden.checkpoints
    lookup = ladder.lookup()
    assert len(lookup) == len(ladder.digests)
    replay = Machine(golden.program)
    for index, digest in enumerate(ladder.digests):
        cycle = (index + 1) * ladder.stride
        replay.run_to_cycle(cycle)
        assert not replay.halted, cycle
        expected = replay.state_digest()
        assert digest == expected, (golden.program.name, cycle)
        assert lookup[expected] == cycle
    # Rungs are taken at every multiple of the stride while the run
    # is live, and only then: the next multiple finds it halted.
    replay.run_to_cycle((len(ladder.digests) + 1) * ladder.stride)
    assert replay.halted


class TestLadderDifferential:
    """The ladder keeps RAM's hash between stores; these replays hash
    every rung from scratch, so a store the ladder missed shows."""

    @pytest.mark.parametrize("name", sorted(all_programs()))
    def test_every_registry_program_at_the_auto_stride(self, name):
        _assert_ladder_replays(record_golden(all_programs()[name]()))

    @pytest.mark.parametrize("stride", [1, 3])
    def test_explicit_strides(self, stride):
        golden = record_golden(micro.memcopy(6), checkpoint_stride=stride)
        assert golden.checkpoints.stride == stride
        _assert_ladder_replays(golden)

    def test_stride_zero_takes_no_rung(self):
        golden = record_golden(micro.memcopy(6), checkpoint_stride=0)
        assert golden.checkpoints is None

    @pytest.mark.parametrize("stride", [None, 1, 2, 5])
    def test_halfword_and_byte_stores(self, stride):
        program = assemble(MIXED_STORES, name="mixed-stores", ram_size=8)
        golden = record_golden(program, checkpoint_stride=stride)
        ops = {program.rom[pc].op for pc in golden.pc_trace}
        assert {Op.SW, Op.SH, Op.SB} <= ops
        _assert_ladder_replays(golden)

    def test_the_stride_doubles_past_the_cap(self):
        """A loop longer than MAX_CHECKPOINTS cycles: the rungs kept
        after each doubling still replay."""
        iterations = MAX_CHECKPOINTS // 5 + 200
        program = assemble(f"""\
        .data
v:      .word 0
        .text
start:  li   r3, {iterations}
loop:   lw   r1, v(zero)
        addi r1, r1, 1
        sw   r1, v(zero)
        addi r3, r3, -1
        bnez r3, loop
        halt
""", name="longloop", ram_size=4)
        golden = record_golden(program)
        assert golden.checkpoints.stride == 2
        _assert_ladder_replays(golden)
