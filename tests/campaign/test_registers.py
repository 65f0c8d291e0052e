"""Tests for the register-file fault-injection extension (Section VI-B)."""

import pytest

from repro.campaign import (
    ExperimentExecutor,
    record_golden,
    run_brute_force,
    run_full_scan,
)
from repro.faultspace import REGISTER
from repro.faultspace.registers import (
    DEAD,
    LIVE,
    RegisterFaultCoordinate,
    RegisterFaultSpace,
    register_reads,
    register_writes,
)
from repro.isa import assemble
from repro.programs import micro

SOURCE = """
        .text
start:  li   r1, 5
        addi r2, r1, 1
        out  r2
        halt
"""


@pytest.fixture(scope="module")
def golden():
    return record_golden(assemble(SOURCE, ram_size=4))


class TestAccessTables:
    def test_alu_reads_and_writes(self):
        program = assemble(".text\n add r3, r1, r2\n halt")
        instr = program.rom[0]
        assert register_reads(instr) == (1, 2)
        assert register_writes(instr) == (3,)

    def test_store_reads_base_and_value(self):
        program = assemble(".text\n sw r2, 4(r1)\n halt")
        instr = program.rom[0]
        assert register_reads(instr) == (1, 2)
        assert register_writes(instr) == ()

    def test_load_reads_base_writes_dest(self):
        program = assemble(".text\n lw r2, 0(r1)\n halt")
        instr = program.rom[0]
        assert register_reads(instr) == (1,)
        assert register_writes(instr) == (2,)

    def test_r0_never_appears(self):
        program = assemble(".text\n add r0, r0, r0\n halt")
        instr = program.rom[0]
        assert register_reads(instr) == ()
        assert register_writes(instr) == ()

    def test_jal_writes_link_only(self):
        program = assemble(".text\nstart: call start")
        instr = program.rom[0]
        assert register_reads(instr) == ()
        assert register_writes(instr) == (14,)

    def test_duplicate_read_operands_deduplicated(self):
        program = assemble(".text\n add r2, r1, r1\n halt")
        assert register_reads(program.rom[0]) == (1,)


class TestPcTrace:
    def test_trace_length_matches_cycles(self, golden):
        trace = golden.executed_pcs()
        assert len(trace) == golden.cycles
        assert trace[0] == golden.program.entry

    def test_trace_of_implicit_halt_program(self):
        golden = record_golden(assemble(".text\nstart: nop\n nop",
                                        ram_size=4))
        assert golden.executed_pcs() == [0, 1]


class TestRegisterPartition:
    def test_intervals_tile_the_space(self, golden):
        partition = REGISTER.build_partition(golden)
        partition.validate()

    def test_r1_lifecycle(self, golden):
        # r1: written at slot 1, read at slot 2, then dead.
        partition = REGISTER.build_partition(golden)
        intervals = partition.intervals[1]
        kinds = [(iv.first_slot, iv.last_slot, iv.kind)
                 for iv in intervals]
        assert kinds == [(1, 1, DEAD), (2, 2, LIVE),
                         (3, golden.cycles, DEAD)]

    def test_untouched_register_is_dead(self, golden):
        partition = REGISTER.build_partition(golden)
        intervals = partition.intervals[7]
        assert len(intervals) == 1
        assert intervals[0].kind == DEAD

    def test_read_write_same_slot(self):
        # addi r1, r1, 1 reads then writes r1 in one slot.
        golden = record_golden(assemble(
            ".text\nstart: li r1, 1\n addi r1, r1, 1\n out r1\n halt",
            ram_size=4))
        partition = REGISTER.build_partition(golden)
        partition.validate()
        kinds = [(iv.first_slot, iv.last_slot, iv.kind)
                 for iv in partition.intervals[1]]
        assert kinds == [(1, 1, DEAD), (2, 2, LIVE), (3, 3, LIVE),
                         (4, 4, DEAD)]


class TestRegisterCampaign:
    def test_scan_matches_brute_force(self, golden):
        """The keystone property, now for the register fault model."""
        scan = run_full_scan(golden, domain="register")
        brute = run_brute_force(golden, domain="register").outcomes
        for coord, outcome in brute.items():
            assert scan.outcome_of(coord) == outcome, coord
        assert sum(scan.weighted_counts().values()) \
            == scan.fault_space_size

    def test_scan_matches_brute_force_on_memcopy(self):
        golden = record_golden(micro.counter(2))
        scan = run_full_scan(golden, domain="register")
        brute = run_brute_force(golden, domain="register").outcomes
        for coord, outcome in brute.items():
            assert scan.outcome_of(coord) == outcome, coord

    def test_flipping_live_register_fails(self, golden):
        executor = ExperimentExecutor(golden, domain="register")
        # r1 holds 5 and is read at slot 2: flip bit 1 -> output changes.
        record = executor.run(RegisterFaultCoordinate(slot=2, reg=1,
                                                      bit=1))
        assert record.outcome.is_failure

    def test_flipping_dead_register_is_benign(self, golden):
        executor = ExperimentExecutor(golden, domain="register")
        record = executor.run(RegisterFaultCoordinate(slot=1, reg=7,
                                                      bit=0))
        assert record.outcome.value == "no-effect"

    def test_coverage_and_failure_count(self, golden):
        scan = run_full_scan(golden, domain="register")
        assert 0.0 <= scan.weighted_coverage() <= 1.0
        assert scan.weighted_failure_count() > 0


class TestRegisterFaultSpace:
    def test_size(self):
        assert RegisterFaultSpace(cycles=2).size == 2 * 15 * 32

    def test_r0_excluded(self):
        with pytest.raises(ValueError, match="hardwired"):
            RegisterFaultCoordinate(slot=1, reg=0, bit=0)
