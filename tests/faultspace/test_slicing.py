"""Backward criticality slicing: sink rules and soundness.

The load-bearing property is *soundness*: a cell the slice calls
non-critical must, when corrupted, reproduce the golden outcome
exactly.  The exhaustive tests below check that against ground truth
(every live fault-space cell actually executed) on several micro
programs for both fault domains.  Precision (how many cells the slice
proves benign) is a performance property and only smoke-tested.
"""

import pytest

from repro.campaign import record_golden
from repro.campaign.experiment import ExperimentExecutor
from repro.faultspace import backward_slice, get_domain
from repro.faultspace.defuse import LIVE
from repro.isa import assemble
from repro.programs import hi, micro


def _assemble(source, ram_size=16):
    return assemble(source, ram_size=ram_size)


class TestSinkRules:
    def test_out_operand_is_critical(self):
        golden = record_golden(_assemble("""
        .text
        li   r1, 65
        out  r1
        halt
        """))
        crit = backward_slice(golden)
        # r1 is critical between the li (cycle 1) and the out (cycle 2):
        # corrupting it at point 1 changes the emitted byte.
        assert crit.reg_critical(1, 1)

    def test_branch_operand_is_critical(self):
        golden = record_golden(_assemble("""
        .text
        li   r1, 1
        bnez r1, done
        halt
done:   halt
        """))
        crit = backward_slice(golden)
        assert crit.reg_critical(1, 1)

    def test_address_operand_is_critical_even_when_value_is_dead(self):
        # r1 only serves as a store address; the stored byte is never
        # read.  A corrupt address could still trap or clobber other
        # state, so r1 must be critical.
        golden = record_golden(_assemble("""
        .data
buf:    .byte 0, 0, 0, 0
        .text
        li   r1, buf
        li   r2, 7
        sb   r2, 0(r1)
        halt
        """))
        crit = backward_slice(golden)
        assert crit.reg_critical(2, 1)

    def test_divisor_is_critical_even_when_quotient_is_dead(self):
        # The quotient in r3 is never used, but a corrupt divisor can
        # become zero and trap, so r2 must be critical before the divu.
        golden = record_golden(_assemble("""
        .text
        li   r1, 10
        li   r2, 5
        divu r3, r1, r2
        halt
        """))
        crit = backward_slice(golden)
        assert crit.reg_critical(2, 2)
        # The dividend only feeds the dead quotient: non-critical.
        assert not crit.reg_critical(2, 1)

    def test_value_chain_into_dead_store_is_not_critical(self):
        # v is loaded, incremented and stored back, but nothing that is
        # ever output or branched on depends on it: the whole chain is
        # non-critical even though the byte is def/use-live (it is
        # read).
        golden = record_golden(_assemble("""
        .data
v:      .word 5
        .text
        lw   r1, v(zero)
        addi r1, r1, 1
        sw   r1, v(zero)
        li   r2, 65
        out  r2
        halt
        """))
        crit = backward_slice(golden)
        v = golden.program.data_labels["v"]
        assert not crit.byte_critical(0, v)
        assert not crit.reg_critical(1, 1)


@pytest.mark.parametrize("domain_name", ["memory", "register"])
@pytest.mark.parametrize("factory", [
    lambda: micro.counter(2),
    lambda: micro.memcopy(3),
    lambda: micro.checksum_loop(2),
    lambda: hi.baseline(),
], ids=["counter", "memcopy", "checksum", "hi"])
def test_noncritical_cells_reproduce_the_golden_outcome(
        domain_name, factory):
    """Exhaustive soundness: every non-critical live cell is a no-effect.

    Ground truth comes from executing every experiment with the
    convergence machinery disabled; there must be no cell the slice
    calls non-critical whose real outcome differs from the golden run's
    clean halt.
    """
    golden = record_golden(factory())
    domain = get_domain(domain_name)
    crit = backward_slice(golden)
    executor = ExperimentExecutor(golden, use_convergence=False,
                                  domain=domain)
    space = domain.fault_space(golden)
    checked = 0
    for slot in range(1, golden.cycles + 1):
        for coordinate in domain.slot_coordinates(space, slot):
            if domain.cell_critical(crit, coordinate):
                continue
            record = executor.run(coordinate)
            checked += 1
            assert record.outcome.name == "NO_EFFECT", coordinate
            assert record.end_cycle == golden.cycles, coordinate
            assert record.trap == "", coordinate
    assert checked > 0, "slice proved nothing non-critical"


@pytest.mark.parametrize("domain_name", ["memory", "register"])
def test_defuse_dead_cells_are_noncritical(domain_name):
    """Def/use deadness is a strict subset of non-criticality."""
    golden = record_golden(micro.memcopy(3))
    domain = get_domain(domain_name)
    crit = backward_slice(golden)
    partition = domain.build_partition(golden)
    space = domain.fault_space(golden)
    for slot in range(1, golden.cycles + 1):
        for coordinate in domain.slot_coordinates(space, slot):
            if partition.locate(coordinate).kind != LIVE:
                assert not domain.cell_critical(crit, coordinate), \
                    coordinate


def test_timelines_cover_the_whole_run():
    """Queries at the first and last points stay in range."""
    golden = record_golden(micro.counter(2))
    crit = backward_slice(golden)
    for addr in range(golden.program.ram_size):
        crit.byte_critical(0, addr)
        crit.byte_critical(golden.cycles - 1, addr)
    for reg in range(16):
        crit.reg_critical(0, reg)
        crit.reg_critical(golden.cycles - 1, reg)
