"""Where a golden checkpoint ladder must have its rungs, worked out
from a stepped interpreter, independently of ``record_golden``."""

from repro.isa import Machine
from repro.isa.blocks import block_leaders


def boundary_cycles(program) -> list[int]:
    """The live block-boundary cycles of ``program``'s fault-free run:
    each cycle after which the instruction just executed transferred
    control or the next pc starts a block (a leader, or the end of the
    ROM, where the run halts next), the run not yet halted."""
    leaders = set(block_leaders(program.rom, program.entry))
    leaders.add(len(program.rom))
    machine = Machine(program)
    cycles = []
    while True:
        pc = machine.pc
        machine.step()
        if machine.halted:
            return cycles
        if machine.pc != pc + 1 or machine.pc in leaders:
            cycles.append(machine.cycle)


def stride_rungs(boundaries, stride: int) -> list[int]:
    """The boundaries a ladder of ``stride`` holds: those past a
    multiple of it since the boundary before (the run's start, cycle
    0, before the first)."""
    return [cycle for previous, cycle in zip([0] + boundaries, boundaries)
            if cycle // stride > previous // stride]
