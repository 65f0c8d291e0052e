"""Register-file fault space — the Section VI-B generalization.

The paper restricts its fault model to main memory but notes (Section
VI-B) that the methodology extends to "every bit in the caches, the CPU
registers, or the microarchitectural state" once reads and writes to
those bits are recorded for def/use pruning.  This module implements
that extension for the machine's general-purpose register file:

* the fault space is ``Δt × 15 registers × 32 bits`` (r0 is hardwired
  to zero and cannot hold a fault);
* register reads/writes per executed instruction are derived statically
  from the opcode table and replayed over the golden run's pc trace —
  no extra tracing hooks in the interpreter's hot path;
* def/use pruning, weighting and the comparison metrics carry over
  unchanged, which is exactly the paper's point.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from ..isa.isa import Instruction, LOAD_OPS, NUM_REGS, Op, STORE_OPS
from ..isa.tracing import READ, WRITE, AccessEvent, MemoryTrace
from .defuse import DEAD, LIVE  # noqa: F401 - the class kinds, re-exported
from .defuse import CellInterval, IntervalPartition, trace_intervals, unchecked
from .model import CellSpace

#: Bits per register.
REGISTER_BITS = 32


def register_reads(instr: Instruction) -> tuple[int, ...]:
    """Registers an instruction reads (r0 excluded — it is constant)."""
    op = instr.op
    if op in LOAD_OPS or op == Op.JALR:
        regs = (instr.rs1,)
    elif op in STORE_OPS:
        regs = (instr.rs1, instr.rs2)
    elif op in (Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU):
        regs = (instr.rs1, instr.rs2)
    elif op in (Op.LUI, Op.JAL, Op.DETECT, Op.HALT, Op.NOP):
        regs = ()
    elif op == Op.OUT:
        regs = (instr.rs1,)
    elif op in (Op.ADDI, Op.ANDI, Op.ORI, Op.XORI, Op.SLLI, Op.SRLI,
                Op.SRAI, Op.SLTI, Op.SLTIU):
        regs = (instr.rs1,)
    else:  # R-type ALU
        regs = (instr.rs1, instr.rs2)
    return tuple(sorted({r for r in regs if r != 0}))


def register_writes(instr: Instruction) -> tuple[int, ...]:
    """Registers an instruction writes (writes to r0 are discarded)."""
    op = instr.op
    if op in STORE_OPS or op in (Op.BEQ, Op.BNE, Op.BLT, Op.BGE,
                                 Op.BLTU, Op.BGEU, Op.OUT, Op.DETECT,
                                 Op.HALT, Op.NOP):
        return ()
    return (instr.rd,) if instr.rd != 0 else ()


@dataclass(frozen=True, order=True, slots=True)
class RegisterFaultCoordinate:
    """One point of the register fault space: flip ``bit`` of register
    ``reg`` right before the ``slot``-th instruction executes."""

    slot: int
    reg: int
    bit: int

    def __post_init__(self) -> None:
        if self.slot < 1:
            raise ValueError(f"slot must be >= 1, got {self.slot}")
        if not 1 <= self.reg < NUM_REGS:
            raise ValueError(
                f"reg must be in 1..{NUM_REGS - 1} (r0 is hardwired)")
        if not 0 <= self.bit < REGISTER_BITS:
            raise ValueError(f"bit must be in 0..31, got {self.bit}")


@dataclass(frozen=True)
class RegisterFaultSpace(CellSpace):
    """Δt × 15 registers × 32 bits, row-major over (slot, reg, bit)."""

    cells = range(1, NUM_REGS)  # r0 is hardwired to zero
    units = REGISTER_BITS
    point = RegisterFaultCoordinate
    cell = attrgetter("reg")


@dataclass(frozen=True, slots=True)
class RegisterInterval(CellInterval):
    """A def/use equivalence class of one register over ``[first_slot,
    last_slot]`` (32 bits wide)."""

    reg: int
    first_slot: int
    last_slot: int
    kind: str

    space = RegisterFaultSpace


class RegisterPartition(IntervalPartition):
    """Def/use partition of the register fault space."""

    @classmethod
    def from_pc_trace(cls, rom: list[Instruction],
                      pc_trace: list[int]) -> "RegisterPartition":
        """Build the partition from the golden run's executed-pc list.

        ``pc_trace[t]`` is the ROM index of the instruction executed at
        slot ``t + 1``.  Register accesses are derived from the opcode
        table and walked like a memory trace; machine reset (all
        registers zero) counts as a def at slot 0.
        """
        total = len(pc_trace)
        if total < 1:
            raise ValueError("empty pc trace")
        fault_space = RegisterFaultSpace(cycles=total)
        events: dict[int, list[AccessEvent]] = {
            reg: [] for reg in fault_space.cells}
        accesses: dict[int, list[tuple[int, int]]] = {}  # pc → (reg, kind)
        for slot, pc in enumerate(pc_trace, 1):
            if pc not in accesses:
                reads = register_reads(rom[pc])
                # An instruction that reads and writes a register (e.g.
                # addi r1, r1, 1) reads it first, which closes the live
                # interval at this slot; the write opens nothing.
                accesses[pc] = [(reg, READ) for reg in reads] + [
                    (reg, WRITE) for reg in register_writes(rom[pc])
                    if reg not in reads]
            for reg, kind in accesses[pc]:
                events[reg].append(AccessEvent(slot, kind))
        trace = MemoryTrace(events=events, total_slots=total)
        return cls(fault_space=fault_space, intervals=trace_intervals(
            trace, fault_space, unchecked(RegisterInterval)))
