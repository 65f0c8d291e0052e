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

from dataclasses import dataclass, field
from operator import attrgetter

from ..isa.isa import Instruction, LOAD_OPS, NUM_REGS, Op, STORE_OPS
from .defuse import DEAD, LIVE, IntervalPartition

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


@dataclass(frozen=True, order=True)
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
class RegisterFaultSpace:
    """Δt × 15 registers × 32 bits."""

    cycles: int

    def __post_init__(self) -> None:
        if self.cycles < 1:
            raise ValueError("fault space needs at least one cycle")

    @property
    def size(self) -> int:
        return self.cycles * (NUM_REGS - 1) * REGISTER_BITS

    @property
    def slot_bits(self) -> int:
        """Fault-space coordinates per injection slot (15 regs × 32)."""
        return (NUM_REGS - 1) * REGISTER_BITS

    def contains(self, coord: RegisterFaultCoordinate) -> bool:
        return 1 <= coord.slot <= self.cycles

    def coordinate(self, index: int) -> RegisterFaultCoordinate:
        """Map a flat index in ``[0, size)`` to a coordinate.

        Row-major over (slot, reg, bit), mirroring
        :meth:`repro.faultspace.model.FaultSpace.coordinate`; samplers
        draw uniform flat indices and convert them here, which gives
        the raw-space uniformity Pitfall 2 demands in this domain too.
        """
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} outside fault space")
        slot, rest = divmod(index, self.slot_bits)
        reg, bit = divmod(rest, REGISTER_BITS)
        return RegisterFaultCoordinate(slot=slot + 1, reg=reg + 1, bit=bit)

    def index(self, coord: RegisterFaultCoordinate) -> int:
        """Inverse of :meth:`coordinate`."""
        if not self.contains(coord):
            raise IndexError(f"{coord} outside fault space")
        return ((coord.slot - 1) * self.slot_bits
                + (coord.reg - 1) * REGISTER_BITS + coord.bit)

    def iter_coordinates(self):
        for slot in range(1, self.cycles + 1):
            for reg in range(1, NUM_REGS):
                for bit in range(REGISTER_BITS):
                    yield RegisterFaultCoordinate(slot=slot, reg=reg,
                                                  bit=bit)


@dataclass(frozen=True)
class RegisterInterval:
    """A def/use equivalence class of one register over ``[first_slot,
    last_slot]`` (32 bits wide)."""

    reg: int
    first_slot: int
    last_slot: int
    kind: str

    @property
    def length(self) -> int:
        return self.last_slot - self.first_slot + 1

    @property
    def weight_bits(self) -> int:
        return self.length * REGISTER_BITS

    @property
    def injection_slot(self) -> int:
        return self.last_slot

    def covers(self, slot: int) -> bool:
        return self.first_slot <= slot <= self.last_slot

    def experiments(self) -> list[RegisterFaultCoordinate]:
        if self.kind != LIVE:
            raise ValueError("dead classes need no experiments")
        return [RegisterFaultCoordinate(slot=self.last_slot, reg=self.reg,
                                        bit=b)
                for b in range(REGISTER_BITS)]


@dataclass
class RegisterPartition(IntervalPartition):
    """Def/use partition of the register fault space."""

    fault_space: RegisterFaultSpace
    intervals: dict[int, list[RegisterInterval]] = field(
        default_factory=dict)

    units = REGISTER_BITS
    axis = attrgetter("reg")

    @classmethod
    def from_pc_trace(cls, rom: list[Instruction],
                      pc_trace: list[int]) -> "RegisterPartition":
        """Build the partition from the golden run's executed-pc list.

        ``pc_trace[t]`` is the ROM index of the instruction executed at
        slot ``t + 1``.  Register accesses are derived from the opcode
        table; machine reset (all registers zero) counts as a def at
        slot 0.
        """
        total = len(pc_trace)
        if total < 1:
            raise ValueError("empty pc trace")
        partition = cls(fault_space=RegisterFaultSpace(cycles=total))
        # Collect per-register chronological events.
        events: dict[int, list[tuple[int, bool]]] = {
            reg: [] for reg in range(1, NUM_REGS)}
        for index, pc in enumerate(pc_trace):
            slot = index + 1
            instr = rom[pc]
            for reg in register_reads(instr):
                events[reg].append((slot, False))
            for reg in register_writes(instr):
                events[reg].append((slot, True))
        for reg in range(1, NUM_REGS):
            intervals: list[RegisterInterval] = []
            prev = 0
            for slot, is_write in events[reg]:
                if slot == prev:
                    # Same instruction reads and writes the register
                    # (e.g. addi r1, r1, 1): the read happened first and
                    # already closed the interval; the write opens the
                    # next one at the same slot boundary.
                    continue
                intervals.append(RegisterInterval(
                    reg=reg, first_slot=prev + 1, last_slot=slot,
                    kind=DEAD if is_write else LIVE))
                prev = slot
            if prev < total:
                intervals.append(RegisterInterval(
                    reg=reg, first_slot=prev + 1, last_slot=total,
                    kind=DEAD))
            partition.intervals[reg] = intervals
        return partition
