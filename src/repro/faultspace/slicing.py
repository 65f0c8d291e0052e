"""Backward criticality slicing of the golden run.

Def/use pruning (Section III-C) asks a *syntactic* question about each
fault-space cell: is the next access a read?  This module asks the
stronger *semantic* question: can a corrupt value in this cell, at this
point in time, ever influence anything observable?  A cell can be read
— even read many times — and still be provably benign, because the
loaded value only flows into computations whose results are themselves
never observed (dead stores, scratch registers, diagnostic counters
that are never printed).

The analysis is a single backward pass over the golden instruction
trace that tracks, per register and per RAM byte, whether the cell is
**critical**: whether its value at that point can reach one of the
observable sinks before the run ends.  The sinks are exactly the ways
a corrupt value can change an experiment's classification on this
machine model:

* ``out`` operands — serial output is the failure oracle;
* branch and ``jalr`` operands — control flow decides *which*
  instructions run, so any divergence voids the analysis;
* load/store **address** operands — a corrupt address reads or writes
  the wrong bytes and can trap (``MemoryFault``/``AlignmentFault``);
* ``divu``/``remu`` divisors — a corrupt divisor can trap
  (``ArithmeticTrap``) even when the quotient is dead.

``detect`` takes no operands (its code is an immediate) and ``halt``
takes none either; both are covered by the control-flow sink — they
fire iff execution reaches them.

Walking backward, an instruction *kills* the criticality of the
register or bytes it writes (their prior value is overwritten without
having been observed) and *generates* criticality for its source
operands when — and only when — the destination was critical.  Sink
operands are unconditionally critical.  The result is, per cell, a
compact timeline of criticality toggles queryable at any point.

**Soundness.**  Suppose a cell is non-critical at point ``p`` (the
state after ``p`` golden instructions) and its value is corrupted
there.  By induction over the remaining golden instructions: the
corrupt value never reaches a branch/``jalr`` operand, so the faulty
run executes the same instruction sequence; never reaches an address
operand or divisor, so no instruction traps or touches different
bytes; never reaches an ``out`` operand, so the serial output is
byte-identical; and ``detect``/``halt`` fire at the same cycles
because control flow is identical.  Corruption can spread — loads may
copy it into registers, stores back into memory — but the kill/gen
rules propagate criticality backward through exactly those moves, so
every cell the corruption spreads *to* was itself non-critical.  The
run therefore halts at the golden cycle count with the golden output
and the golden detections: the outcome is exactly the golden outcome.

This strictly subsumes def/use deadness: a byte whose next access is a
write (or that is never accessed again) is killed at that write before
it can generate anything, hence non-critical.  The converse fails —
that is the whole point.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from ..isa.isa import ACCESS_WIDTH, NUM_REGS, Op

#: Opcode groups driving the backward kill/gen rules.  Shifts mask
#: their amount operand (``& 31``) and cannot trap; ``divu``/``remu``
#: are separated because a zero divisor traps.
_ALU_RR = frozenset({
    Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SLL, Op.SRL, Op.SRA,
    Op.SLT, Op.SLTU, Op.MUL,
})
_ALU_RI = frozenset({
    Op.ADDI, Op.ANDI, Op.ORI, Op.XORI, Op.SLLI, Op.SRLI, Op.SRAI,
    Op.SLTI, Op.SLTIU,
})
_LOADS = frozenset({Op.LW, Op.LH, Op.LHU, Op.LB, Op.LBU})
_STORES = frozenset({Op.SW, Op.SH, Op.SB})
_BRANCHES = frozenset({Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU})


@dataclass(frozen=True)
class CriticalityMap:
    """Per-cell criticality timelines of one golden run.

    ``reg_timelines[r]`` / ``byte_timelines[addr]`` is a pair
    ``(value_at_point_0, boundaries)``: the cell's criticality in the
    initial state (before the first instruction) and the ascending
    cycles at which it toggles — a boundary at cycle ``c`` separates
    point ``c - 1`` from point ``c``, where *point* ``p`` denotes the
    machine state after ``p`` executed instructions.

    A fault injected at slot ``t`` corrupts the state at point
    ``t - 1`` (it is visible to the ``t``-th instruction), so callers
    must query the *point*, not the slot — the one-cycle difference
    decides exactly the faults whose first observation is the very
    next instruction.
    """

    reg_timelines: tuple[tuple[bool, tuple[int, ...]], ...]
    byte_timelines: tuple[tuple[bool, tuple[int, ...]], ...]

    @staticmethod
    def _value(timeline: tuple[bool, tuple[int, ...]], point: int) -> bool:
        base, boundaries = timeline
        return base ^ bool(bisect_right(boundaries, point) & 1)

    def byte_critical(self, point: int, addr: int) -> bool:
        """Can corrupting RAM byte ``addr`` at ``point`` be observed?"""
        return self._value(self.byte_timelines[addr], point)

    def reg_critical(self, point: int, reg: int) -> bool:
        """Can corrupting register ``reg`` at ``point`` be observed?"""
        return self._value(self.reg_timelines[reg], point)


def backward_slice(golden) -> CriticalityMap:
    """Compute the criticality timelines of ``golden`` (one backward pass).

    Uses the recorded pc trace
    (:meth:`~repro.campaign.golden.GoldenRun.executed_pcs`) and the
    memory trace for effective addresses, so no re-execution is
    needed.  Cost is O(Δt) time and O(toggles) space —
    a few milliseconds even for the largest bundled benchmarks.
    """
    rom = golden.program.rom
    pcs = golden.executed_pcs()
    ram_size = golden.program.ram_size
    # Effective address per slot, reconstructed from the per-byte
    # memory trace (one instruction per slot accesses one contiguous
    # range, so the minimum byte address is the base; the width comes
    # from the opcode).  Slot 0 is the machine-reset def of every byte.
    base_addr: dict[int, int] = {}
    for addr, events in golden.trace.events.items():
        for event in events:
            slot = event.slot
            if slot and addr < base_addr.get(slot, ram_size):
                base_addr[slot] = addr

    crit_regs = [False] * NUM_REGS
    crit_bytes = bytearray(ram_size)
    reg_bounds: list[list[int]] = [[] for _ in range(NUM_REGS)]
    byte_bounds: list[list[int]] = [[] for _ in range(ram_size)]

    def set_reg(reg: int, value: bool, cycle: int) -> None:
        # r0 is hardwired to zero: it cannot hold a corrupt value and
        # writes to it are discarded, so it never carries criticality.
        if reg and crit_regs[reg] != value:
            crit_regs[reg] = value
            reg_bounds[reg].append(cycle)

    def set_byte(addr: int, value: bool, cycle: int) -> None:
        if crit_bytes[addr] != value:
            crit_bytes[addr] = value
            byte_bounds[addr].append(cycle)

    for cycle in range(len(pcs), 0, -1):
        inst = rom[pcs[cycle - 1]]
        op = inst.op
        if op in _ALU_RR:
            if crit_regs[inst.rd]:
                set_reg(inst.rd, False, cycle)
                set_reg(inst.rs1, True, cycle)
                set_reg(inst.rs2, True, cycle)
        elif op in _ALU_RI:
            if crit_regs[inst.rd]:
                set_reg(inst.rd, False, cycle)
                set_reg(inst.rs1, True, cycle)
        elif op in _LOADS:
            generate = crit_regs[inst.rd]
            set_reg(inst.rd, False, cycle)
            set_reg(inst.rs1, True, cycle)  # address sink
            if generate:
                addr = base_addr[cycle]
                for offset in range(ACCESS_WIDTH[op]):
                    set_byte(addr + offset, True, cycle)
        elif op in _STORES:
            addr = base_addr[cycle]
            generate = False
            for offset in range(ACCESS_WIDTH[op]):
                if crit_bytes[addr + offset]:
                    generate = True
                set_byte(addr + offset, False, cycle)
            set_reg(inst.rs1, True, cycle)  # address sink
            if generate:
                set_reg(inst.rs2, True, cycle)
        elif op in _BRANCHES:
            set_reg(inst.rs1, True, cycle)  # control sinks
            set_reg(inst.rs2, True, cycle)
        elif op is Op.JAL:
            set_reg(inst.rd, False, cycle)  # rd <- pc, a constant here
        elif op is Op.JALR:
            set_reg(inst.rd, False, cycle)
            set_reg(inst.rs1, True, cycle)  # control sink
        elif op is Op.LUI:
            set_reg(inst.rd, False, cycle)
        elif op is Op.OUT:
            set_reg(inst.rs1, True, cycle)  # output sink
        elif op in (Op.DIVU, Op.REMU):
            if crit_regs[inst.rd]:
                set_reg(inst.rd, False, cycle)
                set_reg(inst.rs1, True, cycle)
            set_reg(inst.rs2, True, cycle)  # trap sink (division by zero)
        # DETECT, HALT, NOP: no operands, no data flow.

    # The walk appended boundaries in descending order; the final
    # kill/gen state is the criticality at point 0.
    return CriticalityMap(
        reg_timelines=tuple(
            (crit_regs[reg], tuple(reversed(reg_bounds[reg])))
            for reg in range(NUM_REGS)),
        byte_timelines=tuple(
            (bool(crit_bytes[addr]), tuple(reversed(byte_bounds[addr])))
            for addr in range(ram_size)),
    )
