"""Stuck-at-until-write fault space: a RAM bit forced to 0 or 1.

The DAVOS fault dictionary's second memory model after the transient
bit flip: from the injection slot on, one RAM bit is *forced* to a
value ``v ∈ {0, 1}`` until the owning byte's next write, which releases
the cell ("write wins").  Every read during the fault's lifetime sees
the forced value; the clearing write stores its data unmodified.

A coordinate is ``(slot, addr, bit)`` with the 4-bit experiment index
``bit = (value << 3) | bitpos`` packing the forced value and the bit
position, so each byte carries ``16`` experiments per class and the
space size is ``Δt × Δm_bytes × 16``.

Def/use pruning — soundness per model (Pitfall 1):

* **No accesses between two injection slots ⇒ equivalence.**  Forcing
  the bit at ``t1`` vs. ``t2`` in the same inter-access gap produces
  machines that differ only in a byte no instruction touches before the
  gap's terminating access; from that access on, both have the same
  forced bit, the same armed fault, and the fault clears at the same
  first write.  Executions coincide, so gaps between consecutive
  accesses are equivalence classes — the *same boundaries* as the
  transient model.
* **Write-terminated gaps and the tail are dead.**  If the terminating
  access is a write, it clears the fault before any read observes the
  forced value; past the last access nothing observes it either.  Both
  are known "No Effect" a priori.
* **Read-terminated gaps are live** with the representative injection
  right before the activating read (``injection_slot = last_slot``),
  one experiment per (bit position, forced value) pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.tracing import MemoryTrace
from .defuse import CellInterval, IntervalPartition, trace_intervals, unchecked
from .model import CellSpace, FaultSpace

#: Experiments per byte and class: 8 bit positions × 2 forced values.
STUCK_BITS = 16


@dataclass(frozen=True, order=True, slots=True)
class StuckAtCoordinate:
    """One stuck-at fault: force a bit of byte ``addr`` from ``slot``.

    ``bit`` packs the experiment index: ``bit & 7`` is the bit
    position, ``bit >> 3`` the forced value (0 or 1).
    """

    slot: int
    addr: int
    bit: int

    def __post_init__(self) -> None:
        if self.slot < 1:
            raise ValueError(f"slot must be >= 1, got {self.slot}")
        if self.addr < 0:
            raise ValueError(f"addr must be >= 0, got {self.addr}")
        if not 0 <= self.bit < STUCK_BITS:
            raise ValueError(f"bit must be in 0..15, got {self.bit}")

    @property
    def bitpos(self) -> int:
        """Bit position within the byte (0 = LSB)."""
        return self.bit & 7

    @property
    def value(self) -> int:
        """The forced value (0 or 1)."""
        return self.bit >> 3


@dataclass(frozen=True)
class StuckAtFaultSpace(CellSpace):
    """``Δt × Δm_bytes × 16`` stuck-at coordinates, row-major over
    (slot, addr, bit)."""

    ram_bytes: int

    units = STUCK_BITS
    point = StuckAtCoordinate
    cell = FaultSpace.cell
    cells = FaultSpace.cells
    #: Coordinates per injection slot.
    byte_units = CellSpace.slot_bits


@dataclass(frozen=True, slots=True)
class StuckAtInterval(CellInterval):
    """One equivalence class covering all 16 experiments of one byte."""

    addr: int
    first_slot: int
    last_slot: int
    kind: str

    space = StuckAtFaultSpace


class StuckAtPartition(IntervalPartition):
    """Def/use partition of the stuck-at fault space."""

    @classmethod
    def from_trace(cls, trace: MemoryTrace,
                   fault_space: StuckAtFaultSpace) -> "StuckAtPartition":
        return cls(fault_space=fault_space, intervals=trace_intervals(
            trace, fault_space, unchecked(StuckAtInterval)))
