"""Multi-bit upset fault space: adjacent bit bursts within one byte.

Single-event upsets in dense memories increasingly flip *several
adjacent* cells at once (the DAVOS fault dictionary models these as
burst faults).  This module extends the paper's ``Δt × Δm`` grid to
bursts of ``width`` adjacent bits confined to one byte: a coordinate
``(slot, addr, start)`` denotes "bits ``start .. start+width-1`` of RAM
byte ``addr`` all flip right before the ``slot``-th instruction".  A
byte has ``9 - width`` start positions, so the space size is
``Δt × Δm_bytes × (9 - width)``.

Def/use pruning carries over *unchanged in structure* from the
single-bit model, which is exactly why it is sound here:

* the machine reads and writes whole bytes (multi-byte accesses touch
  every covered byte), so a burst confined to one byte is first
  *activated* by the next read of that byte and completely *killed* by
  the next write of that byte — the same events that delimit the
  single-bit intervals;
* therefore the interval boundaries of :class:`BurstPartition` are
  identical to :class:`~repro.faultspace.defuse.DefUsePartition`'s, and
  only the per-slot weight changes from 8 to ``9 - width`` start
  positions.

Burst coordinates reuse :class:`~repro.faultspace.model.FaultCoordinate`
with ``bit`` holding the start position (``0 .. 8-width``, always a
valid bit index), so injection, journaling and CSV export need no new
coordinate type.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..isa.tracing import MemoryTrace
from .defuse import CellInterval, IntervalPartition, trace_intervals, unchecked
from .model import CellSpace, FaultCoordinate, FaultSpace


def burst_positions(width: int) -> int:
    """Start positions of a ``width``-bit burst within one byte."""
    if not 2 <= width <= 8:
        raise ValueError(f"burst width must be in 2..8, got {width}")
    return 9 - width


@dataclass(frozen=True)
class BurstFaultSpace(CellSpace):
    """``Δt × Δm_bytes × (9 - width)`` burst-start coordinates.

    Row-major over (slot, addr, start), like
    :class:`~repro.faultspace.model.FaultSpace`, so uniform flat draws
    stay uniform over burst coordinates (Pitfall 2).
    """

    ram_bytes: int
    width: int

    point = FaultCoordinate
    cell = FaultSpace.cell
    cells = FaultSpace.cells

    def __post_init__(self) -> None:
        super().__post_init__()
        burst_positions(self.width)  # validates width

    @property
    def positions(self) -> int:
        """Burst start positions per byte."""
        return burst_positions(self.width)

    units = positions
    #: Coordinates per injection slot (bytes × start positions).
    byte_units = CellSpace.slot_bits


@dataclass(frozen=True, slots=True)
class BurstInterval(CellInterval):
    """One def/use class covering every burst start of one byte."""

    addr: int
    first_slot: int
    last_slot: int
    kind: str
    width: int

    space = BurstFaultSpace
    positions = BurstFaultSpace.positions
    units = positions


class BurstPartition(IntervalPartition):
    """Def/use partition of the burst fault space.

    Interval boundaries match the single-bit partition exactly (see the
    module docstring for the soundness argument); only the per-slot
    weight differs.
    """

    @classmethod
    def from_trace(cls, trace: MemoryTrace,
                   fault_space: BurstFaultSpace) -> "BurstPartition":
        return cls(fault_space=fault_space, intervals=trace_intervals(
            trace, fault_space,
            partial(unchecked(BurstInterval), width=fault_space.width)))
