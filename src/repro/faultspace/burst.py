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

from dataclasses import dataclass, field
from functools import partial

from ..isa.tracing import MemoryTrace
from .defuse import DEAD, LIVE, IntervalPartition, trace_intervals
from .model import FaultCoordinate


def burst_positions(width: int) -> int:
    """Start positions of a ``width``-bit burst within one byte."""
    if not 2 <= width <= 8:
        raise ValueError(f"burst width must be in 2..8, got {width}")
    return 9 - width


@dataclass(frozen=True)
class BurstFaultSpace:
    """``Δt × Δm_bytes × (9 - width)`` burst-start coordinates."""

    cycles: int
    ram_bytes: int
    width: int

    def __post_init__(self) -> None:
        if self.cycles < 1:
            raise ValueError("fault space needs at least one cycle")
        if self.ram_bytes < 1:
            raise ValueError("fault space needs at least one RAM byte")
        burst_positions(self.width)  # validates width

    @property
    def positions(self) -> int:
        """Burst start positions per byte."""
        return burst_positions(self.width)

    @property
    def byte_units(self) -> int:
        """Coordinates per injection slot (bytes × start positions)."""
        return self.ram_bytes * self.positions

    @property
    def size(self) -> int:
        return self.cycles * self.byte_units

    def contains(self, coord: FaultCoordinate) -> bool:
        return (1 <= coord.slot <= self.cycles
                and 0 <= coord.addr < self.ram_bytes
                and 0 <= coord.bit < self.positions)

    def coordinate(self, index: int) -> FaultCoordinate:
        """Map a flat index in ``[0, size)`` to a burst coordinate.

        Row-major over (slot, addr, start), mirroring
        :meth:`repro.faultspace.model.FaultSpace.coordinate` so uniform
        flat draws stay uniform over burst coordinates (Pitfall 2).
        """
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} outside fault space")
        slot, rest = divmod(index, self.byte_units)
        addr, start = divmod(rest, self.positions)
        return FaultCoordinate(slot=slot + 1, addr=addr, bit=start)

    def index(self, coord: FaultCoordinate) -> int:
        """Inverse of :meth:`coordinate`."""
        if not self.contains(coord):
            raise IndexError(f"{coord} outside fault space")
        return ((coord.slot - 1) * self.byte_units
                + coord.addr * self.positions + coord.bit)

    def iter_coordinates(self):
        for slot in range(1, self.cycles + 1):
            for addr in range(self.ram_bytes):
                for start in range(self.positions):
                    yield FaultCoordinate(slot=slot, addr=addr, bit=start)


@dataclass(frozen=True)
class BurstInterval:
    """One def/use class covering every burst start of one byte."""

    addr: int
    first_slot: int
    last_slot: int
    kind: str
    width: int

    def __post_init__(self) -> None:
        if self.first_slot > self.last_slot:
            raise ValueError(
                f"empty interval [{self.first_slot}, {self.last_slot}]")
        if self.kind not in (LIVE, DEAD):
            raise ValueError(f"bad kind {self.kind!r}")

    @property
    def positions(self) -> int:
        return burst_positions(self.width)

    @property
    def length(self) -> int:
        return self.last_slot - self.first_slot + 1

    @property
    def weight_bits(self) -> int:
        """Total burst coordinates covered (all start positions)."""
        return self.length * self.positions

    @property
    def injection_slot(self) -> int:
        return self.last_slot

    def covers(self, slot: int) -> bool:
        return self.first_slot <= slot <= self.last_slot

    def experiments(self) -> list[FaultCoordinate]:
        """Representative coordinates, one per burst start position."""
        if self.kind != LIVE:
            raise ValueError("dead classes need no experiments")
        return [FaultCoordinate(slot=self.last_slot, addr=self.addr, bit=s)
                for s in range(self.positions)]


@dataclass
class BurstPartition(IntervalPartition):
    """Def/use partition of the burst fault space.

    Interval boundaries match the single-bit partition exactly (see the
    module docstring for the soundness argument); only the per-slot
    weight differs.
    """

    fault_space: BurstFaultSpace
    intervals: dict[int, list[BurstInterval]] = field(default_factory=dict)

    @classmethod
    def from_trace(cls, trace: MemoryTrace,
                   fault_space: BurstFaultSpace) -> "BurstPartition":
        return cls(fault_space=fault_space, intervals=trace_intervals(
            trace, fault_space,
            partial(BurstInterval, width=fault_space.width)))

    @property
    def units(self) -> int:
        return self.fault_space.positions
