"""The fault-space model: CPU cycles × memory bits.

Following Section III-A of the paper, the fault space of one benchmark
run is the discrete grid ``Δt × Δm``: every (injection slot, memory bit)
coordinate denotes the event "this RAM bit flips right before the t-th
instruction executes".  Its size ``w = Δt · Δm`` parametrizes both the
Poisson fault-occurrence model and the extrapolation of sampled results.

Every other cell fault model (bursts, stuck-at bits, registers, the PC)
spans the same grid with other cells and units: :class:`CellSpace` is
that grid, written once, and :class:`FaultSpace` its memory-bit case.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter


@dataclass(frozen=True, order=True, slots=True)
class FaultCoordinate:
    """One point of the fault space.

    ``slot``
        1-based injection slot: the fault becomes visible to the
        ``slot``-th executed instruction (inject after ``slot - 1``
        instructions have run).
    ``addr`` / ``bit``
        Byte address in RAM and bit index (0 = LSB) to flip.
    """

    slot: int
    addr: int
    bit: int

    def __post_init__(self) -> None:
        if self.slot < 1:
            raise ValueError(f"slot must be >= 1, got {self.slot}")
        if self.addr < 0:
            raise ValueError(f"addr must be >= 0, got {self.addr}")
        if not 0 <= self.bit < 8:
            raise ValueError(f"bit must be in 0..7, got {self.bit}")

    @property
    def bit_index(self) -> int:
        """Absolute bit position on the memory axis (addr*8 + bit)."""
        return self.addr * 8 + self.bit


@dataclass(frozen=True)
class CellSpace:
    """``Δt × cells × units``, row-major over (slot, cell, unit).

    Every cell fault model spans this grid: a cell is a RAM byte or a
    register (the PC is one cell), a unit one coordinate of a cell at
    one slot.  A model's space is a frozen dataclass on this base that
    declares its fields (``cycles`` first) and states at class level

    ``cells``
        the cell range (a property where a field sizes it);
    ``units``
        coordinates per cell and slot;
    ``point``
        ``point(slot, cell, unit)`` builds a coordinate — the
        coordinate class itself where its fields are in that order;
    ``cell``
        reads the cell off a coordinate, or off a def/use class, which
        names it the same way.

    Samplers draw uniform flat indices and convert them with
    :meth:`coordinate`, which guarantees the raw-space uniformity that
    Pitfall 2 demands in every domain.
    """

    cycles: int

    def __post_init__(self) -> None:
        if self.cycles < 1:
            raise ValueError("fault space needs at least one cycle")
        if not self.cells:  # only a RAM footprint can be empty
            raise ValueError("fault space needs at least one RAM byte")

    @property
    def slot_bits(self) -> int:
        """Fault-space coordinates per injection slot (cells × units)."""
        return len(self.cells) * self.units

    @property
    def size(self) -> int:
        """w — the number of fault-space coordinates."""
        return self.cycles * self.slot_bits

    def contains(self, coord) -> bool:
        return (1 <= coord.slot <= self.cycles
                and self.cell(coord) in self.cells
                and 0 <= coord.bit < self.units)

    def coordinate(self, index: int):
        """Map a flat index in ``[0, size)`` to a coordinate."""
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} outside fault space")
        slot, rest = divmod(index, self.slot_bits)
        cell, unit = divmod(rest, self.units)
        return self.point(slot + 1, self.cells[cell], unit)

    def index(self, coord) -> int:
        """Inverse of :meth:`coordinate`."""
        if not self.contains(coord):
            raise IndexError(f"{coord} outside fault space")
        return ((coord.slot - 1) * self.slot_bits
                + self.cells.index(self.cell(coord)) * self.units
                + coord.bit)

    def iter_coordinates(self):
        """Iterate over every coordinate (only sensible for tiny spaces)."""
        return map(self.coordinate, range(self.size))


@dataclass(frozen=True)
class FaultSpace(CellSpace):
    """The full fault space of one deterministic benchmark run.

    ``cycles``
        Benchmark runtime Δt in CPU cycles (= number of injection slots).
    ``ram_bytes``
        Benchmark memory usage Δm in bytes (the program's declared RAM
        footprint; the memory axis spans all its bits).
    """

    ram_bytes: int

    units = 8
    point = FaultCoordinate
    cell = attrgetter("addr")

    @property
    def cells(self) -> range:
        return range(self.ram_bytes)

    #: Δm in bits; w = Δt · Δm.
    memory_bits = CellSpace.slot_bits
