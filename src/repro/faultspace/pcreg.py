"""Program-counter fault space: single bit flips in the PC register.

Section VI-B's list of generalization targets explicitly includes the
microarchitectural state; the program counter is its most consequential
register.  A coordinate ``(slot, bit)`` denotes "bit ``bit`` of the PC
flips right before the ``slot``-th instruction is fetched", so the
space is ``Δt × 32``.

Equivalence-class pruning here is *static*, not def/use-based: the PC
is read and written every cycle, so lifetime intervals degenerate to
single slots.  What can be pruned is the per-slot *target* structure.
With golden pc ``p`` at slot ``t``, flipping bit ``b`` redirects the
fetch to ``q = p ^ (1 << b)``:

* ``q < rom_len`` — execution continues at a real instruction; every
  such bit is its own **singleton class** (different targets generally
  behave differently, no grouping is sound);
* ``q == rom_len`` — the machine's implicit clean-halt address; also a
  singleton;
* ``q > rom_len`` — the fetch traps (``IllegalPC``) *immediately*, with
  the machine state otherwise identical across all such bits at this
  slot.  The trap record (outcome, end cycle, trap name, output) cannot
  depend on which illegal bit was flipped, so **all illegal bits of one
  slot form a single grouped class** with one representative
  experiment, weighted by the group size (Pitfall 1's weighting
  requirement).

Class weights per slot therefore sum to 32 and the partition total to
``Δt × 32`` — the same accounting invariant as the def/use domains.

The PC domain is a *control-hazard* domain: a flipped PC can transfer
control anywhere in the ROM, so section fingerprints must cover the
whole ROM (``FaultDomain.control_hazard`` forces the escape digest).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .defuse import LIVE
from .model import CellSpace

#: Bits of the program counter.
PC_BITS = 32

#: Spatial-axis sentinel of the per-slot grouped illegal-target class.
#: Real singleton classes use their bit index (0..31) as the axis.
ILLEGAL_AXIS = PC_BITS


@dataclass(frozen=True, order=True, slots=True)
class PCFaultCoordinate:
    """Flip ``bit`` of the PC right before the ``slot``-th fetch."""

    slot: int
    bit: int

    def __post_init__(self) -> None:
        if self.slot < 1:
            raise ValueError(f"slot must be >= 1, got {self.slot}")
        if not 0 <= self.bit < PC_BITS:
            raise ValueError(f"bit must be in 0..31, got {self.bit}")


@dataclass(frozen=True)
class PCFaultSpace(CellSpace):
    """``Δt × 32`` PC-bit coordinates: one cell, row-major over (slot,
    bit)."""

    cells = range(1)
    units = PC_BITS

    @staticmethod
    def point(slot: int, cell: int, bit: int) -> PCFaultCoordinate:
        return PCFaultCoordinate(slot=slot, bit=bit)

    @staticmethod
    def cell(coord: PCFaultCoordinate) -> int:
        return 0


@dataclass(frozen=True, slots=True)
class PCInterval:
    """One per-slot PC equivalence class.

    ``axis`` is the class's spatial-axis index: the bit itself for
    singleton classes, :data:`ILLEGAL_AXIS` for the grouped
    illegal-target class.  ``members`` lists the bits the class covers
    (one for singletons); its first entry is the representative.
    """

    slot: int
    axis: int
    members: tuple[int, ...]
    kind: str = LIVE

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("PC class needs at least one member bit")

    @property
    def first_slot(self) -> int:
        return self.slot

    @property
    def last_slot(self) -> int:
        return self.slot

    @property
    def injection_slot(self) -> int:
        return self.slot

    @property
    def length(self) -> int:
        return 1

    @property
    def weight_bits(self) -> int:
        return len(self.members)

    def covers(self, slot: int) -> bool:
        return slot == self.slot

    def experiments(self) -> list[PCFaultCoordinate]:
        """The single representative coordinate of this class."""
        return [PCFaultCoordinate(slot=self.slot, bit=self.members[0])]


@dataclass
class PCPartition:
    """Static per-slot partition of the PC fault space."""

    fault_space: PCFaultSpace
    #: ``slots[t]`` lists slot ``t``'s classes, singletons first
    #: (ascending bit), the grouped illegal class last.
    slots: dict[int, list[PCInterval]] = field(default_factory=dict)

    @classmethod
    def from_pc_trace(cls, rom_len: int,
                      pc_trace: list[int]) -> "PCPartition":
        """Build the partition from the golden run's executed-pc list.

        ``pc_trace[t]`` is the ROM index fetched at slot ``t + 1``;
        targets ``<= rom_len`` stay in bounds (``== rom_len`` is the
        implicit clean halt), larger ones trap identically.
        """
        total = len(pc_trace)
        if total < 1:
            raise ValueError("empty pc trace")
        if rom_len < 1:
            raise ValueError("empty ROM")
        partition = cls(fault_space=PCFaultSpace(cycles=total))
        # The legal/illegal split depends only on the golden pc value,
        # so memoize per distinct pc (programs revisit few pcs).
        split_cache: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        for index, pc in enumerate(pc_trace):
            slot = index + 1
            cached = split_cache.get(pc)
            if cached is None:
                legal = tuple(b for b in range(PC_BITS)
                              if pc ^ (1 << b) <= rom_len)
                illegal = tuple(b for b in range(PC_BITS)
                                if pc ^ (1 << b) > rom_len)
                cached = split_cache[pc] = (legal, illegal)
            legal, illegal = cached
            classes = [PCInterval(slot=slot, axis=b, members=(b,))
                       for b in legal]
            if illegal:
                classes.append(PCInterval(
                    slot=slot, axis=ILLEGAL_AXIS, members=illegal))
            partition.slots[slot] = classes
        return partition

    def live_classes(self) -> tuple[PCInterval, ...]:
        """All classes (every PC class needs an experiment).

        Sorted once per partition (it is not changed once built):
        every call returns the same tuple.
        """
        return self._live

    @cached_property
    def _live(self) -> tuple[PCInterval, ...]:
        live = [iv for ivs in self.slots.values() for iv in ivs]
        live.sort(key=lambda iv: (iv.injection_slot, iv.axis))
        return tuple(live)

    def dead_classes(self) -> list[PCInterval]:
        """No PC fault is a-priori benign — a flipped PC always acts."""
        return []

    def locate(self, coord: PCFaultCoordinate) -> PCInterval:
        if not self.fault_space.contains(coord):
            raise IndexError(f"{coord} outside fault space")
        for interval in self.slots[coord.slot]:
            if coord.bit in interval.members:
                return interval
        raise AssertionError(
            f"partition hole at {coord}")  # pragma: no cover

    @property
    def experiment_count(self) -> int:
        """One experiment per class."""
        return sum(len(ivs) for ivs in self.slots.values())

    @property
    def live_weight(self) -> int:
        return self.total_weight

    #: No PC fault is known a priori to be benign (:meth:`dead_classes`).
    known_no_effect_weight = 0

    @property
    def total_weight(self) -> int:
        return sum(iv.weight_bits for ivs in self.slots.values()
                   for iv in ivs)

    def validate(self) -> None:
        total = self.fault_space.cycles
        assert set(self.slots) == set(range(1, total + 1))
        for slot, intervals in self.slots.items():
            members = sorted(b for iv in intervals for b in iv.members)
            assert members == list(range(PC_BITS)), (slot, members)
        assert self.total_weight == self.fault_space.size

    def reduction_factor(self) -> float:
        experiments = self.experiment_count
        if experiments == 0:
            return float("inf")
        return self.fault_space.size / experiments
