"""Def/use fault-space pruning (Section III-C of the paper).

The pruning partitions each memory bit's timeline into *equivalence
classes*:

* an interval between a write/read and the *next read* of the same byte
  is **live**: any fault in it is first activated by that read, so one
  experiment (injected right before the read) stands for the whole
  interval;
* an interval ending in a write (the fault is overwritten), the tail
  after the last access (the fault is never read again), and the entire
  timeline of never-read bytes are **dead**: the outcome is known to be
  "No Effect" a priori, no experiment needed.

Machine reset counts as a def (at slot 0) of every RAM byte, so the
intervals of each byte exactly partition the timeline ``[1, Δt]`` and the
class weights sum to the fault-space size ``w`` — the invariant behind
Pitfall 1's weighting requirement.

Because one instruction accesses whole bytes, intervals are computed per
byte and stand for eight per-bit classes each; live classes still need
one experiment *per bit* (different bits of the same word can mask
differently), while weights simply multiply by eight.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, fields
from functools import cache, cached_property
from operator import attrgetter

from ..isa.tracing import READ, WRITE, MemoryTrace
from .model import CellSpace, FaultSpace

#: Class kinds.
LIVE = "live"
DEAD = "dead"

#: The class an access ends: a read activates the fault, a write
#: overwrites it.
_ENDS = {READ: LIVE, WRITE: DEAD}

_LAST_SLOT = attrgetter("last_slot")

#: :func:`trace_intervals`' message for a bad access, unless a
#: partition names its own.
_BAD_EVENT = "bad trace event for byte {addr} at {slot}"


def trace_intervals(trace: MemoryTrace, fault_space, interval, *,
                    beyond: str = _BAD_EVENT,
                    disorder: str = _BAD_EVENT) -> dict[int, list]:
    """``cell → intervals``: the per-cell def/use walk that every
    def/use partition is built from.

    ``trace.accesses(cell)`` lists each cell of ``fault_space.cells`` in
    order (a register trace lists registers under their numbers).
    ``interval(cell, first_slot, last_slot, kind)`` builds one class;
    the walk proves every class non-empty and of a known kind, so it
    may skip the checks (:func:`unchecked`).
    ``beyond`` / ``disorder`` are the ``ValueError`` messages
    (``str.format`` over ``addr``, the cell, and ``slot``) for an
    access past the run's end and one out of order.
    """
    if trace.total_slots != fault_space.cycles:
        raise ValueError(
            f"trace covers {trace.total_slots} slots but fault space "
            f"has {fault_space.cycles} cycles")
    total = fault_space.cycles
    intervals: dict[int, list] = {}
    for cell in fault_space.cells:
        cell_intervals = intervals[cell] = []
        prev_slot = 0  # machine reset defines every cell at slot 0
        for event in trace.accesses(cell):
            slot = event.slot
            if slot > total:
                raise ValueError(beyond.format(addr=cell, slot=slot))
            if slot <= prev_slot:
                raise ValueError(disorder.format(addr=cell, slot=slot))
            cell_intervals.append(
                interval(cell, prev_slot + 1, slot, _ENDS[event.kind]))
            prev_slot = slot
        if prev_slot < total:
            cell_intervals.append(interval(cell, prev_slot + 1, total, DEAD))
    return intervals


@dataclass
class IntervalPartition:
    """What every def/use partition answers the same way.

    ``fault_space`` is the model's :class:`~.model.CellSpace`;
    ``intervals[axis]`` lists the axis's classes in chronological order,
    exactly covering ``[1, fault_space.cycles]``.
    """

    fault_space: CellSpace
    intervals: dict[int, list] = field(default_factory=dict)

    #: :meth:`validate`'s messages (``str.format`` over ``axis``,
    #: ``interval``, ``expected`` = ``last + 1`` and ``cycles``).
    gap = "({axis}, {interval})"
    end = "({axis}, {expected})"

    @property
    def units(self) -> int:
        """Experiments per live class, which are also a class's
        coordinates per slot."""
        return self.fault_space.units

    @property
    def axis(self):
        """The axis (``intervals`` key) of a class or a coordinate."""
        return self.fault_space.cell

    def byte_intervals(self, addr: int) -> list:
        return self.intervals.get(addr, [])

    def live_classes(self) -> tuple:
        """All live classes, ordered by injection slot (then axis).

        Sorted once per partition (it is not changed once built):
        every call returns the same tuple.
        """
        return self._live

    @cached_property
    def _live(self) -> tuple:
        live = [iv for ivs in self.intervals.values() for iv in ivs
                if iv.kind == LIVE]
        # By axis, then stably by injection slot (a class's last slot):
        # two sorts on C-level keys.
        live.sort(key=self.axis)
        live.sort(key=_LAST_SLOT)
        return tuple(live)

    def dead_classes(self) -> list:
        return [iv for ivs in self.intervals.values() for iv in ivs
                if iv.kind == DEAD]

    def locate(self, coord):
        """Find the equivalence class containing a raw fault coordinate.

        This is the primitive that makes Pitfall-2-safe sampling cheap:
        a uniform sample from the raw space maps to the single class
        whose representative experiment provides its outcome.
        """
        if not self.fault_space.contains(coord):
            raise IndexError(f"{coord} outside fault space")
        axis = self.axis(coord)
        interval = self.intervals[axis][
            bisect_right(self._starts[axis], coord.slot) - 1]
        if not interval.covers(coord.slot):  # pragma: no cover
            raise AssertionError(f"partition hole at {coord}")
        return interval

    @cached_property
    def _starts(self) -> dict[int, list[int]]:
        """``axis → first slots``, what :meth:`locate` bisects."""
        return {axis: [iv.first_slot for iv in ivs]
                for axis, ivs in self.intervals.items()}

    # -- accounting -----------------------------------------------------------

    @property
    def experiment_count(self) -> int:
        """FI experiments needed for a full scan."""
        return self.units * sum(1 for ivs in self.intervals.values()
                                for iv in ivs if iv.kind == LIVE)

    @property
    def live_weight(self) -> int:
        """Fault-space coordinates covered by live classes."""
        return sum(iv.weight_bits for ivs in self.intervals.values()
                   for iv in ivs if iv.kind == LIVE)

    @cached_property
    def known_no_effect_weight(self) -> int:
        """Coordinates known a priori to be "No Effect" (dead classes),
        summed once per partition (it is not changed once built): every
        class weighs its length in :attr:`units` (:meth:`validate`)."""
        return self.units * sum(iv.length for ivs in self.intervals.values()
                                for iv in ivs if iv.kind == DEAD)

    @property
    def total_weight(self) -> int:
        """Must equal ``fault_space.size`` — checked by :meth:`validate`."""
        return sum(iv.weight_bits for ivs in self.intervals.values()
                   for iv in ivs)

    def validate(self) -> None:
        """Check the partition invariants in one pass; raises
        ``AssertionError``.

        * every axis's intervals exactly tile ``[1, Δt]``;
        * total weight equals the fault-space size ``w``.
        """
        cycles = self.fault_space.cycles
        slots = 0
        for axis, intervals in self.intervals.items():
            expected = 1
            for iv in intervals:
                assert iv.first_slot == expected, self.gap.format(
                    axis=axis, interval=iv)
                expected = iv.last_slot + 1
            assert expected == cycles + 1, self.end.format(
                axis=axis, expected=expected, last=expected - 1,
                cycles=cycles)
            slots += expected - 1  # the axis's interval lengths, summed
        assert slots * self.units == self.fault_space.size

    def reduction_factor(self) -> float:
        """How many raw coordinates each conducted experiment stands for."""
        experiments = self.experiment_count
        if experiments == 0:
            return float("inf")
        return self.fault_space.size / experiments


@cache
def unchecked(cls):
    """The constructor of slotted frozen dataclass ``cls`` without its
    ``__post_init__`` checks, for callers that have proved them.

    It sets each field through its slot descriptor, which the frozen
    class's ``__setattr__`` does not guard: about half the cost of the
    checked constructor, for an equal instance.
    """
    names = [f.name for f in fields(cls)]
    namespace = {"new": object.__new__, "cls": cls}
    namespace.update((f"set_{name}", getattr(cls, name).__set__)
                     for name in names)
    exec(f"def build({', '.join(names)}):\n"
         "    self = new(cls)\n"
         + "".join(f"    set_{name}(self, {name})\n" for name in names)
         + "    return self\n", namespace)
    return namespace["build"]


class CellInterval:
    """One cell over ``[first_slot, last_slot]``, live or dead, weighing
    ``length × units``, whose experiments are ``units`` coordinates at
    ``last_slot``: the def/use class every cell fault model shares.

    A model's class is a frozen, slotted dataclass on this base that
    declares its fields (the cell, named as in its coordinates, then
    ``first_slot``, ``last_slot`` and ``kind``) and its fault-space type
    ``space``, whose ``units``, ``point`` and ``cell`` it uses.  For
    live classes, ``last_slot`` is the slot of the activating read,
    which is also the representative injection slot.  A partition holds
    one per class (16 112 for ``chain-sumdmr`` × memory), hence slots.
    """

    __slots__ = ()

    def __post_init__(self) -> None:
        if self.first_slot > self.last_slot:
            raise ValueError(
                f"empty interval [{self.first_slot}, {self.last_slot}]")
        if self.kind not in (LIVE, DEAD):
            raise ValueError(f"bad kind {self.kind!r}")

    @property
    def units(self) -> int:
        """Coordinates per covered slot, one experiment each."""
        return self.space.units

    @property
    def length(self) -> int:
        """Data lifetime in cycles — the per-unit weight of this class."""
        return self.last_slot - self.first_slot + 1

    @property
    def weight_bits(self) -> int:
        """Total fault-space coordinates covered (all units)."""
        return self.length * self.units

    @property
    def injection_slot(self) -> int:
        """Representative injection slot (right before the read)."""
        return self.last_slot

    def covers(self, slot: int) -> bool:
        return self.first_slot <= slot <= self.last_slot

    def experiments(self) -> list:
        """The ``units`` representative coordinates (one per unit)."""
        if self.kind != LIVE:
            raise ValueError("dead classes need no experiments")
        point, cell = self.space.point, self.space.cell(self)
        return [point(self.last_slot, cell, unit)
                for unit in range(self.units)]


@dataclass(frozen=True, slots=True)
class ByteInterval(CellInterval):
    """One def/use equivalence class covering all 8 bits of one byte."""

    addr: int
    first_slot: int
    last_slot: int
    kind: str  # LIVE or DEAD

    space = FaultSpace


class DefUsePartition(IntervalPartition):
    """The complete def/use partitioning of a benchmark's fault space.

    ``intervals[addr]`` lists the byte's intervals in chronological
    order, exactly covering ``[1, fault_space.cycles]``.
    """

    gap = "byte {axis}: gap before slot {interval.first_slot}"
    end = "byte {axis}: intervals end at {last}, expected {cycles}"

    @classmethod
    def from_trace(cls, trace: MemoryTrace,
                   fault_space: FaultSpace) -> "DefUsePartition":
        """Build the partition from a golden-run memory trace."""
        return cls(fault_space=fault_space, intervals=trace_intervals(
            trace, fault_space, unchecked(ByteInterval),
            beyond="access at slot {slot} beyond run end",
            disorder="trace events for byte {addr} out of order"))
