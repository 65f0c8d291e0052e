"""Memory-access tracing for golden runs.

The def/use fault-space pruning of Section III-C needs, for every RAM
byte, the ordered list of read/write accesses with their cycle stamps.
:class:`MemoryTrace` records exactly that while a golden run executes.

Time is measured in *injection slots*: slot ``t`` (1-based) denotes the
point in time immediately before the ``t``-th executed instruction.  An
access performed by the ``t``-th instruction is stamped with slot ``t``;
a fault injected at slot ``t`` is visible to that access.  Machine reset
(loading the data image and zero-filling RAM) counts as a *def at slot 0*
of every byte, mirroring the paper's treatment of program load.
"""

from __future__ import annotations

from dataclasses import dataclass, field


#: Event kinds recorded per byte.
READ = 0
WRITE = 1


@dataclass(frozen=True, slots=True)
class AccessEvent:
    """One access: ``slot`` when it happened, and its kind.

    Immutable, so the bytes of one multi-byte access share one event.
    """

    slot: int
    kind: int  # READ or WRITE

    @property
    def is_read(self) -> bool:
        return self.kind == READ

    @property
    def is_write(self) -> bool:
        return self.kind == WRITE


@dataclass
class MemoryTrace:
    """Per-byte access log of one deterministic benchmark run.

    ``events[addr]`` is the chronologically ordered list of accesses to
    byte ``addr``.  ``total_slots`` is set when the run finishes and
    equals the benchmark's runtime Δt in cycles.  ``writes`` counts the
    stores recorded so far: the golden run re-hashes RAM for its
    checkpoint ladder only when it moved, so a store that escaped the
    trace would stale the ladder as surely as the def/use classes.
    """

    events: dict[int, list[AccessEvent]] = field(default_factory=dict)
    total_slots: int = 0
    writes: int = 0

    def record(self, slot: int, addr: int, width: int, kind: int) -> None:
        """Record an access of ``width`` bytes starting at ``addr``
        (one event, listed under each byte)."""
        if kind == WRITE:
            self.writes += 1
        event = AccessEvent(slot, kind)
        events = self.events
        for byte in range(addr, addr + width):
            byte_events = events.get(byte)
            if byte_events is None:
                events[byte] = [event]
            else:
                byte_events.append(event)

    def finish(self, total_slots: int) -> None:
        self.total_slots = total_slots

    def accesses(self, addr: int) -> list[AccessEvent]:
        """All accesses to byte ``addr`` (empty list if never touched)."""
        return self.events.get(addr, [])

    @property
    def touched_bytes(self) -> int:
        """Number of distinct RAM bytes the run accessed."""
        return len(self.events)

    @property
    def access_count(self) -> int:
        """Total number of byte-level access events."""
        return sum(len(ev) for ev in self.events.values())
