"""Work leases: who may execute which shard.

The coordinator never *sends* work, it *leases* it: a worker's
``request`` is answered by a grant of one shard, which that worker
holds until its next ``request`` or its hang-up — whichever comes
first.  A worker holds at most one shard, so the connection that sends
a unit names its shard; nothing on the wire does.  No clock is
involved.  A worker is a fork of the campaign's own process on a
socket pair, and every experiment it runs is bounded by its cycle
budget, so a lease ends early only at its worker's end — a crash, a
kill, a protocol break — which the coordinator sees as the hang-up of
its socket.

Failure handling is explicit state, not exceptions:

* A lease that ends (:meth:`LeaseBoard.release`) with keys still
  undelivered — its worker hung up, or asked again after units of it
  were rejected — returns its shard to the pending pool at once,
  charged one attempt.
* A shard whose attempts exceed :attr:`LeaseBoard.max_retries` is
  marked **failed** — lost to this run; its remaining units surface
  in ``ExecutionReport.missing`` instead of failing the campaign.  That
  budget is what stops a unit whose execution kills every worker.
* :meth:`LeaseBoard.progress` — the fabric's one duplicate filter —
  takes a key off the sender's shard once and answers ``False`` for
  every later copy, one that arrives after the shard is done included:
  at-least-once delivery becomes exactly-once accounting.

The board is the fabric's only bookkeeping, and nothing of it is
journaled: a rerun on the same journal retries the lost keys, every
shard with a fresh budget.  It is plain single-threaded state driven
by the coordinator's serving loop, and does no I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: A unit's identity: a tuple of integers (a live class's ``(axis,
#: first_slot)``, ...) — the journal key.
Key = tuple[int, ...]

PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"

#: Statuses from which a shard can never produce more work.
TERMINAL = (DONE, FAILED)


@dataclass
class _Shard:
    #: Keys not yet accounted, in execution order.
    remaining: list[Key]
    attempts: int = 0
    status: str = PENDING


@dataclass
class LeaseBoard:
    """Single-writer lease state machine over one shard plan."""

    #: Re-grants allowed per shard after a failed attempt.
    max_retries: int
    #: Re-queues after a failed attempt (for the report).
    retries: int = 0
    #: Shards abandoned after exhausting the retry budget.
    failed_shards: int = 0
    _shards: list[_Shard] = field(default_factory=list)
    #: The shard each worker holds, by worker name, until its next
    #: request or its hang-up (done by then or not).
    _held: dict[str, _Shard] = field(default_factory=dict)

    def add_shard(self, keys: list[Key]) -> None:
        """Append the next shard in plan order, of ``keys`` in
        execution order."""
        self._shards.append(_Shard(remaining=list(keys)))

    # -- queries ---------------------------------------------------------------

    def shards(self) -> list[_Shard]:
        return list(self._shards)

    def done(self) -> bool:
        """True when no shard can ever produce more work."""
        return all(s.status in TERMINAL for s in self._shards)

    def holds(self, worker: str) -> bool:
        """True while ``worker`` holds a lease."""
        return worker in self._held

    # -- transitions -----------------------------------------------------------

    def acquire(self, worker: str) -> tuple[Key, ...] | None:
        """Grant the first pending shard to ``worker``, which holds no
        lease: the keys to lease, in execution order; ``None`` when no
        shard is pending."""
        for shard in self._shards:
            if shard.status == PENDING:
                shard.status = LEASED
                self._held[worker] = shard
                return tuple(shard.remaining)
        return None

    def progress(self, worker: str, key: Key) -> bool:
        """Account one unit ``worker`` submitted against the shard it
        holds; False for a copy (or a key of another shard)."""
        shard = self._held[worker]
        try:
            shard.remaining.remove(key)
        except ValueError:
            return False
        if not shard.remaining and shard.status == LEASED:
            shard.status = DONE
        return True

    def release(self, worker: str) -> None:
        """``worker`` asked again or hung up: its lease, if any, ends.
        Keys it left undelivered are a failed attempt."""
        shard = self._held.pop(worker, None)
        if shard is not None and shard.status == LEASED:
            self._charge(shard)

    def abandon(self) -> None:
        """No worker will ever come back: fail every unfinished shard."""
        for shard in self._shards:
            if shard.status not in TERMINAL:
                shard.status = FAILED
                self.failed_shards += 1

    def _charge(self, shard: _Shard) -> None:
        shard.attempts += 1
        if shard.attempts > self.max_retries:
            shard.status = FAILED
            self.failed_shards += 1
        else:
            shard.status = PENDING
            self.retries += 1
