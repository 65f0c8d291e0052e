"""Work leases: who may execute which shard.

The coordinator never *sends* work, it *leases* it: a shard grant names
the worker that holds it until the worker finishes it or hangs up.  No
clock is involved.  A worker is a fork of the campaign's own process on
a socket pair, and every experiment it runs is bounded by its cycle
budget, so the one way a lease ends early is its worker's end — a
crash, a kill, a protocol break — which the coordinator sees as the
hang-up of its socket.

Failure handling is explicit state, not exceptions:

* A lease whose worker **hung up**, or which came back with keys still
  undelivered (rejected units), releases its shard back to the pending
  pool at once, charged one attempt.
* A shard whose attempts exceed :attr:`LeaseBoard.max_retries` is
  marked **failed** — lost to this run; its remaining units surface
  in ``ExecutionReport.missing`` instead of failing the campaign.  That
  budget is what stops a unit whose execution kills every worker.
* Results are accepted from *any* lease, current or released: work is
  work (experiments are deterministic), and :meth:`LeaseBoard.progress`
  — the fabric's one duplicate filter: it takes a key once and answers
  ``False`` for every later copy — turns at-least-once delivery into
  exactly-once accounting.

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
class ShardLease:
    """One grant of a shard to a worker."""

    lease_id: int
    shard: int
    worker: str
    #: The keys still unfinished at grant time, in execution order.
    keys: tuple[Key, ...]


@dataclass
class _Shard:
    index: int
    #: Keys not yet accounted, in execution order.
    remaining: list[Key]
    attempts: int = 0
    status: str = PENDING
    lease: ShardLease | None = None


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
    _next_lease_id: int = 0

    def add_shard(self, index: int, keys: list[Key]) -> None:
        """Append shard ``index`` (the next in plan order) of ``keys``,
        in execution order."""
        self._shards.append(_Shard(index=index, remaining=list(keys)))

    # -- queries ---------------------------------------------------------------

    def shards(self) -> list[_Shard]:
        return list(self._shards)

    def done(self) -> bool:
        """True when no shard can ever produce more work."""
        return all(s.status in TERMINAL for s in self._shards)

    # -- transitions -----------------------------------------------------------

    def acquire(self, worker: str) -> ShardLease | None:
        """Grant the first pending shard to ``worker``; ``None`` when no
        shard is pending."""
        for shard in self._shards:
            if shard.status == PENDING:
                self._next_lease_id += 1
                lease = ShardLease(
                    lease_id=self._next_lease_id, shard=shard.index,
                    worker=worker, keys=tuple(shard.remaining))
                shard.status = LEASED
                shard.lease = lease
                return lease
        return None

    def progress(self, shard_index: int, key: Key) -> bool:
        """Account one submitted unit; False for a duplicate.

        Accepts the key whether or not the submitting lease is still
        current.
        """
        shard = self._shards[shard_index]
        try:
            shard.remaining.remove(key)
        except ValueError:
            return False
        if not shard.remaining and shard.status in (PENDING, LEASED):
            shard.status = DONE
            shard.lease = None
        return True

    def finish(self, shard_index: int, lease_id: int) -> None:
        """A worker claims its lease is exhausted.

        Normally every key was already accounted and the shard is done;
        a ``lease_done`` with keys still remaining means units were
        rejected — a failed attempt, so the remainder is re-leased.
        """
        shard = self._shards[shard_index]
        lease = shard.lease
        if lease is None or lease.lease_id != lease_id:
            return  # stale claim from a released lease; nothing to do
        if shard.remaining:
            self._charge(shard)
        else:
            shard.status = DONE
            shard.lease = None

    def release_worker(self, worker: str) -> None:
        """A worker hung up; re-queue its active lease."""
        for shard in self._shards:
            if shard.status == LEASED and shard.lease.worker == worker:
                self._charge(shard)

    def abandon(self) -> None:
        """No worker will ever come back: fail every unfinished shard."""
        for shard in self._shards:
            if shard.status not in TERMINAL:
                shard.status = FAILED
                shard.lease = None
                self.failed_shards += 1

    def _charge(self, shard: _Shard) -> None:
        shard.lease = None
        shard.attempts += 1
        if shard.attempts > self.max_retries:
            shard.status = FAILED
            self.failed_shards += 1
        else:
            shard.status = PENDING
            self.retries += 1
