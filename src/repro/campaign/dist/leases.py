"""Work leases: who may execute which shard, and for how long.

The coordinator never *sends* work, it *leases* it: a shard grant
carries a wall-clock deadline derived from the shard's remaining
estimated cycle cost (:meth:`RetryPolicy.deadline_for`).  Liveness is
measured by *progress*, not by heartbeats — every accepted unit result
refreshes the lease deadline against the now-smaller remaining cost, so
a worker that keeps finishing units keeps its lease indefinitely, while a
wedged worker — connected, silent — loses the lease the moment its
cost-derived deadline passes.

Failure handling is explicit state, not exceptions:

* An **expired** or **disconnected** lease releases its shard back to
  the pending pool, charged one attempt and embargoed for
  ``backoff * backoff_factor ** (attempts - 1)`` seconds of exponential
  backoff.
* A shard whose attempts exceed :attr:`RetryPolicy.max_retries` is
  marked **failed** — lost to this run; its remaining units surface
  in ``ExecutionReport.missing`` instead of hanging the campaign.
* Results are accepted from *any* lease, current or revoked: work is
  work (experiments are deterministic), and :meth:`LeaseBoard.progress`
  — the fabric's one duplicate filter: it takes a key once and answers
  ``False`` for every later copy — turns at-least-once delivery into
  exactly-once accounting.

That is the whole policy, for forked and thread workers alike: a worker
that dies, hangs or sends garbage costs its shard an attempt, nothing
more.  A unit whose execution kills every worker fails its shard after
``max_retries`` — the lost keys are named in the report, and a rerun on
the same journal retries them, every shard with a fresh budget: the
board is the fabric's only bookkeeping, and nothing of it is
journaled.

The board is plain single-threaded state driven by the coordinator's
serving loop; it does no I/O and takes ``now`` as an argument, which is
what makes the chaos tests deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: A unit's identity: a tuple of integers (a live class's ``(axis,
#: first_slot)``, ...) — the journal key.
Key = tuple[int, ...]


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout, retry and heartbeat policy of the fabric's leases.

    The default lease deadline is *derived from the golden run*: a
    lease estimated at ``c`` post-injection cycles is allowed
    ``c / cycles_per_second`` wall-clock seconds (floored at
    :attr:`min_shard_timeout` so tiny test programs are never starved).
    ``shard_timeout`` overrides the derivation with a fixed number of
    seconds.  Campaign results do *not* depend on the policy, only on
    whether work finished at all: a lease past its deadline is a failed
    attempt, retried and — once :attr:`max_retries` is spent — reported
    in ``ExecutionReport.missing``, never turned into outcomes.
    """

    #: Re-grants allowed per shard after a failed attempt (its worker
    #: died or disconnected, or its deadline expired).
    max_retries: int = 2
    #: Embargo on a shard's first re-grant, seconds.
    backoff: float = 0.25
    #: Multiplier applied to the embargo after each further failure.
    backoff_factor: float = 2.0
    #: Fixed per-lease wall-clock deadline in seconds; ``None`` derives
    #: it from the lease's estimated cycle cost.
    shard_timeout: float | None = None
    #: Simulated cycles per wall-clock second assumed by the derivation.
    cycles_per_second: float = 50_000.0
    #: Floor for derived deadlines, seconds.
    min_shard_timeout: float = 5.0
    #: How often the coordinator wakes to check deadlines, seconds.
    poll_interval: float = 0.05
    #: Interval between heartbeat re-emissions of ``progress``, seconds.
    heartbeat: float = 5.0

    def deadline_for(self, cost_cycles: int) -> float:
        """Wall-clock seconds granted to a lease of ``cost_cycles``."""
        if self.shard_timeout is not None:
            return self.shard_timeout
        return max(self.min_shard_timeout,
                   cost_cycles / self.cycles_per_second)


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
    deadline: float


@dataclass
class _Shard:
    index: int
    #: Keys not yet accounted, in execution order.
    remaining: list[Key]
    #: Summed estimated cost of ``remaining``, kept current by the board
    #: (re-summing per accepted class is quadratic in the shard size).
    remaining_cost: int = 0
    attempts: int = 0
    available_at: float = 0.0
    status: str = PENDING
    lease: ShardLease | None = None


@dataclass
class LeaseBoard:
    """Single-writer lease state machine over one shard plan."""

    policy: RetryPolicy
    #: Per-key estimated cycle cost (drives deadline derivation).
    key_costs: dict[Key, int]
    #: Re-queues after an expiry or disconnect (for the report).
    retries: int = 0
    #: Shards abandoned after exhausting the retry budget.
    failed_shards: int = 0
    _shards: list[_Shard] = field(default_factory=list)
    _next_lease_id: int = 0

    def add_shard(self, index: int, keys: list[Key]) -> None:
        """Append shard ``index`` (the next in plan order) of ``keys``,
        in execution order."""
        self._shards.append(_Shard(
            index=index, remaining=list(keys),
            remaining_cost=sum(self.key_costs.get(key, 1) for key in keys)))

    # -- queries ---------------------------------------------------------------

    def shards(self) -> list[_Shard]:
        return list(self._shards)

    def done(self) -> bool:
        """True when no shard can ever produce more work."""
        return all(s.status in TERMINAL for s in self._shards)

    # -- transitions -----------------------------------------------------------

    def acquire(self, worker: str, now: float) \
            -> ShardLease | float | None:
        """Grant the next assignable shard to ``worker``.

        Returns a :class:`ShardLease`, or the number of seconds the
        worker should wait before asking again (work exists but is
        leased out or embargoed), or ``None`` when the campaign has no
        more work at all.
        """
        wait: float | None = None
        for shard in self._shards:
            if shard.status == LEASED:
                wait = min(wait or self.policy.heartbeat,
                           self.policy.heartbeat)
            elif shard.status == PENDING:
                if shard.available_at > now:
                    delay = shard.available_at - now
                    wait = min(wait, delay) if wait is not None else delay
                else:
                    return self._grant(shard, worker, now)
        if wait is None:
            return None
        return max(0.05, wait)

    def _grant(self, shard: _Shard, worker: str,
               now: float) -> ShardLease:
        self._next_lease_id += 1
        lease = ShardLease(
            lease_id=self._next_lease_id, shard=shard.index,
            worker=worker, keys=tuple(shard.remaining),
            deadline=now + self.policy.deadline_for(shard.remaining_cost))
        shard.status = LEASED
        shard.lease = lease
        return lease

    def progress(self, shard_index: int, key: Key, now: float) -> bool:
        """Account one submitted class; False for a duplicate.

        Accepts the key whether or not the submitting lease is still
        current; refreshes the active lease's deadline against the
        shrunken remaining cost (progress is the liveness signal).
        """
        shard = self._shards[shard_index]
        try:
            shard.remaining.remove(key)
        except ValueError:
            return False
        shard.remaining_cost -= self.key_costs.get(key, 1)
        if not shard.remaining and shard.status in (PENDING, LEASED):
            shard.status = DONE
            shard.lease = None
        elif shard.lease is not None:
            shard.lease.deadline = now + self.policy.deadline_for(
                shard.remaining_cost)
        return True

    def finish(self, shard_index: int, lease_id: int, now: float) -> None:
        """A worker claims its lease is exhausted.

        Normally every key was already accounted and the shard is done;
        a ``lease_done`` with keys still remaining means results were
        lost in flight — treat it as a failed attempt so the remainder
        is re-leased.
        """
        shard = self._shards[shard_index]
        lease = shard.lease
        if lease is None or lease.lease_id != lease_id:
            return  # stale claim from a revoked lease; nothing to do
        if shard.remaining:
            self._charge(shard, now)
        else:
            shard.status = DONE
            shard.lease = None

    def release_worker(self, worker: str, now: float) -> list[int]:
        """A worker disconnected; re-queue its active leases."""
        released = []
        for shard in self._shards:
            if shard.status == LEASED and shard.lease is not None \
                    and shard.lease.worker == worker:
                self._charge(shard, now)
                released.append(shard.index)
        return released

    def abandon(self) -> None:
        """No worker will ever come back: fail every unfinished shard."""
        for shard in self._shards:
            if shard.status not in TERMINAL:
                shard.status = FAILED
                shard.lease = None
                self.failed_shards += 1

    def expire(self, now: float) -> list[int]:
        """Revoke every lease whose deadline passed."""
        expired = []
        for shard in self._shards:
            if shard.status == LEASED and shard.lease is not None \
                    and now >= shard.lease.deadline:
                self._charge(shard, now)
                expired.append(shard.index)
        return expired

    def _charge(self, shard: _Shard, now: float) -> None:
        shard.lease = None
        shard.attempts += 1
        if shard.attempts > self.policy.max_retries:
            shard.status = FAILED
            self.failed_shards += 1
        else:
            shard.status = PENDING
            self.retries += 1
            shard.available_at = now + self.policy.backoff * (
                self.policy.backoff_factor ** (shard.attempts - 1))
