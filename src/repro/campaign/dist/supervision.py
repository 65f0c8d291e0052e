"""Worker supervision: rolling failure scores, quarantine, probation.

The lease board already survives *losing* workers; this layer handles
workers that keep coming back and keep failing — crash-looping on a
poisoned environment, flapping networks, or (worst) returning wrong
bytes.  It is a pure state machine in the :class:`~.leases.LeaseBoard`
style: no I/O, no clock reads — every transition takes ``now`` as an
argument, which is what makes the Hypothesis invariant suite and the
seeded chaos tests deterministic.

Per worker the supervisor tracks an exponentially-decayed **failure
score** (half-life :attr:`SupervisionPolicy.failure_halflife`): each
failure adds its weight, each quiet second decays it.  Crossing
:attr:`SupervisionPolicy.failure_threshold` trips the circuit breaker:

``HEALTHY`` → ``QUARANTINED``
    No leases granted, no results accepted.  The duration escalates
    ``quarantine_seconds * quarantine_factor ** (offenses - 1)`` per
    repeat offense, capped at :attr:`max_quarantine_seconds`.
``QUARANTINED`` → ``PROBATION``
    Automatic once the quarantine expires (checked lazily by
    :meth:`WorkerSupervisor.allowed`): the worker may work again, but
    one failure during probation re-quarantines immediately — no
    threshold, no grace.
``PROBATION`` → ``HEALTHY``
    After :attr:`probation_successes` accepted results with no failure;
    the score resets.

A **permanent** quarantine (``quarantine(..., permanent=True)``) never
expires — that is the byzantine path: a worker caught returning wrong
bytes by cross-check verification must never rejoin this campaign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

HEALTHY = "healthy"
QUARANTINED = "quarantined"
PROBATION = "probation"


@dataclass(frozen=True)
class SupervisionPolicy:
    """Tunable thresholds of the worker circuit breaker."""

    #: Decayed failure score that trips quarantine.
    failure_threshold: float = 4.0
    #: Seconds for the failure score to halve with no new failures.
    failure_halflife: float = 30.0
    #: Base quarantine duration, seconds.
    quarantine_seconds: float = 2.0
    #: Duration multiplier per repeat offense.
    quarantine_factor: float = 2.0
    #: Ceiling on any single (non-permanent) quarantine.
    max_quarantine_seconds: float = 120.0
    #: Accepted results needed to graduate probation back to healthy.
    probation_successes: int = 2
    #: Distinct workers a shard may kill before it is declared
    #: poisonous and bisected (see the coordinator's poison handling).
    poison_workers: int = 2
    #: How long a cross-check tiebreak shard refuses the two disputing
    #: workers before liveness wins over attribution quality.
    exclusion_seconds: float = 15.0
    #: Seconds a finished board waits for pending cross-checks before
    #: declaring them unverifiable (no second worker ever showed up).
    crosscheck_patience: float = 10.0

    def quarantine_for(self, offenses: int) -> float:
        """Quarantine duration for the ``offenses``-th trip."""
        return min(
            self.max_quarantine_seconds,
            self.quarantine_seconds
            * self.quarantine_factor ** max(0, offenses - 1))


@dataclass
class WorkerState:
    """One worker's supervision record."""

    name: str
    status: str = HEALTHY
    score: float = 0.0
    #: Timestamp of the last score update (decay anchor).
    scored_at: float = 0.0
    #: Times this worker has been quarantined.
    offenses: int = 0
    #: End of the current quarantine; ``inf`` when permanent.
    quarantined_until: float = 0.0
    permanent: bool = False
    #: Successes still required to graduate probation.
    probation_left: int = 0
    #: Human-readable reason of the last quarantine.
    reason: str = ""

    def snapshot(self) -> dict:
        """JSON-serializable view for telemetry and ``repro fabric``."""
        return {
            "name": self.name, "status": self.status,
            "score": round(self.score, 3), "offenses": self.offenses,
            "permanent": self.permanent, "reason": self.reason,
            "quarantined_until":
                None if math.isinf(self.quarantined_until)
                else self.quarantined_until,
        }


@dataclass
class WorkerSupervisor:
    """Pure supervision state machine over a fleet of named workers."""

    policy: SupervisionPolicy = field(default_factory=SupervisionPolicy)
    _workers: dict[str, WorkerState] = field(default_factory=dict)

    def _state(self, name: str) -> WorkerState:
        state = self._workers.get(name)
        if state is None:
            state = self._workers[name] = WorkerState(name=name)
        return state

    def _decay(self, state: WorkerState, now: float) -> None:
        dt = now - state.scored_at
        if dt > 0 and state.score:
            state.score *= 0.5 ** (dt / self.policy.failure_halflife)
        state.scored_at = max(state.scored_at, now)

    # -- inputs -----------------------------------------------------------------

    def record_success(self, name: str, now: float) -> None:
        """An accepted (merged or verified) result from this worker."""
        state = self._state(name)
        self._decay(state, now)
        if state.status == PROBATION:
            state.probation_left -= 1
            if state.probation_left <= 0:
                state.status = HEALTHY
                state.score = 0.0

    def record_failure(self, name: str, now: float, *,
                       weight: float = 1.0, reason: str = "") -> bool:
        """Charge a failure; True when it newly tripped quarantine.

        Failures are disconnects mid-lease, expired leases, CRC
        rejections, malformed frames — anything that cost the campaign
        work or trust.  ``weight`` scales severity (an integrity
        rejection should count for more than a dropped connection).
        """
        state = self._state(name)
        self._decay(state, now)
        state.score += weight
        if state.status == QUARANTINED:
            return False
        if state.status == PROBATION \
                or state.score >= self.policy.failure_threshold:
            self._trip(state, now, reason=reason)
            return True
        return False

    def quarantine(self, name: str, now: float, *, reason: str = "",
                   permanent: bool = False) -> None:
        """Quarantine immediately, bypassing the score threshold."""
        state = self._state(name)
        self._decay(state, now)
        if state.status == QUARANTINED and state.permanent:
            return
        self._trip(state, now, reason=reason, permanent=permanent)

    def _trip(self, state: WorkerState, now: float, *, reason: str,
              permanent: bool = False) -> None:
        state.status = QUARANTINED
        state.offenses += 1
        state.permanent = permanent
        state.reason = reason
        state.quarantined_until = math.inf if permanent else \
            now + self.policy.quarantine_for(state.offenses)

    # -- queries ----------------------------------------------------------------

    def allowed(self, name: str, now: float) -> bool:
        """May this worker receive leases / have results accepted?

        Lazily graduates an expired quarantine into probation — the
        supervisor has no timer of its own.
        """
        state = self._workers.get(name)
        if state is None or state.status != QUARANTINED:
            return True
        if state.permanent or now < state.quarantined_until:
            return False
        state.status = PROBATION
        state.probation_left = self.policy.probation_successes
        return True

    def retry_after(self, name: str, now: float) -> float:
        """Seconds a quarantined worker should wait before re-asking."""
        state = self._workers.get(name)
        if state is None or state.status != QUARANTINED:
            return 0.0
        if state.permanent:
            return 60.0
        return max(0.05, state.quarantined_until - now)

    def status(self, name: str) -> str:
        state = self._workers.get(name)
        return HEALTHY if state is None else state.status

    def state(self, name: str) -> WorkerState:
        return self._state(name)

    def quarantined(self) -> list[str]:
        """Currently quarantined worker names, sorted."""
        return sorted(name for name, state in self._workers.items()
                      if state.status == QUARANTINED)

    def snapshot(self) -> list[dict]:
        """Telemetry for every worker ever seen, sorted by name."""
        return [self._workers[name].snapshot()
                for name in sorted(self._workers)]


__all__ = [
    "HEALTHY",
    "PROBATION",
    "QUARANTINED",
    "SupervisionPolicy",
    "WorkerState",
    "WorkerSupervisor",
]
