"""Deterministic worker deaths: the fault injector turned on its fabric.

A test fixture.  A :class:`ChaosPlan` is a seeded schedule of worker
deaths, and a :class:`ChaosWorker` — a
:class:`~repro.campaign.dist.DistWorker` that passes each unit it
executes through its plan — applies it, so every chaos run is
**exactly reproducible** from the plan.

A fabric worker is a fork on a kernel socket pair, which never drops,
duplicates, reorders or corrupts a frame; what can happen to it is
that it dies.  So death is the one event, in three forms:

=======================  ===================================================
``kill_rate``            a seeded per-unit probability of dying
``die_after_results``    die at this unit (counted from 0), once
``die_on_keys``          die at each unit of these keys, every time — a
                         unit whose execution kills every worker
=======================  ===================================================

A death ends the worker at the unit it fires on, before that unit joins
the send window: the unit and the rest of the unsent window are lost, as
under SIGKILL.  A thread worker dies by raising :class:`ChaosInterrupt`
(its stream closes on the way out); a forked one by ``os._exit(13)``.

Determinism contract: whether a death fires on a worker's *n*-th unit
is a pure function of ``(plan.seed, worker_name, n)`` — never of
wall-clock time, scheduling or how the worker's send window grouped
the units into ``results`` frames.  Counters are cumulative across a
worker's lives — the tests' thread fleet re-serves a worker a death
ended over a fresh socket pair, with the same :class:`WorkerChaos` — so
the schedule is unaffected by how the deaths it injects reshuffle the
work.  The unit a death fires on counts, so the next life goes on from
the next draw.

Where it plugs in: a test gives a worker of its thread fleet
(:mod:`.fabric`) a plan, or calls :func:`chaotic_fleet` to make the
first workers every :class:`~repro.campaign.dist.LocalFabric` forks
(``jobs=N``, ``scan --jobs N``) chaotic.  A coordinator crash is the
coordinator's own ``stop_after_results`` hook.
"""

from __future__ import annotations

import dataclasses
import os
import random

from repro.campaign.dist import DistWorker
from repro.campaign.dist import coordinator


class ChaosInterrupt(ConnectionError):
    """A chaos death ended this worker.

    A :class:`ConnectionError`, but not the coordinator hanging up
    (``BrokenPipeError``, ``ConnectionResetError``), which a worker
    takes as the end of its campaign: this one ends the worker's
    ``run`` with the exception, so the fleet sees a death.
    """


@dataclasses.dataclass(frozen=True)
class ChaosPlan:
    """One seeded schedule of worker deaths."""

    seed: int = 0
    #: Per-unit probability in ``[0, 1]`` of dying, drawn from a private
    #: deterministic stream per ``(seed, worker, unit index)``.
    kill_rate: float = 0.0
    #: Unit keys whose execution kills the worker, every time.
    die_on_keys: tuple[tuple[int, ...], ...] = ()
    #: Die at this unit index (cumulative across a worker's lives).
    die_after_results: int | None = None

    @property
    def active(self) -> bool:
        """True when a death can ever fire."""
        return bool(self.kill_rate or self.die_on_keys
                    or self.die_after_results is not None)


#: Which draw of a unit's stream decides ``kill``: the sixth, as in the
#: fuller event taxonomy the plans once drew from (corrupt, a retired
#: slot, dup, drop, delay, kill, hang).  The other draws are still
#: taken, so every seed kills where it always did.
_KILL_DRAW = 5


class WorkerChaos:
    """One worker's deterministic chaos state (cumulative across lives)."""

    def __init__(self, plan: ChaosPlan, worker: str):
        self.plan = plan
        self.worker = worker
        #: Units executed so far, over the whole worker lifetime.
        self.results = 0
        #: Telemetry: event name → times fired.
        self.fired: dict[str, int] = {}

    def kills(self, index: int) -> bool:
        """Whether the seeded draw kills this worker at its
        ``index``-th unit; pure in ``(seed, worker, index)``."""
        rng = random.Random(f"{self.plan.seed}/{self.worker}/{index}")
        for _ in range(_KILL_DRAW):
            rng.random()
        return rng.random() < self.plan.kill_rate

    def before_class(self, key: tuple[int, ...]) -> None:
        """Count one executed unit; raise :class:`ChaosInterrupt` when
        the plan kills the worker at it."""
        index = self.results
        self.results += 1
        if tuple(key) in self.plan.die_on_keys:
            event = "die_on_key"
        elif index == self.plan.die_after_results:
            event = "die"
        elif self.kills(index):
            event = "kill"
        else:
            return
        self.fired[event] = self.fired.get(event, 0) + 1
        raise ChaosInterrupt(f"chaos: {event} at {list(key)}")


class ChaosWorker(DistWorker):
    """A :class:`~repro.campaign.dist.DistWorker` running ``chaos``'s
    plan: each unit it executes goes through
    :meth:`WorkerChaos.before_class`.  The chaos state outlives the
    worker: a re-served one carries it on."""

    def __init__(self, sock, style, chaos: WorkerChaos):
        super().__init__(sock, style)
        self._chaos = chaos

    def _work(self, stream, executor, style) -> None:
        super()._work(stream, executor, _DyingStyle(style, self._chaos))


class _DyingStyle:
    """``style`` whose ``execute`` passes each unit it yields through
    ``chaos.before_class``."""

    def __init__(self, style, chaos: WorkerChaos):
        self._style, self._chaos = style, chaos

    def __getattr__(self, name):
        return getattr(self._style, name)

    def execute(self, executor, work):
        for key, run in self._style.execute(executor, work):
            self._chaos.before_class(key)
            yield key, run


def chaotic_fleet(monkeypatch, plan: ChaosPlan) -> None:
    """Make the workers every :class:`~repro.campaign.dist.LocalFabric`
    forks run ``plan``, each fork exiting at the death that ends it.
    The replacements it starts for dead ones (named ``worker-<slot>r``)
    run only the plan's ``die_on_keys``: a key that kills every worker
    kills them too; nothing else does.  ``monkeypatch.undo()`` makes
    the whole fleet honest again."""
    def local_worker(sock, style, name: str) -> None:
        chaos = ChaosPlan(die_on_keys=plan.die_on_keys) \
            if name.endswith("r") else plan
        if not chaos.active:
            DistWorker(sock, style).run()
            return
        try:
            ChaosWorker(sock, style, WorkerChaos(chaos, name)).run()
        except ChaosInterrupt:
            os._exit(13)  # a chaos death ends the process

    monkeypatch.setattr(coordinator, "_local_worker", local_worker)
