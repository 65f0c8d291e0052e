"""Deterministic fault injection into the campaign fabric itself.

A test fixture: the fault injector turned on its own transport.  A
:class:`ChaosPlan` is a seeded schedule of frame drops, duplications,
byte corruptions, delays, worker kills and hangs.  A
:class:`ChaosWorker` — a :class:`~repro.campaign.dist.DistWorker` that
wraps each session's stream in a :class:`ChaosFrameStream` and lets its
plan kill it at a class key — applies it, so every chaos run is
**exactly reproducible** from the plan.

Determinism contract: whether chaos fires on a worker's *n*-th class
result is a pure function of ``(plan.seed, worker_name, n)`` — never of
wall-clock time, scheduling, socket buffering or how the worker's send
window happened to group the classes into ``results`` frames.  Counters
are cumulative across reconnects, so the schedule is unaffected by how
the failures it injects reshuffle the work.

Event taxonomy (all independent per class result; the proxy walks the
items of each outgoing window in order):

=============  ===============================================================
``drop``       send the window up to and including this class, then close
               the connection (in-flight loss of what follows)
``dup``        put the class in the window twice (at-least-once stress)
``corrupt``    tamper the class's run but keep the *stale* CRC — models
               payload corruption in transit; caught by the coordinator's
               per-class CRC check, its window neighbours merge
``delay``      sleep before the class joins the outgoing frame
               (reordering / lease-expiry stress)
``kill``       ``os._exit(13)`` — only sane for process workers; the
               whole unsent window dies with the process, as under SIGKILL
``hang``       send the window up to this class, then sleep a long time
               mid-lease (wedged worker)
=============  ===============================================================

Besides the seeded rates a plan carries three counters (``die_after_results``,
``drop_after_results``, ``duplicate_results``) that fire once at a fixed
class result, routed through the same proxy, and ``die_on_keys``, class
keys whose execution kills the worker every time.

Where it plugs in: a test starts a :class:`ChaosWorker` on a thread or
in a forked process, or calls :func:`chaotic_fleet` to make the first
workers every :class:`~repro.campaign.dist.LocalFabric` forks (``jobs=N``,
``scan --jobs N``) chaotic.  A coordinator crash is the coordinator's own
``stop_after_results`` hook.
"""

from __future__ import annotations

import dataclasses
import os
import random
import time

from repro.campaign.dist import DistWorker, FrameStream
from repro.campaign.dist import coordinator
from repro.campaign.outcomes import Outcome


class ChaosInterrupt(ConnectionError):
    """A chaos event severed this worker's connection (simulated death).

    Subclasses :class:`ConnectionError` so the worker's run loop treats
    it exactly like a real network failure: back off, reconnect, ask
    for work again.
    """


@dataclasses.dataclass(frozen=True)
class ChaosPlan:
    """One seeded chaos schedule.

    Rates are per-class-result probabilities in ``[0, 1]``, drawn from a
    private deterministic stream per ``(seed, worker, result index)``.
    """

    seed: int = 0
    #: Close the connection right after sending a class result.
    drop_rate: float = 0.0
    #: Send a class result twice.
    dup_rate: float = 0.0
    #: Tamper the run, keep the stale CRC (CRC-detectable corruption).
    corrupt_rate: float = 0.0
    #: Sleep :attr:`delay_seconds` before sending.
    delay_rate: float = 0.0
    delay_seconds: float = 0.02
    #: ``os._exit(13)`` instead of sending (process workers only).
    kill_rate: float = 0.0
    #: Sleep :attr:`hang_seconds` after sending (wedged worker).
    hang_rate: float = 0.0
    hang_seconds: float = 30.0
    #: Class keys whose execution kills the worker, every time.
    die_on_keys: tuple[tuple[int, int], ...] = ()
    #: Counters (cumulative across reconnects, firing once).
    die_after_results: int | None = None
    drop_after_results: int | None = None
    duplicate_results: int = 0

    @property
    def active(self) -> bool:
        """True when any worker-side event can ever fire."""
        return bool(
            self.drop_rate or self.dup_rate or self.corrupt_rate
            or self.delay_rate or self.kill_rate
            or self.hang_rate or self.die_on_keys
            or self.die_after_results is not None
            or self.drop_after_results is not None
            or self.duplicate_results)


#: Fixed draw order — part of the reproducibility contract: adding a new
#: event type must append here, never reorder.  ``None`` is the slot of
#: a retired event (``lie``): its draw is still taken, so every seed's
#: schedule stays what it was.
_EVENTS = ("corrupt", None, "dup", "drop", "delay", "kill", "hang")


class WorkerChaos:
    """One worker's deterministic chaos state (cumulative across sessions).

    The object outlives individual connections — reconnects triggered by
    the chaos it injects must not reset the schedule — so the worker
    owns one instance and wraps each session's :class:`FrameStream`
    through :meth:`wrap`.
    """

    def __init__(self, plan: ChaosPlan, worker: str):
        self.plan = plan
        self.worker = worker
        #: Class results sent so far, over the whole worker lifetime.
        self.results_sent = 0
        #: Telemetry: event name → times fired.
        self.fired: dict[str, int] = {}

    def wrap(self, stream: FrameStream) -> "ChaosFrameStream":
        return ChaosFrameStream(stream, self)

    def events_for(self, index: int) -> tuple[str, ...]:
        """Chaos events for this worker's ``index``-th class result.

        Pure in ``(seed, worker, index)``; at most one
        connection-ending event fires per result.
        """
        plan = self.plan
        rng = random.Random(f"{plan.seed}/{self.worker}/{index}")
        hit = []
        for name in _EVENTS:
            draw = rng.random()
            if name is not None and draw < getattr(plan, f"{name}_rate"):
                hit.append(name)
        if "drop" in hit and "kill" in hit:
            hit.remove("kill")
        return tuple(hit)

    def tampered(self, message: dict, index: int) -> dict:
        """A deterministically corrupted copy of one class result.

        Flips one bit's outcome in the run to a different (valid) class
        and bumps its end cycle — the kind of wrong-but-well-formed
        payload a miscomputing worker would produce, which shape
        validation alone cannot reject.
        """
        outcomes, cycles, traps = message["run"]
        outcomes, cycles = outcomes.split(" "), cycles.split(" ")
        bit = index % len(outcomes)
        values = [o.value for o in Outcome]
        current = values.index(outcomes[bit]) \
            if outcomes[bit] in values else 0
        outcomes[bit] = values[(current + 1) % len(values)]
        cycles[bit] = str(int(cycles[bit]) + 1)
        return {**message, "run": [" ".join(outcomes), " ".join(cycles),
                                   traps]}

    def before_class(self, key: tuple[int, int]) -> None:
        """Kill the worker as the lease's scan generator yields a class
        in ``die_on_keys``: the class and its unsent window are lost."""
        if tuple(key) in self.plan.die_on_keys:
            self._count("die_on_key")
            raise ChaosInterrupt(f"chaos: worker died executing {key}")

    def _count(self, name: str) -> None:
        self.fired[name] = self.fired.get(name, 0) + 1


class ChaosFrameStream:
    """Proxy over :class:`FrameStream` applying the plan to class results.

    Other frames (hello, request, lease_done) pass through
    untouched, and a ``results`` frame is walked item by item — the
    schedule is defined over *class results*, not wire frames, so it
    stays aligned with the plan's counters and with what actually
    threatens result integrity however the send window grouped them.  An
    event that ends or stalls the connection first sends the items
    before it, so one window may leave as several frames.
    """

    def __init__(self, stream: FrameStream, chaos: WorkerChaos):
        self._stream = stream
        self._chaos = chaos

    # Delegated surface (the worker uses exactly these four).

    def close(self) -> None:
        self._stream.close()

    def read(self, timeout: float | None = None):
        return self._stream.read(timeout)

    def poll(self):
        return self._stream.poll()

    def send(self, message: dict) -> None:
        if message.get("type") != "results":
            self._stream.send(message)
            return
        chaos, plan = self._chaos, self._chaos.plan
        #: Items of the window cleared to leave, in order.
        out: list[dict] = []
        for item in message["items"]:
            index = chaos.results_sent
            if plan.die_after_results is not None \
                    and index == plan.die_after_results:
                chaos._count("die")
                os._exit(13)
            events = chaos.events_for(index)
            if "kill" in events:
                chaos._count("kill")
                os._exit(13)
            if "corrupt" in events:
                # Stale CRC: the payload changed after digesting, exactly
                # what in-flight corruption looks like to the coordinator.
                chaos._count("corrupt")
                item = chaos.tampered(item, index)
            if "delay" in events:
                chaos._count("delay")
                time.sleep(plan.delay_seconds)
            out.append(item)
            chaos.results_sent += 1
            if "dup" in events \
                    or chaos.results_sent <= plan.duplicate_results:
                chaos._count("dup")
                out.append(item)
            if "drop" in events \
                    or chaos.results_sent == plan.drop_after_results:
                chaos._count("drop")
                self._send_items(message, out)
                self._stream.close()
                raise ChaosInterrupt("chaos: dropped connection")
            if "hang" in events:
                chaos._count("hang")
                self._send_items(message, out)
                out = []
                time.sleep(plan.hang_seconds)
        self._send_items(message, out)

    def _send_items(self, message: dict, items: list[dict]) -> None:
        if items:
            self._stream.send({**message, "items": items})


class ChaosWorker(DistWorker):
    """A :class:`~repro.campaign.dist.DistWorker` running ``plan``: its
    lease frames go through a :class:`ChaosFrameStream` and each unit it
    executes through :meth:`WorkerChaos.before_class`.  The chaos state
    (``_chaos``) outlives its sessions."""

    def __init__(self, host: str, port: int, plan: ChaosPlan, **kwargs):
        super().__init__(host, port, **kwargs)
        self._chaos = WorkerChaos(plan, self.name)

    def _work(self, stream, executor, style) -> None:
        # Handshake frames carry no class result: wrapping the stream
        # from the first lease request on is the same schedule.
        super()._work(self._chaos.wrap(stream), executor,
                      _DyingStyle(style, self._chaos))


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
    forks run ``plan``; the replacements it starts for dead ones (named
    ``worker-<slot>r``) stay honest.  ``monkeypatch.undo()`` makes the
    whole fleet honest again."""
    def local_worker(host: str, port: int, name: str) -> None:
        if name.endswith("r"):
            DistWorker(host, port, name=name).run()
        else:
            ChaosWorker(host, port, plan, name=name).run()

    monkeypatch.setattr(coordinator, "_local_worker", local_worker)
