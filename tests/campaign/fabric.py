"""The tests' fabric harness: thread workers over socket pairs.

:class:`ThreadFleet` is a fleet with the interface of
:class:`~repro.campaign.dist.LocalFabric` (``workers``, ``start``,
``streams``, ``replace``; see :mod:`repro.campaign.dist.coordinator`)
whose workers are :class:`~repro.campaign.dist.DistWorker` threads in the
test's own process — or, through :meth:`ThreadFleet.raw`, a socket the
test drives by hand.  Its workers are named, so the report attributes
units to them.  When a worker hangs up, the coordinator asks the fleet
to replace it by its connection's name: a chaos worker is re-served
over a fresh pair, carrying its :class:`~.chaos.WorkerChaos`, so its
schedule stays cumulative — unless its slot says otherwise; any other
is replaced by the first *standby* worker not yet started.  A standby
worker starts only so, which is how a test adds a worker once another
is gone.

:func:`serve_in_thread` runs a coordinator on a background thread;
:func:`run_dist` is one whole scan on a fresh thread fleet.
"""

from __future__ import annotations

import dataclasses
import socket
import threading

from repro.campaign.dist import DistCoordinator, DistWorker, FrameStream
from repro.campaign.dist.coordinator import serve_scan

from .chaos import ChaosInterrupt, ChaosPlan, ChaosWorker, WorkerChaos


@dataclasses.dataclass
class Slot:
    """One worker of a :class:`ThreadFleet`, over all its lives."""

    name: str
    chaos: WorkerChaos | None
    #: Re-serve the worker, a chaos one, when it hangs up.
    respawn: bool
    #: Start only as the replacement of a worker that is not re-served.
    standby: bool = False
    lives: int = 0
    thread: threading.Thread | None = None
    #: Set when the first life starts.
    begun: threading.Event = dataclasses.field(
        default_factory=threading.Event)
    #: Units its lives executed.
    executed: int = 0

    def join(self, timeout: float | None = None) -> None:
        """Wait for the current life to end (for the first to start,
        too)."""
        self.begun.wait(timeout)
        self.thread.join(timeout)


class ThreadFleet:
    """Thread workers on socket pairs (see the module docstring)."""

    def __init__(self):
        self.streams: list[tuple[str, socket.socket]] = []
        #: The campaign style, once the coordinator started the fleet.
        self.style = None
        #: What a worker raised other than a chaos death.
        self.errors: list[BaseException] = []
        #: Names of the workers chaos events ended, one per death.
        self.deaths: list[str] = []
        self.slots: list[Slot] = []
        #: The slot of each connection a life served, by name.
        self._slot_of: dict[str, Slot] = {}
        self._raw = 0

    @property
    def workers(self) -> int:
        return max(1, len(self.slots) + self._raw)

    def add(self, name: str, plan: ChaosPlan | None = None, *,
            respawn: bool = True, standby: bool = False) -> Slot:
        """A worker (a :class:`~.chaos.ChaosWorker` given ``plan``),
        started with the fleet — or, ``standby``, as a replacement."""
        assert self.style is None, "add workers before the fleet starts"
        slot = Slot(name, None if plan is None else WorkerChaos(plan, name),
                    respawn, standby)
        self.slots.append(slot)
        return slot

    def raw(self, name: str = "raw") -> FrameStream:
        """A stream the test drives by hand; its other end is served."""
        self._raw += 1
        ours, theirs = socket.socketpair()
        self.streams.append((name, ours))
        return FrameStream(theirs)

    def start(self, style) -> None:
        self.style = style
        for slot in self.slots:
            if not slot.standby:
                self._serve(slot)

    def replace(self, name: str) -> None:
        """The connection ``name`` hung up: re-serve its worker, or
        start a standby one in its place (a raw stream has no slot)."""
        slot = self._slot_of.get(name)
        if slot is not None and slot.respawn and slot.chaos is not None:
            self._serve(slot)
            return
        for spare in self.slots:
            if spare.standby and not spare.lives:
                self._serve(spare)
                return

    def join(self, timeout: float = 10) -> None:
        for slot in self.slots:
            if slot.thread is not None:
                slot.thread.join(timeout)

    def _serve(self, slot: Slot) -> None:
        """Start the next life of ``slot`` over a fresh pair; a life
        after the first is named ``<name>r<life>``, so no two of the
        coordinator's connections share a name."""
        ours, theirs = socket.socketpair()
        name = slot.name if not slot.lives else f"{slot.name}r{slot.lives}"
        slot.lives += 1
        self._slot_of[name] = slot
        worker = DistWorker(theirs, self.style) if slot.chaos is None \
            else ChaosWorker(theirs, self.style, slot.chaos)

        def life():
            try:
                worker.run()
            except ChaosInterrupt:
                self.deaths.append(slot.name)
            except Exception as exc:  # noqa: BLE001 - surfaced by the test
                self.errors.append(exc)
            finally:
                slot.executed += worker.executed

        slot.thread = threading.Thread(target=life, daemon=True)
        slot.thread.start()
        slot.begun.set()
        self.streams.append((name, ours))


def serve_in_thread(coordinator: DistCoordinator, golden,
                    **campaign) -> "CoordinatorThread":
    """:func:`~repro.campaign.dist.serve_scan` of ``golden``
    (``campaign``: its keyword arguments) on a started background
    thread."""
    thread = CoordinatorThread(coordinator, golden, **campaign)
    thread.start()
    return thread


class CoordinatorThread(threading.Thread):
    """A :func:`~repro.campaign.dist.serve_scan` thread keeping its
    result or exception."""

    def __init__(self, coordinator: DistCoordinator, golden, **campaign):
        super().__init__(target=self._serve, args=(coordinator, golden),
                         kwargs=campaign, daemon=True)
        self.result = None
        self.error: BaseException | None = None

    def _serve(self, coordinator, golden, **campaign) -> None:
        try:
            self.result = serve_scan(coordinator, golden, **campaign)
        except BaseException as exc:  # captured for the joining test
            self.error = exc

    def join_result(self, timeout: float | None = None):
        self.join(timeout)
        if self.is_alive():
            raise TimeoutError("coordinator thread did not finish")
        if self.error is not None:
            raise self.error
        return self.result


def run_dist(golden, *, workers=2, worker_chaos=None, respawn=True,
             domain="memory", journal=None, keep_records=True,
             progress=None, **coordinator_kw):
    """One scan served to a fresh :class:`ThreadFleet` of ``workers``
    thread workers named ``w0``, ``w1``, … (``worker_chaos``: a plan
    or ``None`` each); returns ``(result, coordinator, fleet)``."""
    fleet = ThreadFleet()
    for index, plan in enumerate(worker_chaos or [None] * workers):
        fleet.add(f"w{index}", plan, respawn=respawn)
    coordinator_kw.setdefault("shards", 4)
    coordinator = DistCoordinator(fleet, **coordinator_kw)
    result = serve_in_thread(coordinator, golden, domain=domain,
                             journal=journal, keep_records=keep_records,
                             progress=progress).join_result(120)
    fleet.join()
    return result, coordinator, fleet
