"""Campaign coordinator: leases shards to forked workers.

A :class:`DistCoordinator` is a transport of
:func:`~repro.campaign.pipeline.run_campaign`, like the in-process one:
prologue (journal, resume, validation, composition), accounting,
progress and canonical-order assembly are the pipeline's.  It serves
any campaign style and holds none of its own: its fleet's workers
inherit ``run.style`` (golden run, units, config) when they fork.  It
plans the style's shards over the units the prologue left to do
(``run.todo``) and serves :class:`~.leases.ShardLease` grants on each
socket pair its fleet hands it; workers stream unit results back one
send window (one ``results`` frame) at a time.  A *fleet* is
:class:`LocalFabric`'s forked local workers (``jobs=N``, ``scan --jobs
N``), or the tests' thread workers; it offers:

``workers``
    how many workers it starts (the plan deals at least a shard each);
``start(style)``
    start them, executing ``style`` — called only when the plan left
    the board some work, so a complete resume starts no worker;
``streams``
    ``(name, socket)`` coordinator ends of the socket pairs it started
    and the coordinator has not yet served — it takes them all;
``replace(name)``
    the worker ``name`` hung up while work remained: start its
    replacement, if the fleet has one (its end joins ``streams``).

The fabric promises what the in-process transport promises, and no
more.  A worker is a fork on a kernel socket pair, which never drops,
duplicates, reorders or corrupts a frame, and each experiment it runs
is bounded by its cycle budget; so a worker's one possible failure is
its end — a crash, a kill, a protocol break — and the coordinator sees
it as the hang-up of the worker's socket.  What it keeps of its own is
what that needs, and the style states each step for its units:

* **One duplicate filter** (:meth:`~.leases.LeaseBoard.progress`).  A
  lease re-granted after a hang-up or a rejected unit repeats
  submissions; a unit is fresh when the board takes its key off its
  shard, and only fresh units go through the pipeline's sink
  (:meth:`~repro.campaign.pipeline.CampaignRun.accept`), each window's
  as one batch.  A copy — of a unit taken, resumed or composed —
  finds its key gone and is dropped.
* **Lease retry** (:class:`~.leases.LeaseBoard`): at a hang-up the
  worker's lease goes back to pending at once, charged an attempt, and
  the fleet is asked to replace that worker; a lease that came back
  with units undelivered is charged the same way.  Past its retry
  budget a shard's keys degrade into ``ExecutionReport.missing``, and
  with no worker left at all, every unfinished shard's do.  The board
  is the fabric's only bookkeeping: results are journaled as they
  arrive, lease state is not, so a restarted coordinator loses only
  work in flight and starts every shard with a fresh budget.
* **Checks on what a worker sends**, per unit, before any accounting:
  its run's shape (``style.valid_run``), its key in the units and its
  shard in the plan; a bad unit is rejected (not progress: its lease
  re-grants it) and its neighbours are taken.  A malformed
  ``lease_done``, or one naming no planned shard, is a
  :class:`~.protocol.ProtocolError` on its connection: the coordinator
  hangs up on it, and the campaign goes on.

Serving is one loop in the calling thread (the journal connection
:func:`run_campaign` opened there is thread-affine): a
:class:`selectors.DefaultSelector` watches every stream the fleet has
handed over, each wrapped in the worker's own
:class:`~.protocol.FrameStream`, and ``select`` is the loop's only
wait.  It waits for frames and hang-ups, never for a deadline: no
lease expires and no re-grant is embargoed.  A request that finds no
pending shard is parked, and answered when a shard returns to pending
(with a lease) or when the campaign ends (with ``done``).  A journaled
campaign bounds the wait by the journal's own commit window
(:data:`~repro.campaign.journal.COMMIT_WINDOW_S`): a window without a
frame commits what the last burst of results left buffered.  Sends are
plain blocking ``sendall``, which never waits on a worker: the
coordinator writes only the answer to a ``request``, which its worker
is blocked reading, and one ``done`` at the end, a few bytes into a
buffer that holds nothing else unread.  Only a
:class:`~.protocol.ProtocolError`, or an ``OSError`` of a connection's
own read or write, ends that connection; whatever the pipeline raises
— a progress callback, a journal write, ^C — ends the campaign and
propagates.
"""

from __future__ import annotations

import selectors
import socket
import time
from collections import Counter

from ...faultspace.domain import FaultDomain, MEMORY, get_domain
from ..experiment import ExecutorConfig
from ..golden import GoldenRun
from ..journal import COMMIT_WINDOW_S
from ..pipeline import (DEFAULT_MAX_RETRIES, CampaignRun, ProgressCallback,
                        run_campaign)
from ..runner import ScanStyle
from .leases import FAILED, LeaseBoard, ShardLease
from .protocol import FrameStream, ProtocolError
from .worker import DistWorker

#: Default shard count: finer than one-per-worker so a lost node's work
#: re-distributes across the survivors instead of doubling one of them.
DEFAULT_SHARDS = 8


class CoordinatorStopped(Exception):
    """The ``stop_after_results`` crash hook fired: raised out of
    :func:`~repro.campaign.pipeline.run_campaign`, so the journal keeps
    every class accepted so far and nothing is assembled."""


class DistCoordinator:
    """The fabric transport: serves a campaign to the workers of
    ``fleet`` (see the module docstring).  The campaign — golden run,
    domain, executor config — is the style's (``run.style``); journal,
    resume, records and progress are :func:`run_campaign`'s.

    ``max_retries`` is each shard's budget of re-grants after a failed
    attempt.  ``shards`` is the fewest shards planned (finer shards
    rebalance better after node loss; each costs its worker one rewind
    of the pristine machine, since a scan's shard holds whole planning
    cells across the whole slot range —
    :func:`~repro.campaign.pipeline.plan_class_shards`).  The plan has
    at least one shard per fleet worker, and a campaign of small
    estimated cycle cost
    (:data:`~repro.campaign.pipeline.SMALL_CAMPAIGN_CYCLES`) exactly
    one, so lease round-trips stop dominating tiny scans.

    ``stop_after_results`` is a test hook: the coordinator abruptly
    drops every connection after accepting that many fresh classes and
    raises :class:`CoordinatorStopped`, a simulated crash.
    """

    def __init__(self, fleet, *, max_retries: int = DEFAULT_MAX_RETRIES,
                 shards: int = DEFAULT_SHARDS,
                 stop_after_results: int | None = None):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.fleet = fleet
        self.max_retries = max_retries
        self.shards = shards
        self.stop_after_results = stop_after_results
        self.stopped = False
        self._worker_units: Counter = Counter()
        self._accepted = 0

    # -- lifecycle --------------------------------------------------------------

    def __call__(self, run: CampaignRun) -> None:
        """The transport: plan ``run``'s work, start the fleet on its
        style when the board holds any, serve it until the board is
        done, then leave the report's fabric fields written for the
        pipeline to assemble."""
        self._selector = selectors.DefaultSelector()
        #: The stream of each connection served, by worker name, and the
        #: names whose request is waiting for a pending shard.
        self._streams: dict[str, FrameStream] = {}
        self._parked: list[str] = []
        try:
            self._plan(run)
            if not self._done:  # a complete resume forks no worker
                self.fleet.start(run.style)
                self._serve()
        finally:
            # Orderly end or not: tell every connected worker (a parked
            # request's answer), then hang up.  The crash hook hangs up
            # without a word, as a killed process would.
            for stream in self._streams.values():
                if not self.stopped:
                    try:
                        stream.send({"type": "done"})
                    except OSError:
                        pass  # that worker is gone already
                stream.close()
            self._selector.close()
        if self.stopped:
            raise CoordinatorStopped(
                f"crash hook fired after {self._accepted} units")
        report = run.report
        report.shard_retries = self.board.retries
        report.failed_shards = self.board.failed_shards
        report.workers = tuple(sorted(self._worker_units.items()))

    def _plan(self, run: CampaignRun) -> None:
        """Plan ``run``'s shards onto a fresh lease board."""
        # The pipeline's prologue has loaded, validated and composed:
        # only ``run.todo`` is leased (small campaigns: one shard per
        # fleet worker).  A shard need not be a run of the unit list (a
        # scan deals cells), so its keys are looked up item by item.
        self.run = run
        self.style = style = run.style
        self.handle = run.handle
        self.report = run.report
        self._units = style.units
        key_of = {item: key for key, item in self._units.items()}
        planned, _, _ = style.plan(run.todo, self.shards,
                                   self.fleet.workers)
        board = LeaseBoard(max_retries=self.max_retries)
        for index, shard in enumerate(planned):
            board.add_shard(index, [key_of[item] for item in shard])
        self.board = board
        self._planned_shards = len(planned)
        self._done = False
        self._maybe_finish()

    def _serve(self) -> None:
        """The loop: answer what the selector reports readable until the
        board is done (or the crash hook fires)."""
        # A journaled campaign commits what a burst of results left in
        # the journal's window once a whole window passes without a
        # frame; without a journal the loop waits for frames alone.
        idle = COMMIT_WINDOW_S if self.handle is not None else None
        self._adopt()
        while not self._done:
            ready = self._selector.select(idle)
            if not ready:
                self.run.idle()
            for key, _events in ready:
                self._serve_stream(key)
                if self._done:
                    return
            self._unpark()

    def _adopt(self) -> None:
        """Serve every stream the fleet has handed over; with none left
        to serve, nobody takes the rest of the work."""
        streams = self.fleet.streams
        while streams:
            name, sock = streams.pop(0)
            self._streams[name] = FrameStream(sock)
            self._selector.register(sock, selectors.EVENT_READ, name)
        if not self._streams:
            self.board.abandon()
            self._maybe_finish()

    def _unpark(self) -> None:
        """Grant pending shards to the parked requests, oldest first."""
        while self._parked:
            lease = self.board.acquire(self._parked[0])
            if lease is None:
                return
            name = self._parked.pop(0)
            try:
                self._streams[name].send(_lease_frame(lease))
            except OSError:
                pass  # its hang-up is on its way: the selector reports it

    # -- per-connection protocol ------------------------------------------------

    def _serve_stream(self, key: selectors.SelectorKey) -> None:
        """Answer every frame ``key``'s stream has delivered; hang up on
        it when its peer has, or has broken the protocol.  Only the
        stream's own reads and writes sit inside ``except OSError``:
        what the pipeline raises propagates."""
        name = key.data
        stream = self._streams[name]
        while not self._done:
            try:
                frame = stream.poll()
            except (ProtocolError, OSError):
                return self._hang_up(key)
            if frame is None:
                if stream.eof:
                    self._hang_up(key)
                return  # else the rest of a frame is still on its way
            try:
                reply = self._answer(name, frame)
            except ProtocolError:
                return self._hang_up(key)
            if reply is not None:
                try:
                    stream.send(reply)
                except OSError:
                    return self._hang_up(key)

    def _hang_up(self, key: selectors.SelectorKey) -> None:
        """End one connection: its worker's lease goes back to the
        board, and the fleet replaces the worker while work remains."""
        name = key.data
        self._selector.unregister(key.fileobj)
        self._streams.pop(name).close()
        if name in self._parked:
            self._parked.remove(name)
        self.board.release_worker(name)
        if not self.board.done():
            self.fleet.replace(name)
            self._adopt()
        self._maybe_finish()

    def _answer(self, name: str, frame: dict) -> dict | None:
        """The coordinator's one frame handler: act on one frame from
        worker ``name``; the frame to send back, if any."""
        kind = frame.get("type")
        if kind == "request":
            lease = self.board.acquire(name)
            if lease is not None:
                return _lease_frame(lease)
            self._parked.append(name)  # answered by _unpark or at the end
        elif kind == "results":
            self._accept_results(name, frame)
        elif kind == "lease_done":
            self.board.finish(*self._lease_done(frame))
            self._maybe_finish()
        else:
            raise ProtocolError(f"unexpected {kind!r} from {name!r}")
        return None

    # -- result acceptance ------------------------------------------------------

    def _accept_results(self, name: str, frame: dict) -> None:
        """Take one send window.  Checks stay per unit — a bad item is
        rejected, its neighbours are taken — and the board decides
        what is fresh; the fresh units are journaled as one batch."""
        if self.stopped:
            return  # the crash hook fired: nothing after the k-th unit
        items = frame.get("items")
        if not isinstance(items, list):
            self._reject(name, None, reason="malformed results frame")
            return
        fresh = []
        for item in items:
            checked = self._checked(name, item)
            if checked is None:
                continue
            key, shard, _run, _counts = checked
            if self.board.progress(shard, key):
                fresh.append(checked)
        if self.stop_after_results is not None:
            # The crash hook's k-th unit is the last one taken.
            fresh = fresh[:self.stop_after_results - self._accepted]
        if fresh:
            self._take(name, fresh)
        self._maybe_finish()

    def _checked(self, name: str, item):
        """``(key, shard, run, counts)`` of one unit of a window whose
        shape holds; otherwise the unit is rejected and the answer is
        ``None``."""
        try:
            key = tuple([int(v) for v in item["key"]])
            shard = int(item["shard"])
            first, second, third = item["run"]
            run = (first, second, third)
            if not all(isinstance(part, str) for part in run):
                raise TypeError("a run is three strings")
            counts = (int(item.get("hits", 0)), int(item.get("skips", 0)))
        except (KeyError, TypeError, ValueError):
            self._reject(name, None, reason="malformed unit result")
            return None
        if key not in self._units or not self.style.valid_run(key, run):
            self._reject(name, key, reason="run disagrees with the unit's "
                                           "expected experiments")
            return None
        if not 0 <= shard < self._planned_shards:
            self._reject(name, key, reason=f"no shard {shard} in the plan")
            return None
        return key, shard, run, counts

    def _lease_done(self, frame: dict) -> tuple[int, int]:
        """``(shard, lease)`` of a ``lease_done`` frame naming a planned
        shard; anything else ends the connection, not the campaign."""
        try:
            shard, lease = int(frame["shard"]), int(frame["lease"])
        except (KeyError, TypeError, ValueError):
            raise ProtocolError("malformed lease_done frame") from None
        if not 0 <= shard < self._planned_shards:
            raise ProtocolError(f"lease_done names no shard {shard} "
                                f"in the plan")
        return shard, lease

    def _take(self, name: str, fresh: list) -> None:
        """Journal, store and count the checked units the board took
        fresh, as one batch through the pipeline's sink."""
        for *_, counts in fresh:
            self.report.count(counts)
        self.run.accept([(key, data) for key, _shard, data, _counts
                         in fresh])
        self._worker_units[name] += len(fresh)
        self._accepted += len(fresh)
        if (self.stop_after_results is not None
                and self._accepted >= self.stop_after_results):
            self.stopped = True
            self._done = True

    # -- integrity helpers ------------------------------------------------------

    def _reject(self, name: str, key, *, reason: str) -> None:
        """Refuse one unit result before it touches any accounting: it
        is not progress, so its lease re-grants it.  A journaled
        campaign logs it as a ``shape-reject`` event."""
        self.report.integrity_rejected += 1
        if self.handle is not None:
            detail = reason if key is None else f"{list(key)}: {reason}"
            self.handle.record_event("shape-reject", worker=name,
                                     detail=detail, at=time.time())

    # -- bookkeeping ------------------------------------------------------------

    def _maybe_finish(self) -> None:
        if self.board.done():
            self._done = True


# -- entry points ---------------------------------------------------------------


def serve_scan(transport, golden: GoldenRun, *,
               domain: FaultDomain | str = MEMORY,
               config: ExecutorConfig | None = None, journal=None,
               resume: bool = True, keep_records: bool = False,
               progress: ProgressCallback | None = None):
    """A full scan of ``golden`` with ``transport`` (a
    :class:`DistCoordinator` or a :class:`LocalFabric`) through
    :func:`~repro.campaign.pipeline.run_campaign`.

    Returns the same :class:`~repro.campaign.runner.CampaignResult` a
    serial run would, or ``None`` when the crash hook fired.
    """
    style = ScanStyle(golden, get_domain(domain), keep_records=keep_records,
                      config=config)
    try:
        return run_campaign(style, transport, journal, resume, progress)
    except CoordinatorStopped:
        return None


def _local_worker(sock: socket.socket, style, name: str) -> None:
    """What each :class:`LocalFabric` worker process runs (``name``
    names its stream)."""
    DistWorker(sock, style).run()


class LocalFabric:
    """The workers transport (``jobs=N``, ``scan --jobs N``): fork
    ``workers`` local workers, each on its end of one socket pair and
    holding the campaign style it inherited; serve the run through a
    :class:`DistCoordinator` in the calling thread (its plan:
    :data:`DEFAULT_SHARDS`, at least one shard per worker); then
    terminate and reap every worker still running.  A worker that hangs
    up while work remains is replaced, once, under the name
    ``worker-<slot>r``; with none left the rest is failed
    (``missing``), not waited for.  Its interchangeable forks go
    unattributed in ``ExecutionReport.workers``, as in process."""

    def __init__(self, workers: int, *,
                 max_retries: int = DEFAULT_MAX_RETRIES):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers, self.max_retries = workers, max_retries

    def __call__(self, run: CampaignRun) -> None:
        #: Coordinator ends not yet served, every coordinator end made,
        #: and every worker process ever started.
        self.streams, self._ends, self._procs = [], [], []
        # A refused argument or a failed start must leave no socket
        # open and no worker running.
        try:
            DistCoordinator(self, max_retries=self.max_retries)(run)
            run.report.workers = ()
        finally:
            for end in self._ends:
                end.close()  # a no-op on an end the coordinator closed
            for proc in self._procs:
                proc.terminate()  # a worker that has exited ignores it
            for proc in self._procs:
                proc.join()

    def start(self, style) -> None:
        import multiprocessing  # loaded when a fleet is first served

        # Workers inherit the campaign style, so they are forks whatever
        # the platform's default start method is.
        self._fork = multiprocessing.get_context("fork")
        self._style = style
        for index in range(self.workers):
            self._start(f"worker-{index}")

    def _start(self, name: str) -> None:
        ours, theirs = socket.socketpair()
        self._ends.append(ours)
        try:
            proc = self._fork.Process(target=self._forked,
                                      args=(theirs, name))
            proc.start()
        finally:
            theirs.close()
        self._procs.append(proc)
        self.streams.append((name, ours))

    def _forked(self, sock: socket.socket, name: str) -> None:
        """In the child: keep only its own end of the fabric's pairs."""
        for end in self._ends:
            end.close()
        _local_worker(sock, self._style, name)

    def replace(self, name: str) -> None:
        """Worker ``name`` hung up: start its replacement, unless it is
        one.  The hang-up names the worker, so nothing waits for the
        process's exit status, which the kernel sets after it closes
        the socket."""
        if not name.endswith("r"):
            self._start(f"{name}r")


def run_distributed_scan(golden: GoldenRun, *, workers: int = 2,
                         domain: FaultDomain | str = MEMORY,
                         executor_config: ExecutorConfig | None = None,
                         max_retries: int = DEFAULT_MAX_RETRIES,
                         journal=None, resume: bool = True,
                         keep_records: bool = False,
                         progress: ProgressCallback | None = None):
    """:func:`serve_scan` over a :class:`LocalFabric` of ``workers``
    local worker processes — one worker too, which ``jobs=1`` would
    run in process instead."""
    return serve_scan(LocalFabric(workers, max_retries=max_retries),
                      golden, domain=domain, config=executor_config,
                      journal=journal, resume=resume,
                      keep_records=keep_records, progress=progress)


def _lease_frame(lease: ShardLease) -> dict:
    """The ``lease`` frame granting ``lease``."""
    return {"type": "lease", "lease": lease.lease_id, "shard": lease.shard,
            "keys": [list(key) for key in lease.keys]}


__all__ = [
    "DEFAULT_SHARDS",
    "CoordinatorStopped",
    "DistCoordinator",
    "LocalFabric",
    "run_distributed_scan",
    "serve_scan",
    "FAILED",
]
