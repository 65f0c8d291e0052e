"""Campaign coordinator: leases shards to forked workers.

A :class:`DistCoordinator` is a transport of
:func:`~repro.campaign.pipeline.run_campaign`, like the in-process one:
prologue (journal, resume, validation, composition), accounting,
progress and canonical-order assembly are the pipeline's.  It serves
any campaign style and holds none of its own: its fleet's workers
inherit ``run.style`` (golden run, units, config) when they fork.  It
plans the style's shards over its *full* unit list (so shard indices
survive restarts) and serves :class:`~.leases.ShardLease` grants on
each socket pair its fleet hands it; workers stream unit results back
one send window (one ``results`` frame) at a time.  A *fleet* is
:class:`LocalFabric`'s forked local workers (``jobs=N``, ``scan --jobs
N``), or the tests' thread workers; it offers:

``workers``
    how many workers it starts (the plan deals at least a shard each);
``start(style)``
    start them, executing ``style``;
``streams``
    ``(name, socket)`` coordinator ends of the socket pairs it started
    and the coordinator has not yet served — it takes them all;
``tend()``
    replace workers that died (their ends join ``streams``); False when
    no worker is left alive.

What the coordinator keeps of its own is what at-least-once delivery
needs, and the style states each step for its units:

* **One duplicate filter** (:meth:`~.leases.LeaseBoard.progress`).
  Lease expiry and re-grants duplicate submissions; a unit is fresh
  when the board takes its key off its shard, and only fresh units go
  through the pipeline's sink
  (:meth:`~repro.campaign.pipeline.CampaignRun.accept`), each window's
  as one batch.  A copy — of a unit taken, resumed or composed —
  finds its key gone and is dropped.
* **Lease retry** (:class:`~.leases.LeaseBoard`): an expired, orphaned
  or half-delivered lease is re-queued with backoff and a retry budget,
  then its keys degrade into ``ExecutionReport.missing``.  Results and
  lease state are journaled as they arrive (committed by the journal's
  window, or the first idle watchdog tick), so a restarted coordinator
  loses only work in flight.
* **Checks on what a worker sends**, per unit, before any accounting:
  its run's shape (``style.valid_run``), its key in the units and its
  shard in the plan; a bad unit is rejected (not progress: its lease
  re-grants it) and its neighbours are taken.  A malformed
  ``lease_done``, or one naming no planned shard, is a
  :class:`~.protocol.ProtocolError` on its connection: its leases are
  released and the campaign goes on.

Time is read through the module-level :data:`_clock` (lease grants,
expiry, progress heartbeats), so tests can substitute a virtual one.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import socket
import time
from collections import Counter

from ...faultspace.domain import FaultDomain, MEMORY, get_domain
from ..experiment import ExecutorConfig
from ..golden import GoldenRun
from ..pipeline import CampaignRun, ProgressCallback, run_campaign
from ..runner import ScanStyle
from .leases import FAILED, LeaseBoard, RetryPolicy
from .protocol import ProtocolError, read_frame, write_frame
from .worker import DistWorker

#: Default shard count: finer than one-per-worker so a lost node's work
#: re-distributes across the survivors instead of doubling one of them.
DEFAULT_SHARDS = 8

#: The lease clock (module-level so tests can substitute a virtual one).
_clock = time.monotonic


def _canonical_keys(keys) -> str:
    """Deterministic JSON identity of a shard's planned key list."""
    return json.dumps([list(key) for key in keys],
                      separators=(",", ":"))


class CoordinatorStopped(Exception):
    """The ``stop_after_results`` crash hook fired: raised out of
    :func:`~repro.campaign.pipeline.run_campaign`, so the journal keeps
    every class accepted so far and nothing is assembled."""


class DistCoordinator:
    """The fabric transport: serves a campaign to the workers of
    ``fleet`` (see the module docstring).  The campaign — golden run,
    domain, executor config — is the style's (``run.style``); journal,
    resume, records and progress are :func:`run_campaign`'s.

    ``shards`` is the fewest shards planned (finer shards rebalance
    better after node loss; each costs its worker one rewind of the
    pristine machine, since a scan's shard holds whole planning cells
    across the whole slot range —
    :func:`~repro.campaign.pipeline.plan_class_shards`).  The plan has
    at least one shard per fleet worker, and a campaign of small
    estimated cycle cost
    (:data:`~repro.campaign.pipeline.SMALL_CAMPAIGN_CYCLES`) exactly
    one, so lease round-trips stop dominating tiny scans.

    ``stop_after_results`` is a test hook: the coordinator abruptly
    drops every connection after accepting that many fresh classes and
    raises :class:`CoordinatorStopped`, a simulated crash.
    """

    def __init__(self, fleet, *, policy: RetryPolicy | None = None,
                 shards: int = DEFAULT_SHARDS,
                 stop_after_results: int | None = None):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.fleet = fleet
        self.policy = policy or RetryPolicy()
        self.shards = shards
        self.stop_after_results = stop_after_results
        self.stopped = False
        self._worker_units: Counter = Counter()
        self._accepted = 0
        self._writers: dict[str, asyncio.StreamWriter] = {}
        self._conn_tasks: set = set()
        self._lease_cache: dict[int, tuple] = {}

    # -- lifecycle --------------------------------------------------------------

    def __call__(self, run: CampaignRun) -> None:
        """The transport: start the fleet on ``run``'s style, serve it
        until the board is done, then leave the report's fabric fields
        written for the pipeline to assemble."""
        self._error: Exception | None = None
        # Workers start before the loop does: a fork inherits no
        # running event loop.
        self.fleet.start(run.style)
        # The loop runs in the calling thread: the journal connection
        # run_campaign opened there is thread-affine.
        asyncio.run(self._serve(run))
        if self._error is not None:
            raise self._error
        if self.stopped:
            raise CoordinatorStopped(
                f"crash hook fired after {self._accepted} units")
        report = run.report
        report.shard_retries = self.board.retries
        report.failed_shards = self.board.failed_shards
        report.workers = tuple(sorted(self._worker_units.items()))
        self._journal_leases()  # final lease states stay queryable

    async def _serve(self, run: CampaignRun) -> None:
        # The pipeline's prologue has loaded, validated and composed:
        # ``run.completed`` units are never leased to any worker.
        self.run = run
        self.style = style = run.style
        self.handle = handle = run.handle
        self.report = run.report
        self._units = style.units
        completed = run.completed
        # Plan over the FULL unit list (small campaigns: one shard per
        # fleet worker): shard indices and key lists are a pure
        # function of the arguments, so journaled retry state survives
        # a restart.  A shard need not be a run of the unit list (a
        # scan deals cells), so its keys are looked up item by item.
        key_of = {item: key for key, item in self._units.items()}
        planned, _, costs = style.plan(list(self._units.values()),
                                       self.shards, self.fleet.workers)
        board = LeaseBoard(policy=self.policy,
                           key_costs=dict(zip(self._units, costs)))
        journaled_leases = handle.lease_states()
        for index, shard in enumerate(planned):
            keys = [key_of[item] for item in shard]
            board.add_shard(index, keys,
                            [key for key in keys if key not in completed])
            stored = journaled_leases.get(index)
            if stored is not None and stored["keys"] == _canonical_keys(keys):
                # Same plan as the journaled run (not another --jobs):
                # carry the retry budget across the restart.
                board.restore(index, attempts=stored["attempts"],
                              status=stored["status"], now=_clock())
        self.board = board
        self._planned_shards = len(planned)
        self._done = asyncio.Event()
        self._journal_leases()
        self._maybe_finish()

        self._adopt()
        watchdog = asyncio.create_task(self._watchdog())
        try:
            await self._done.wait()
        finally:
            watchdog.cancel()
            # Orderly end: tell every connected worker, then hang up.
            # The crash hook hangs up without a word, as a killed
            # process would.
            for writer in list(self._writers.values()):
                if not self.stopped:
                    write_frame(writer, {"type": "done"})
                writer.close()
            # Each session sees its stream end and returns.
            if self._conn_tasks:
                await asyncio.wait(self._conn_tasks)

    def _adopt(self) -> None:
        """Serve every stream the fleet has handed over."""
        streams = self.fleet.streams
        while streams:
            task = asyncio.create_task(self._handle_worker(*streams.pop(0)))
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)

    def _fail(self, exc: Exception) -> None:
        """An exception out of the pipeline — a progress callback that
        aborts the campaign, a journal write — ends serving, and
        :meth:`__call__` raises it where a serial run would."""
        if self._error is None:
            self._error = exc
        self._done.set()

    async def _watchdog(self):
        accepted = self._accepted
        last_beat = _clock()
        try:
            while True:
                await asyncio.sleep(self.policy.poll_interval)
                now = _clock()
                expired = self.board.expire(now)
                if expired:
                    self.report.timed_out_shards += len(expired)
                    self._journal_leases()
                if not self.board.done() and not self.fleet.tend():
                    # Every worker is gone: nobody takes the rest.
                    self.board.abandon()
                    self._journal_leases()
                self._adopt()
                self._maybe_finish()
                if now - last_beat >= self.policy.heartbeat:
                    # Unchanged counts: how a caller tells a slow
                    # campaign from a dead one.
                    self.run.heartbeat()
                    last_beat = now
                # Results arrive in bursts; whatever the last burst left
                # in the journal's commit window is committed once the
                # loop idles — a tick that saw units accepted is not
                # idle, and committing on it would undercut the
                # journal's own window.
                if accepted == self._accepted:
                    self.run.idle()
                accepted = self._accepted
        except Exception as exc:  # noqa: BLE001 - re-raised by __call__
            self._fail(exc)

    # -- per-connection protocol ------------------------------------------------

    async def _handle_worker(self, name: str, sock: socket.socket):
        reader, writer = await asyncio.open_connection(sock=sock)
        self._writers[name] = writer
        try:
            await self._session(name, reader, writer)
        except (ProtocolError, ConnectionError, OSError):
            pass
        except Exception as exc:  # noqa: BLE001 - re-raised by __call__
            self._fail(exc)
        finally:
            self._writers.pop(name, None)
            # On the simulated-crash path connections die *without*
            # lease bookkeeping, exactly as a killed process would.
            if not self.stopped:
                if self.board.release_worker(name, _clock()):
                    self._journal_leases()
                self._maybe_finish()
            writer.close()

    async def _session(self, name: str, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter):
        while not self._done.is_set():
            frame = await read_frame(reader)
            if frame is None:
                return
            kind = frame.get("type")
            now = _clock()
            if kind == "request":
                write_frame(writer, self._grant(name, now))
                await writer.drain()
            elif kind == "results":
                self._accept_results(name, frame, now)
            elif kind == "lease_done":
                self.board.finish(*self._lease_done(frame), now)
                self._journal_leases()
                self._maybe_finish()
            else:
                raise ProtocolError(f"unexpected {kind!r} from {name!r}")
        # This session saw the campaign finish: tell the worker now —
        # the serve loop's broadcast cannot reach it once this
        # handler's cleanup has unregistered the writer.
        if not self.stopped:
            write_frame(writer, {"type": "done"})

    # -- work granting ----------------------------------------------------------

    def _grant(self, name: str, now: float) -> dict:
        """The frame answering one worker's ``request``."""
        grant = self.board.acquire(name, now)
        if grant is None:
            return {"type": "done"}
        if isinstance(grant, float):
            return {"type": "wait", "seconds": grant}
        self._journal_leases()
        return {"type": "lease", "lease": grant.lease_id,
                "shard": grant.shard,
                "keys": [list(key) for key in grant.keys]}

    # -- result acceptance ------------------------------------------------------

    def _accept_results(self, name: str, frame: dict, now: float) -> None:
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
            if self.board.progress(shard, key, now):
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
            self._done.set()

    # -- integrity helpers ------------------------------------------------------

    def _reject(self, name: str, key, *, reason: str) -> None:
        """Refuse one unit result before it touches any accounting: it
        is not progress, so its lease re-grants it."""
        self.report.integrity_rejected += 1
        detail = reason if key is None else f"{list(key)}: {reason}"
        self.handle.record_event("shape-reject", worker=name,
                                 detail=detail, at=time.time())

    # -- bookkeeping ------------------------------------------------------------

    def _journal_leases(self) -> None:
        """Persist per-shard retry state (only rows that changed)."""
        for shard in self.board.shards():
            worker = shard.lease.worker if shard.lease is not None else ""
            state = (shard.attempts, shard.status, worker)
            if self._lease_cache.get(shard.index) == state:
                continue
            self._lease_cache[shard.index] = state
            self.handle.record_lease(
                shard.index, _canonical_keys(shard.keys),
                attempts=shard.attempts, status=shard.status, worker=worker)

    def _maybe_finish(self) -> None:
        if not self._done.is_set() and self.board.done():
            self._done.set()


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


#: Workers inherit the campaign style, so they are forks whatever the
#: platform's default start method is.
_FORK = multiprocessing.get_context("fork")


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
    terminate and reap every worker still running.  A worker that exits
    while work remains is replaced, once; with none left alive the rest
    is failed (``missing``), not waited for.  Its interchangeable forks
    go unattributed in ``ExecutionReport.workers``, as in process."""

    def __init__(self, workers: int, *, policy: RetryPolicy | None = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers, self.policy = workers, policy

    def __call__(self, run: CampaignRun) -> None:
        #: Coordinator ends not yet served, every coordinator end made,
        #: the process of each worker slot, and every one ever started.
        self.streams, self._ends, self._fleet, self._procs = [], [], [], []
        self._replaced: set[int] = set()
        # A refused argument or a failed start must leave no socket
        # open and no worker running.
        try:
            DistCoordinator(self, policy=self.policy)(run)
            run.report.workers = ()
        finally:
            for end in self._ends:
                end.close()  # a no-op on an end the coordinator closed
            for proc in self._procs:
                proc.terminate()  # a worker that has exited ignores it
            for proc in self._procs:
                proc.join()

    def start(self, style) -> None:
        self._style = style
        self._fleet = [self._start(f"worker-{index}")
                       for index in range(self.workers)]

    def _start(self, name: str):
        ours, theirs = socket.socketpair()
        self._ends.append(ours)
        try:
            proc = _FORK.Process(target=self._forked, args=(theirs, name))
            proc.start()
        finally:
            theirs.close()
        self._procs.append(proc)
        self.streams.append((name, ours))
        return proc

    def _forked(self, sock: socket.socket, name: str) -> None:
        """In the child: keep only its own end of the fabric's pairs."""
        for end in self._ends:
            end.close()
        _local_worker(sock, self._style, name)

    def tend(self) -> bool:
        """Replace each started worker that exited, once; False when no
        worker is left alive (the coordinator's watchdog asks)."""
        for slot, proc in enumerate(self._fleet):
            if proc.exitcode is not None and slot not in self._replaced:
                self._replaced.add(slot)
                self._fleet[slot] = self._start(f"worker-{slot}r")
        return any(proc.exitcode is None for proc in self._fleet)


def run_distributed_scan(golden: GoldenRun, *, workers: int = 2,
                         domain: FaultDomain | str = MEMORY,
                         executor_config: ExecutorConfig | None = None,
                         policy: RetryPolicy | None = None,
                         journal=None, resume: bool = True,
                         keep_records: bool = False,
                         progress: ProgressCallback | None = None):
    """:func:`serve_scan` over a :class:`LocalFabric` of ``workers``
    local worker processes — one worker too, which ``jobs=1`` would
    run in process instead."""
    return serve_scan(LocalFabric(workers, policy=policy), golden,
                      domain=domain, config=executor_config,
                      journal=journal, resume=resume,
                      keep_records=keep_records, progress=progress)


__all__ = [
    "DEFAULT_SHARDS",
    "CoordinatorStopped",
    "DistCoordinator",
    "LocalFabric",
    "run_distributed_scan",
    "serve_scan",
    "FAILED",
]
