"""Campaign coordinator: leases shards to TCP workers, audits them.

A :class:`DistCoordinator` is a transport of
:func:`~repro.campaign.pipeline.run_campaign`, like the in-process one:
prologue (journal, resume, validation, composition), accounting,
progress and canonical-order assembly are the pipeline's.  It serves
any campaign style — the ``campaign`` frame names it and each worker
rebuilds it — planning the style's shards over its *full* unit list
(so shard indices survive restarts) and serving
:class:`~.leases.ShardLease` grants; workers stream unit results back
one send window (one ``results`` frame) at a time.  :class:`LocalFabric`
runs it over forked local workers (``jobs=N``, ``scan --jobs N``);
:func:`serve_scan` over whichever workers connect.  What it keeps of
its own is what at-least-once delivery over a network needs, and the
style states each step for its units:

* **First-wins merge** (``style.merge``).  Lease expiry, reconnects and
  retransmits duplicate submissions, so every window is merged first
  copy wins — a full scan through
  :meth:`~repro.campaign.journal.CampaignJournal.merge_classes`, one
  existence query per window — and only the units taken reach the
  pipeline's sink (:meth:`~repro.campaign.pipeline.CampaignRun.count`).
  Workers re-verify program fingerprint and golden Δt before executing,
  so a unit has one possible value and the result is bit-for-bit
  serial.
* **Lease retry** (:class:`~.leases.LeaseBoard`): an expired, orphaned
  or half-delivered lease is re-queued with backoff and a retry budget,
  then its keys degrade into ``ExecutionReport.missing``.  Results and
  lease state are journaled as they arrive (committed by the journal's
  window, or the first idle watchdog tick), so a restarted coordinator
  loses only work in flight.
* **Integrity**, per unit, before any accounting: the CRC is
  re-derived from the run strings and their shape checked
  (``style.valid_run``); a bad unit is rejected (not progress: its
  lease re-grants it) and its neighbours merge.
* **The determinism audit** (``crosscheck``): a deterministic fraction
  of keys is re-executed on a *second* worker (verify leases: negative
  lease id, ``shard == -1``) and the digests compared.  A mismatch is a
  bug to report, not a vote to hold: a ``crosscheck-mismatch`` event
  names both workers and digests, the unit leaves the journal
  (``style.discard``) and the run, later copies are refused, and it
  stays missing for a rerun to retry.  Because of that discard, the
  section store is written once serving ends (``style.store``), from
  the runs as they arrived.

Time is read through the module-level :data:`_clock` (lease grants,
expiry, progress heartbeats), so tests can substitute a virtual one.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import multiprocessing
import random
import socket
import threading
import time
from collections import Counter
from multiprocessing.util import register_after_fork

from ...faultspace.domain import FaultDomain, MEMORY, get_domain
from ..database import program_fingerprint
from ..experiment import ExecutorConfig
from ..golden import GoldenRun
from ..pipeline import (CampaignRun, CampaignStyle, ProgressCallback,
                        campaign_params, run_campaign)
from ..runner import ScanStyle
from .leases import FAILED, LeaseBoard, RetryPolicy
from .protocol import (PROTOCOL_VERSION, ProtocolError, read_frame,
                       result_digest, write_frame)
from .worker import DistWorker

#: Default shard count: finer than one-per-worker so a lost node's work
#: re-distributes across the survivors instead of doubling one of them.
DEFAULT_SHARDS = 8

#: Keys per verify (cross-check) lease: small batches keep the second
#: worker's turnaround short so disputes surface quickly.
VERIFY_BATCH = 8

#: Seconds a finished board waits for pending cross-checks before
#: declaring them unverified (no second worker ever showed up).
CROSSCHECK_PATIENCE = 10.0

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
    """The fabric transport: serves a campaign to TCP workers on
    ``sock``, a bound listening socket.  Journal, resume, records and
    progress are campaign arguments, :func:`run_campaign`'s.

    ``shards`` fixes the lease granularity (finer shards rebalance
    better after node loss; coarser ones amortize more snapshot
    fast-forwarding).  ``expected_workers`` is an optional planning
    hint: when set and the campaign's estimated cycle cost is small
    (:data:`~repro.campaign.pipeline.SMALL_CAMPAIGN_CYCLES`), the
    granularity collapses to one shard per worker so lease round-trips
    stop dominating tiny scans.  ``crosscheck`` is the audited fraction
    of class keys (module docstring).

    ``stop_after_results`` is a test hook: the coordinator abruptly
    drops every connection after accepting that many fresh classes and
    raises :class:`CoordinatorStopped`, a simulated crash.
    """

    #: The :class:`LocalFabric` whose workers this coordinator serves
    #: (it tends them), or ``None``: workers come and go on their own.
    fleet = None

    def __init__(self, golden: GoldenRun, *, sock: socket.socket,
                 domain: FaultDomain | str = MEMORY,
                 executor_config: ExecutorConfig | None = None,
                 policy: RetryPolicy | None = None,
                 shards: int = DEFAULT_SHARDS,
                 expected_workers: int | None = None,
                 stop_after_results: int | None = None,
                 crosscheck: float = 0.0):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if not 0.0 <= crosscheck <= 1.0:
            raise ValueError(
                f"crosscheck must be in [0, 1], got {crosscheck}")
        self.golden = golden
        self.domain = get_domain(domain)
        config = executor_config or ExecutorConfig()
        self.config = dataclasses.replace(config, domain=self.domain.name)
        self.params = campaign_params(golden, self.config)
        self.policy = policy or RetryPolicy()
        self.shards = shards
        self.expected_workers = expected_workers
        self._sock = sock
        self.stop_after_results = stop_after_results
        self.crosscheck = crosscheck
        self.stopped = False
        self._worker_units: Counter = Counter()
        self._accepted = 0
        #: Runs of the classes this coordinator journaled fresh (and
        #: has not discarded): the section store's input at the end.
        self._runs: dict[tuple, tuple] = {}
        self._writers: dict[str, asyncio.StreamWriter] = {}
        self._conn_tasks: set = set()
        self._lease_cache: dict[int, tuple] = {}
        # Cross-check state: keys awaiting a second, independent
        # execution; verify leases in flight; keys whose two executions
        # disagreed (no copy of them is accepted again this run).
        self._check_pending: dict[tuple, tuple[str, int]] = {}
        self._check_inflight: dict[int, tuple[str, tuple]] = {}
        self._inflight_keys: set = set()
        self._disputed: set = set()
        self._next_verify_id = 0
        self._drain_deadline: float | None = None

    # -- identity shipped to workers -------------------------------------------

    def _campaign_message(self, style: CampaignStyle) -> dict:
        program = self.golden.program
        ladder = self.golden.checkpoints
        return {
            "type": "campaign",
            "version": PROTOCOL_VERSION,
            "program": {
                "name": program.name,
                "source": program.source,
                "ram_size": program.ram_size,
            },
            "fingerprint": program_fingerprint(program),
            "cycles": self.golden.cycles,
            # The golden checkpoint ladder's stride (0: no ladder), so
            # a worker's early exits are the ones asked for here.
            "stride": 0 if ladder is None else ladder.stride,
            "config": dataclasses.asdict(self.config),
            "style": style.spec(),
        }

    # -- lifecycle --------------------------------------------------------------

    def __call__(self, run: CampaignRun) -> None:
        """The transport: serve ``run`` until the board is done, then
        leave the report's fabric fields and the section store written
        for the pipeline to assemble."""
        # The loop runs in the calling thread: the journal connection
        # run_campaign opened there is thread-affine.
        self._error: Exception | None = None
        asyncio.run(self._serve(run))
        if self._error is not None:
            raise self._error
        if self.stopped:
            raise CoordinatorStopped(
                f"crash hook fired after {self._accepted} units")
        # Only units taken fresh and not discarded by the audit reach
        # the section store (resumed ones came from it or are in it).
        if run.composer is not None:
            run.style.store(run.composer, self._runs.items())
        report = run.report
        report.shard_retries = self.board.retries
        report.failed_shards = self.board.failed_shards
        if self.fleet is None:  # a local fleet's forks carry no name
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
        self._message = self._campaign_message(style)
        completed = run.completed
        # Plan over the FULL unit list (small campaigns: one shard per
        # expected worker): shard indices and key lists are a pure
        # function of the arguments, so journaled retry state survives
        # a restart.
        all_keys = list(self._units)
        planned, _, costs = style.plan(list(self._units.values()),
                                       self.shards, self.expected_workers)
        board = LeaseBoard(policy=self.policy,
                           key_costs=dict(zip(all_keys, costs)))
        journaled_leases = handle.lease_states()
        start = 0
        for index, shard in enumerate(planned):
            keys = all_keys[start:start + len(shard)]
            start += len(shard)
            board.add_shard(index, keys,
                            [key for key in keys if key not in completed])
            stored = journaled_leases.get(index)
            if stored is not None and stored["keys"] == _canonical_keys(keys):
                # Same plan as the journaled run (not another --shards):
                # carry the retry budget across the restart.
                board.restore(index, attempts=stored["attempts"],
                              status=stored["status"])
        self.board = board
        self._planned_shards = len(planned)
        self._done = asyncio.Event()
        self._journal_leases()
        self._maybe_finish()

        server = await asyncio.start_server(self._handle_worker,
                                            sock=self._sock)
        watchdog = asyncio.create_task(self._watchdog())
        try:
            await self._done.wait()
        finally:
            watchdog.cancel()
            if not self.stopped:
                # Orderly end: tell every connected worker before the
                # transports close, so they exit instead of reconnecting.
                for writer in list(self._writers.values()):
                    try:
                        write_frame(writer, {"type": "done"})
                        await writer.drain()
                    except (ConnectionError, OSError):
                        pass
            server.close()
            await server.wait_closed()
            # Give sessions a moment to finish their own done/drain
            # handshakes first (closing under a worker that has not read
            # its done frame risks a reset that discards it).
            if self._conn_tasks:
                await asyncio.wait(self._conn_tasks, timeout=2.0)
            for writer in list(self._writers.values()):
                writer.close()
            # Let tasks stuck on now-closed transports return before the
            # loop shuts down (else asyncio logs their cancellation).
            if self._conn_tasks:
                await asyncio.wait(self._conn_tasks, timeout=2.0)

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
                if self.fleet is not None and not self.board.done() \
                        and not self.fleet.tend():
                    # Every local worker is gone: nobody takes the rest.
                    self.board.abandon()
                    self._journal_leases()
                self._drain_crosschecks(now)
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

    async def _handle_worker(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter):
        name = None
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            conn = writer.get_extra_info("socket")
            if conn is not None:
                # Lease grants and done frames are tiny; don't let
                # Nagle batch them behind the workers' backs.
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            hello = await read_frame(reader)
            if hello is None or hello.get("type") != "hello":
                return
            if hello.get("version") != PROTOCOL_VERSION:
                write_frame(writer, {
                    "type": "reject",
                    "reason": f"protocol version {hello.get('version')} != "
                              f"{PROTOCOL_VERSION}"})
                await writer.drain()
                return
            name = str(hello.get("name") or "worker")
            if name in self._writers:
                # Two live connections must not share an identity: lease
                # accounting is per worker name.
                name = f"{name}#{id(writer) & 0xffff:04x}"
            self._writers[name] = writer
            write_frame(writer, self._message)
            await writer.drain()
            ready = await read_frame(reader)
            if ready is None or ready.get("type") != "ready":
                # "error" carries the worker's verification diagnostic
                # (stale checkout); nothing to grant either way.
                return
            await self._session(name, reader, writer)
        except (ProtocolError, ConnectionError, OSError):
            pass
        except Exception as exc:  # noqa: BLE001 - re-raised by __call__
            self._fail(exc)
        finally:
            if name is not None:
                self._writers.pop(name, None)
                # On the simulated-crash path connections die *without*
                # lease bookkeeping, exactly as a killed process would.
                if not self.stopped:
                    if self.board.release_worker(name, _clock()):
                        self._journal_leases()
                    self._release_verifies(name)
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
                shard = int(frame["shard"])
                if shard < 0:
                    # A verify lease ran to completion; any key not
                    # answered (dropped frame) becomes grantable again.
                    self._release_verify_lease(int(frame["lease"]))
                else:
                    self.board.finish(shard, int(frame["lease"]), now)
                    self._journal_leases()
                self._maybe_finish()
            else:
                raise ProtocolError(f"unexpected {kind!r} from {name!r}")
        # This session saw the campaign finish: tell the worker now —
        # the serve loop's broadcast cannot reach it once this
        # handler's cleanup has unregistered the writer.
        if not self.stopped:
            write_frame(writer, {"type": "done"})
            await writer.drain()
            # Then read until the worker hangs up: closing with its
            # pipelined frames unread would reset the connection, and a
            # reset can destroy the done frame before the worker reads
            # it, leaving it reconnecting against a dead port forever.
            try:
                async def _drain():
                    while await read_frame(reader) is not None:
                        pass
                await asyncio.wait_for(_drain(), timeout=2.0)
            except (TimeoutError, asyncio.TimeoutError, ProtocolError,
                    ConnectionError, OSError):
                pass

    # -- work granting ----------------------------------------------------------

    def _grant(self, name: str, now: float) -> dict:
        """The frame answering one worker's ``request``."""
        grant = self.board.acquire(name, now)
        if grant is None:
            verify = self._grant_verify(name)
            if verify is not None:
                return verify
            if self._check_pending:
                # Regular work is exhausted but cross-checks are
                # unresolved; hold the fleet until they settle (or the
                # watchdog's patience expires).
                return {"type": "wait",
                        "seconds": max(0.05, self.policy.heartbeat / 2)}
            return {"type": "done"}
        if isinstance(grant, float):
            return {"type": "wait", "seconds": grant}
        self._journal_leases()
        return {"type": "lease", "lease": grant.lease_id,
                "shard": grant.shard,
                "keys": [list(key) for key in grant.keys]}

    def _grant_verify(self, name: str) -> dict | None:
        """A verify lease re-executing other workers' sampled keys."""
        keys = sorted(
            key for key, (worker, _crc) in self._check_pending.items()
            if worker != name and key not in self._inflight_keys)
        if not keys:
            return None
        keys = keys[:VERIFY_BATCH]
        self._next_verify_id -= 1
        lease_id = self._next_verify_id
        self._check_inflight[lease_id] = (name, tuple(keys))
        self._inflight_keys.update(keys)
        return {"type": "lease", "lease": lease_id, "shard": -1,
                "verify": True, "keys": [list(key) for key in keys]}

    def _release_verify_lease(self, lease_id: int) -> None:
        entry = self._check_inflight.pop(lease_id, None)
        if entry is not None:
            self._inflight_keys.difference_update(entry[1])

    def _release_verifies(self, name: str) -> None:
        """A worker left; its in-flight verify keys become grantable."""
        for lease_id, (worker, _keys) in list(self._check_inflight.items()):
            if worker == name:
                self._release_verify_lease(lease_id)

    # -- result acceptance ------------------------------------------------------

    def _accept_results(self, name: str, frame: dict, now: float) -> None:
        """Take one send window.  Integrity stays per class — a bad
        item is rejected, its neighbours merge — while the journal
        merge is one call for the whole window."""
        if self.stopped:
            return  # the crash hook fired: nothing after the k-th class
        items = frame.get("items")
        if not isinstance(items, list):
            self._reject(name, None, kind="shape-reject",
                         reason="malformed results frame")
            return
        window: list[tuple] = []
        #: Per key, its first copy's ``(run, digest, counts)``.
        copies: dict[tuple, tuple] = {}
        for item in items:
            checked = self._checked(name, item)
            if checked is None:
                continue
            key, shard, run, digest, counts = checked
            if key in self._disputed:
                continue  # its two executions disagreed: it stays missing
            if shard < 0:
                self._accept_verify(name, key, digest)
                continue
            self.board.progress(shard, key, now)
            window.append((key, run))
            copies.setdefault(key, (run, digest, counts))
        # A verify item of this window may have disputed a key that an
        # earlier item of it carries.
        window = [entry for entry in window
                  if entry[0] not in self._disputed]
        merge, keep = self.style.merge, self.style.keep
        while window and not self.stopped:
            # Late or duplicate copies (expired lease, retransmit) are
            # not fresh: the journal already holds the identical run.
            # With the crash hook armed, a merge takes at most the
            # units it has left, so the k-th unit is the last one.
            take = len(window) if self.stop_after_results is None \
                else max(1, self.stop_after_results - self._accepted)
            fresh = merge(self.run, window[:take])
            for key in fresh:
                self._account(name, key, *copies[key])
            self.run.count([(key, keep(key, copies[key][0]))
                            for key in fresh])
            window = window[take:]
        self._maybe_finish()

    def _checked(self, name: str, item):
        """``(key, shard, run, digest, counts)`` of one unit of a
        window whose CRC and shape hold; otherwise the unit is
        rejected and the answer is ``None``."""
        try:
            key = tuple([int(v) for v in item["key"]])
            shard = int(item["shard"])
            first, second, third = item["run"]
            run = (first, second, third)
            digest = result_digest(key, run)
            counts = (int(item.get("hits", 0)), int(item.get("skips", 0)))
        except (KeyError, TypeError, ValueError):
            self._reject(name, None, kind="shape-reject",
                         reason="malformed unit result")
            return None
        if item.get("crc") != digest:
            self._reject(name, key, kind="crc-reject",
                         reason="CRC disagrees with payload")
            return None
        if key not in self._units or not self.style.valid_run(key, run):
            self._reject(name, key, kind="shape-reject",
                         reason="run disagrees with the unit's expected "
                                "experiments")
            return None
        if shard >= self._planned_shards:
            self._reject(name, key, kind="shape-reject",
                         reason=f"no shard {shard} in the plan")
            return None
        return key, shard, run, digest, counts

    def _account(self, name: str, key: tuple, run: tuple, digest: int,
                 counts: tuple) -> None:
        """What the fabric adds to the sink's count of one unit the
        journal took fresh (its first delivery)."""
        self._runs[key] = run
        if self._crosscheck_selected(key):
            self._check_pending[key] = (name, digest)
            self._drain_deadline = None
            self.report.crosschecked += 1
        self.report.count(counts)
        self._worker_units[name] += 1
        self._accepted += 1
        if (self.stop_after_results is not None
                and self._accepted >= self.stop_after_results):
            self.stopped = True
            self._done.set()

    def _accept_verify(self, name: str, key: tuple, digest: int) -> None:
        """Compare a cross-check re-execution against the first copy."""
        entry = self._check_pending.get(key)
        if entry is None:
            return  # duplicate or post-patience verify delivery
        worker, crc = entry
        if worker == name:
            return  # a worker must never confirm itself
        del self._check_pending[key]
        self._inflight_keys.discard(key)
        if crc == digest:
            return
        # Two verified builds computed different outcomes for one unit.
        # Nothing here can say which is right, so nothing is kept: the
        # row goes, every later copy is refused, and the key is left
        # missing for a rerun on the same journal to re-execute.
        self.report.crosscheck_mismatches += 1
        self.handle.record_event(
            "crosscheck-mismatch", worker=worker, at=time.time(),
            detail=f"{list(key)}: {worker} digest {crc}, "
                   f"{name} digest {digest}")
        if self.style.discard(self.handle, [key]):
            self.report.discarded_results += 1
            self.run.done -= 1
        self.run.fresh.pop(key, None)
        self._runs.pop(key, None)
        self._disputed.add(key)

    # -- integrity helpers ------------------------------------------------------

    def _reject(self, name: str, key, *, kind: str, reason: str) -> None:
        """Refuse one class result before it touches any accounting: it
        is not progress, so its lease re-grants it."""
        self.report.integrity_rejected += 1
        detail = reason if key is None else f"{list(key)}: {reason}"
        self.handle.record_event(kind, worker=name, detail=detail,
                                 at=time.time())

    def _drain_crosschecks(self, now: float) -> None:
        """Once work is done, give pending cross-checks
        :data:`CROSSCHECK_PATIENCE` seconds for a second worker (a
        one-worker fleet never has one), then count them
        ``crosscheck_unverified`` instead of hanging the campaign."""
        if self._done.is_set() or not self.board.done():
            self._drain_deadline = None
            return
        if not self._check_pending and not self._inflight_keys:
            return
        if self._drain_deadline is None:
            self._drain_deadline = now + CROSSCHECK_PATIENCE
            return
        if now < self._drain_deadline:
            return
        for key in sorted(self._check_pending):
            self.report.crosscheck_unverified += 1
            self.handle.record_event(
                "crosscheck-stale", at=time.time(),
                worker=self._check_pending[key][0],
                detail=f"{list(key)}: no second worker re-executed it")
        self._check_pending.clear()
        self._check_inflight.clear()
        self._inflight_keys.clear()

    def _crosscheck_selected(self, key: tuple) -> bool:
        """Deterministic per-key sampling at the configured fraction."""
        if self.crosscheck <= 0.0:
            return False
        if self.crosscheck >= 1.0:
            return True
        rng = random.Random("crosscheck/" + "/".join(map(str, key)))
        return rng.random() < self.crosscheck

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
        if self._done.is_set() or not self.board.done():
            return
        if self._check_pending or self._inflight_keys:
            return  # the watchdog's patience timer resolves these
        self._done.set()


# -- entry points ---------------------------------------------------------------


def serve_scan(transport, *, journal=None, resume: bool = True,
               keep_records: bool = False,
               progress: ProgressCallback | None = None):
    """Run a full scan with ``transport`` — a :class:`DistCoordinator`
    or a :class:`LocalFabric` — through
    :func:`~repro.campaign.pipeline.run_campaign`.

    Returns the same :class:`~repro.campaign.runner.CampaignResult` a
    serial run would, or ``None`` when the crash hook fired.
    """
    style = ScanStyle(transport.golden, transport.domain, transport.params,
                      keep_records=keep_records)
    try:
        return run_campaign(style, transport, journal, resume, progress)
    except CoordinatorStopped:
        return None


def _free_server_socket(host: str) -> socket.socket:
    return socket.create_server((host, 0))


def _local_worker(host: str, port: int, name: str) -> None:
    """What each :class:`LocalFabric` worker process runs."""
    DistWorker(host, port, name=name).run()


class LocalFabric:
    """The workers transport (``jobs=N``, ``scan --jobs N``): bind an
    ephemeral port on ``host``, fork ``workers`` local workers (the
    multiprocessing start method; nothing is re-imported), serve the
    run through a :class:`DistCoordinator` in the calling thread, then
    terminate and reap every worker still running.  Each worker joins
    over TCP and verifies the campaign as a remote ``repro worker``
    does.  One that exits while work remains is replaced, once; with
    none left alive the rest is failed (``missing``), not waited for.
    Its interchangeable forks go unattributed in
    ``ExecutionReport.workers``, as in process."""

    def __init__(self, golden: GoldenRun, workers: int, *,
                 domain: FaultDomain | str = MEMORY,
                 config: ExecutorConfig | None = None,
                 policy: RetryPolicy | None = None,
                 shards: int = DEFAULT_SHARDS,
                 crosscheck: float = 0.0, host: str = "127.0.0.1"):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.golden = golden
        self.domain = get_domain(domain)
        self.config = dataclasses.replace(config or ExecutorConfig(),
                                          domain=self.domain.name)
        self.params = campaign_params(golden, self.config)
        self.workers, self.host = workers, host
        self._serving = dict(policy=policy, shards=shards,
                             crosscheck=crosscheck)

    def __call__(self, run: CampaignRun) -> None:
        sock = _free_server_socket(self.host)
        # The port dies with the coordinator, not with the last worker.
        register_after_fork(sock, socket.socket.close)
        self._port = sock.getsockname()[1]
        #: The process of each worker slot, and every one ever started.
        self._fleet, self._procs, self._replaced = [], [], set()
        # After binding, all is inside the try: a refused argument or a
        # failed start must not leave the socket open, nor started
        # workers reconnecting forever.
        try:
            coordinator = DistCoordinator(
                self.golden, sock=sock, domain=self.domain,
                executor_config=self.config, expected_workers=self.workers,
                **self._serving)
            coordinator.fleet = self
            for index in range(self.workers):
                self._fleet.append(self._start(f"worker-{index}"))
            coordinator(run)
        finally:
            # Serving closes the socket itself; closing it again is a no-op.
            sock.close()
            for proc in self._procs:
                proc.terminate()  # a worker that has exited ignores it
            for proc in self._procs:
                proc.join()

    def _start(self, name: str):
        proc = multiprocessing.get_context().Process(
            target=_local_worker, args=(self.host, self._port, name))
        proc.start()
        self._procs.append(proc)
        return proc

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
                         shards: int = DEFAULT_SHARDS,
                         journal=None, resume: bool = True,
                         keep_records: bool = False,
                         progress: ProgressCallback | None = None,
                         host: str = "127.0.0.1",
                         crosscheck: float = 0.0):
    """:func:`serve_scan` over a :class:`LocalFabric` of ``workers``
    local worker processes (a full ``repro scan --jobs N``)."""
    return serve_scan(
        LocalFabric(golden, workers, domain=domain, config=executor_config,
                    policy=policy, shards=shards,
                    crosscheck=crosscheck, host=host),
        journal=journal, resume=resume, keep_records=keep_records,
        progress=progress)


def serve_in_thread(coordinator: DistCoordinator,
                    **campaign) -> "CoordinatorThread":
    """:func:`serve_scan` (``campaign``: its keyword arguments) on a
    started background thread, for tests and benchmarks."""
    thread = CoordinatorThread(coordinator, **campaign)
    thread.start()
    return thread


class CoordinatorThread(threading.Thread):
    """A :func:`serve_scan` thread keeping its result or exception."""

    def __init__(self, coordinator: DistCoordinator, **campaign):
        super().__init__(target=self._serve, args=(coordinator,),
                         kwargs=campaign, daemon=True)
        self.result = None
        self.error: BaseException | None = None

    def _serve(self, coordinator, **campaign) -> None:
        try:
            self.result = serve_scan(coordinator, **campaign)
        except BaseException as exc:  # captured for the joining test
            self.error = exc

    def join_result(self, timeout: float | None = None):
        self.join(timeout)
        if self.is_alive():
            raise TimeoutError("coordinator thread did not finish")
        if self.error is not None:
            raise self.error
        return self.result


__all__ = [
    "DEFAULT_SHARDS",
    "CoordinatorStopped",
    "CoordinatorThread",
    "DistCoordinator",
    "LocalFabric",
    "run_distributed_scan",
    "serve_in_thread",
    "serve_scan",
    "FAILED",
]
