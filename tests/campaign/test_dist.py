"""Distributed campaign fabric tests: equality, leases, chaos.

The contract mirrors the journal's: a distributed scan — any worker
count, any interleaving, any amount of node loss short of exhausting the
retry budget — produces a result *bit-for-bit identical* to the serial
runner.  These tests drive the real socket-pair stack (coordinator on a
thread, workers on threads or forked processes) and inject the
failures a fork pool can see: workers that die (a hang-up of their
stream), duplicated deliveries, a coordinator restart mid-campaign,
shards lost for good — and, from hand-driven peers, every frame the
coordinator must refuse.
"""

import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.campaign import (
    export_class_results_csv,
    record_golden,
    run_distributed_scan,
    run_full_scan,
    run_sampling,
)
from repro.campaign.dist import (
    DistCoordinator,
    DistWorker,
    FrameStream,
    LeaseBoard,
    LocalFabric,
    ProtocolError,
    decode_frame,
    encode_frame,
    serve_scan,
)
from repro.campaign.dist.leases import FAILED
from repro.campaign.runner import ScanStyle
from repro.faultspace.domain import MEMORY, get_domain
from repro.programs import hi, micro, sync2

from .chaos import ChaosPlan, chaotic_fleet
from .fabric import ThreadFleet, run_dist, serve_in_thread
from .journal_rows import class_experiments, stored_experiments


@pytest.fixture(scope="module")
def memory_golden():
    return record_golden(micro.memcopy(6))


@pytest.fixture(scope="module")
def register_golden():
    return record_golden(hi.baseline())


@pytest.fixture(scope="module")
def memory_baseline(memory_golden):
    return run_full_scan(memory_golden, keep_records=True)


@pytest.fixture(scope="module")
def register_baseline(register_golden):
    return run_full_scan(register_golden, keep_records=True,
                         domain="register")


def _fleet(*names) -> ThreadFleet:
    """A thread fleet of honest workers called ``names``."""
    fleet = ThreadFleet()
    for name in names:
        fleet.add(name)
    return fleet


def _scan_style(golden, domain="memory") -> ScanStyle:
    """The style a full scan's workers inherit."""
    return ScanStyle(golden, get_domain(domain))


class TestProtocol:
    def test_frame_round_trip(self):
        message = {"type": "result", "rows": [[0, "sdc", 12, ""]]}
        assert decode_frame(encode_frame(message)[4:]) == message

    def test_undecodable_payload_rejected(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_frame(b"\xff\xfe not json")

    def test_untyped_message_rejected(self):
        with pytest.raises(ProtocolError, match="typed"):
            decode_frame(json.dumps([1, 2, 3]).encode())
        with pytest.raises(ProtocolError, match="typed"):
            decode_frame(json.dumps({"no_type": 1}).encode())

    def test_stream_read_and_partial_poll(self):
        left, right = socket.socketpair()
        try:
            a, b = FrameStream(left), FrameStream(right)
            a.send({"type": "request", "n": 1})
            a.send({"type": "request", "n": 2})
            assert b.read(timeout=1.0)["n"] == 1
            assert b.poll()["n"] == 2
            assert b.poll() is None  # nothing buffered, does not block
        finally:
            left.close()
            right.close()

    def test_clean_eof_is_none_mid_frame_is_error(self):
        left, right = socket.socketpair()
        stream = FrameStream(right)
        left.close()
        assert stream.read(timeout=1.0) is None
        left2, right2 = socket.socketpair()
        stream2 = FrameStream(right2)
        left2.sendall(encode_frame({"type": "x"})[:5])  # truncated
        left2.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            stream2.read(timeout=1.0)
        right2.close()

    def test_poll_reports_a_hang_up_clean_or_mid_frame(self):
        """``poll`` answers None without blocking whether the peer is
        quiet or gone; ``eof`` tells which — after a whole frame or
        half of one — and a blocking ``read`` still refuses the torn
        frame."""
        left, right = socket.socketpair()
        stream = FrameStream(right)
        left.sendall(encode_frame({"type": "x"}))
        left.close()
        assert stream.poll() == {"type": "x"}
        assert stream.poll() is None and stream.eof
        assert stream.read(timeout=1.0) is None
        right.close()
        left, right = socket.socketpair()
        stream = FrameStream(right)
        left.sendall(encode_frame({"type": "x"})[:5])
        assert stream.poll() is None and not stream.eof
        left.close()
        assert stream.poll() is None and stream.eof
        with pytest.raises(ProtocolError, match="mid-frame"):
            stream.read(timeout=1.0)
        right.close()

    def test_absurd_length_rejected(self):
        left, right = socket.socketpair()
        stream = FrameStream(right)
        left.sendall((1 << 30).to_bytes(4, "big"))
        with pytest.raises(ProtocolError, match="limit"):
            stream.read(timeout=1.0)
        left.close()
        right.close()


class TestLeaseBoard:
    def _board(self, *, max_retries=2, shards=2):
        board = LeaseBoard(max_retries=max_retries)
        keys = [[(0, 1), (0, 2)], [(1, 1), (1, 2)]]
        for index in range(shards):
            board.add_shard(list(keys[index]))
        return board

    def test_grants_then_waits_then_done(self):
        """With every shard leased, a third worker gets nothing — its
        request waits at the coordinator — and none once all is done."""
        board = self._board()
        assert board.acquire("a") == ((0, 1), (0, 2))
        assert board.acquire("b") == ((1, 1), (1, 2))
        assert board.acquire("c") is None
        for key in [(0, 1), (0, 2), (1, 1), (1, 2)]:
            board.progress("a" if key[0] == 0 else "b", key)
        assert board.done()
        assert board.acquire("c") is None

    def test_progress_deduplicates(self):
        """A copy drops, one that arrives after its shard is done
        included, and a unit counts only against its sender's shard."""
        board = self._board()
        board.acquire("a")
        board.acquire("b")
        assert board.progress("a", (0, 1)) is True
        assert board.progress("a", (0, 1)) is False
        assert board.progress("a", (1, 1)) is False  # b's shard
        assert board.progress("a", (0, 2)) is True
        first, second = board.shards()
        assert first.status == "done" and second.remaining == [(1, 1),
                                                                (1, 2)]
        assert board.progress("a", (0, 2)) is False
        assert board.holds("a")  # until its next request or hang-up

    def test_a_hang_up_requeues_at_once_then_fails(self):
        """A released shard is pending again at once — no embargo, no
        clock — and is failed once its attempts pass the budget."""
        board = self._board(max_retries=1, shards=1)
        board.acquire("a")
        board.release("a")
        assert board.retries == 1 and not board.holds("a")
        assert board.acquire("b") == ((0, 1), (0, 2))
        board.release("b")
        assert board.failed_shards == 1
        assert [key for shard in board.shards() if shard.status == FAILED
                for key in shard.remaining] == [(0, 1), (0, 2)]
        # Permanently lost work is terminal state, not a hang.
        assert board.done()
        assert board.acquire("c") is None

    def test_disconnect_releases_only_that_workers_leases(self):
        board = self._board()
        board.acquire("a")
        board.acquire("b")
        board.release("a")
        first, second = board.shards()
        assert first.status == "pending" and first.attempts == 1
        assert second.status == "leased" and second.attempts == 0
        assert board.holds("b") and not board.holds("a")

    def test_a_request_with_undelivered_keys_is_a_failed_attempt(self):
        """A worker's next request ends its lease: a shard it left
        unfinished (a rejected unit) is charged an attempt and leased
        again with only its unfinished keys; a finished one is not."""
        board = self._board()
        board.acquire("a")
        board.progress("a", (0, 1))
        board.release("a")
        assert board.retries == 1  # (0, 2) was never submitted
        assert board.acquire("a") == ((0, 2),)
        board.progress("a", (0, 2))
        board.release("a")
        assert board.retries == 1
        assert board.shards()[0].status == "done"


class TestDistEquality:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_memory_scan_is_bit_for_bit_serial(
            self, workers, memory_golden, memory_baseline):
        result, coordinator, _ = run_dist(memory_golden, workers=workers)
        assert result == memory_baseline
        assert result.records == memory_baseline.records
        assert result.execution.complete
        assert sum(units for _, units in result.execution.workers) \
            == result.execution.executed

    def test_register_scan_is_bit_for_bit_serial(
            self, register_golden, register_baseline):
        result, _, _ = run_dist(register_golden, domain="register")
        assert result == register_baseline
        assert result.records == register_baseline.records

    def test_csv_export_is_byte_identical(self, tmp_path, memory_golden,
                                          memory_baseline):
        result, _, _ = run_dist(memory_golden)
        dist_csv, serial_csv = tmp_path / "d.csv", tmp_path / "s.csv"
        export_class_results_csv(result, dist_csv)
        export_class_results_csv(memory_baseline, serial_csv)
        assert dist_csv.read_bytes() == serial_csv.read_bytes()


class TestDistChaos:
    def test_killed_worker_is_survived(self, monkeypatch, memory_golden,
                                       memory_baseline):
        """One worker dies mid-shard — its stream hangs up, exactly what
        SIGKILL looks like from the coordinator — and never comes back;
        its standby takes the re-leased work.  The standby starts only
        as its replacement, so the outcome does not depend on who wins
        the first lease."""
        import repro.campaign.dist.worker as worker_mod

        # A window a class, so the two classes before the death arrive.
        monkeypatch.setattr(worker_mod, "WINDOW_CLASSES", 1)
        fleet = ThreadFleet()
        doomed = fleet.add("w0", ChaosPlan(die_after_results=2),
                           respawn=False)
        fleet.add("w1", standby=True)
        coordinator = DistCoordinator(fleet, shards=4)
        thread = serve_in_thread(coordinator, memory_golden,
                                 keep_records=True)
        result = thread.join_result(120)
        fleet.join()
        assert not fleet.errors
        # The chaos worker died for good, at its third class...
        assert not doomed.thread.is_alive()
        assert fleet.deaths == ["w0"]
        # ...and the campaign still matches the serial ground truth.
        assert result == memory_baseline
        assert result.records == memory_baseline.records
        assert result.execution.complete
        assert dict(result.execution.workers)["w0"] == 2

    def test_a_dropped_stream_is_a_worker_death(
            self, memory_golden, memory_baseline):
        """A worker whose stream drops mid-lease is dead: nothing
        reconnects.  Its lease is re-granted at its hang-up — here to
        the same worker, re-served by its fleet over a fresh pair — and
        the result is bit-identical: nothing lost, nothing
        double-counted."""
        result, _, fleet = run_dist(
            memory_golden, workers=1,
            worker_chaos=[ChaosPlan(die_after_results=3)])
        assert not fleet.errors
        assert fleet.deaths == ["w0"]
        assert fleet.slots[0].lives == 2
        assert result.execution.shard_retries == 1
        assert result == memory_baseline
        assert result.records == memory_baseline.records
        assert result.execution.executed == result.execution.total_units

    def test_duplicate_deliveries_account_exactly_once(
            self, monkeypatch, memory_golden, memory_baseline):
        """Every window leaves twice: the lease board takes each unit
        once."""
        import repro.campaign.dist.worker as worker_mod

        flush = worker_mod._flush
        monkeypatch.setattr(worker_mod, "_flush", lambda stream, window: (
            flush(stream, list(window)), flush(stream, window)))
        result, _, _ = run_dist(memory_golden)
        assert result == memory_baseline
        assert result.execution.executed == result.execution.total_units
        assert sum(units for _, units in result.execution.workers) \
            == result.execution.total_units

    def test_coordinator_restart_resumes_from_the_journal(
            self, tmp_path, memory_golden, memory_baseline):
        """Crash the coordinator after 4 accepted results; a new one on
        the same journal, with a fleet of its own, finishes."""
        journal = tmp_path / "dist.sqlite"
        first = DistCoordinator(_fleet("w0"), shards=4, stop_after_results=4)
        thread = serve_in_thread(first, memory_golden, journal=journal)
        assert thread.join_result(60) is None
        assert first.stopped
        second = DistCoordinator(_fleet("w0"), shards=4)
        result = serve_in_thread(second, memory_golden, journal=journal,
                                 keep_records=True).join_result(60)
        for fleet in (first.fleet, second.fleet):
            fleet.join()
            assert not fleet.errors
        assert result == memory_baseline
        assert result.records == memory_baseline.records
        assert result.execution.resumed == 4
        assert result.execution.executed \
            == result.execution.total_units - 4

    def test_crashed_coordinator_leaves_exactly_the_accepted_classes(
            self, tmp_path, memory_golden):
        """The crash hook returns through the same exit an exception
        would: every accepted class is committed, whole, and nothing
        else is."""
        journal = tmp_path / "dist.sqlite"
        coordinator = DistCoordinator(_fleet("w0"), shards=4,
                                      stop_after_results=5)
        thread = serve_in_thread(coordinator, memory_golden, journal=journal)
        assert thread.join_result(60) is None
        coordinator.fleet.join()
        assert list(class_experiments(journal).values()) == [8] * 5

    def test_a_stopped_coordinators_classes_reach_the_section_store(
            self, tmp_path, memory_golden):
        """The classes a stopped coordinator journaled were stored with
        their window, so once a serial resume completes the campaign
        the section store holds every experiment, as after a serial
        journaled scan, and a fresh sweep composes them all."""
        journal = tmp_path / "dist.sqlite"
        coordinator = DistCoordinator(_fleet("w0"), shards=4,
                                      stop_after_results=5)
        thread = serve_in_thread(coordinator, memory_golden, journal=journal)
        assert thread.join_result(60) is None
        coordinator.fleet.join()
        resumed = run_full_scan(memory_golden, journal=journal)
        assert resumed.execution.resumed == 5
        serial = tmp_path / "serial.sqlite"
        run_full_scan(memory_golden, journal=serial)
        assert stored_experiments(journal) \
            == stored_experiments(serial) \
            == resumed.experiments_conducted
        swept = run_full_scan(memory_golden, journal=journal, resume=False)
        assert swept.execution.executed == 0

    def test_lost_forever_shard_degrades_not_hangs(self, memory_golden,
                                                   memory_baseline):
        """With a zero retry budget, a shard whose only attempt dies is
        abandoned: the campaign returns a partial result listing the
        missing classes instead of waiting forever."""
        result, _, _ = run_dist(
            memory_golden,
            worker_chaos=[ChaosPlan(die_after_results=1), None],
            respawn=False, max_retries=0)
        execution = result.execution
        assert not execution.complete
        assert execution.failed_shards >= 1
        assert execution.missing
        assert 0.0 < execution.completeness < 1.0
        # Everything that was completed matches the ground truth.
        for key, outcomes in result.class_outcomes.items():
            assert outcomes == memory_baseline.class_outcomes[key]


class _RawWorker:
    """A hand-driven peer: one end of a pair the coordinator serves,
    frames sent by hand."""

    def __init__(self, fleet: ThreadFleet, name: str = "raw"):
        self.fleet = fleet
        self.stream_name = name
        self.stream = fleet.raw(name)

    def lease(self) -> dict:
        """Ask for work: the answer, a lease or ``done``."""
        self.stream.send({"type": "request"})
        return self.stream.read(timeout=5.0)

    def items(self, lease: dict) -> list[dict]:
        """The items an honest worker sends for a lease's keys."""
        return [item for window in _run_lease(self.fleet.style, lease)
                for item in window]

    def results(self, items) -> None:
        self._send({"type": "results", "items": list(items)})

    def _send(self, message: dict) -> None:
        """Send, as a worker does: a coordinator that finished the
        campaign on the frames before this one has hung up."""
        try:
            self.stream.send(message)
        except (BrokenPipeError, ConnectionResetError):
            pass

    def close(self) -> None:
        self.stream.close()


class _Gated:
    """``style`` whose ``execute`` yields nothing before ``gate`` is
    set."""

    def __init__(self, style, gate: threading.Event):
        self._style, self._gate = style, gate

    def __getattr__(self, name):
        return getattr(self._style, name)

    def execute(self, executor, work):
        for unit in self._style.execute(executor, work):
            assert self._gate.wait(10)
            yield unit


class TestWorkerWait:
    """A request that finds no pending shard waits at the coordinator,
    and its worker waits reading: no ``wait`` frame, no clock."""

    def _two_peers(self, golden):
        """Serve ``golden`` to two hand-driven peers, one shard each (a
        peer holds one lease at a time); the second delivers its shard
        whole and asks again, and the coordinator parks that request:
        ``(thread, first, second, lease)``, ``lease`` the first's."""
        fleet = ThreadFleet()
        first, second = _RawWorker(fleet, "first"), _RawWorker(fleet, "second")
        coordinator = DistCoordinator(fleet, shards=1)
        thread = serve_in_thread(coordinator, golden, keep_records=True)
        lease, other = first.lease(), second.lease()
        assert lease["type"] == other["type"] == "lease"
        assert not set(map(tuple, lease["keys"])) \
            & set(map(tuple, other["keys"]))
        second.results(second.items(other))
        second.stream.send({"type": "request"})
        deadline = time.monotonic() + 10.0
        while coordinator._parked != ["second"]:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        return thread, first, second, lease

    def test_a_parked_request_gets_the_lease_a_hang_up_returns(
            self, memory_golden, memory_baseline):
        """The holder of the other shard hangs up: its lease goes back
        to pending at once, and answers the waiting request."""
        thread, first, second, lease = self._two_peers(memory_golden)
        first.close()
        again = second.stream.read(timeout=5.0)
        assert again == {"type": "lease", "keys": lease["keys"]}
        second.results(second.items(again))
        result = thread.join_result(60)
        second.close()
        assert result == memory_baseline
        execution = result.execution
        assert execution.shard_retries == 1
        assert execution.workers == (("second", execution.total_units),)

    def test_a_parked_request_is_answered_done_at_the_end(
            self, memory_golden, memory_baseline):
        thread, first, second, lease = self._two_peers(memory_golden)
        first.results(first.items(lease))
        assert second.stream.read(timeout=5.0) == {"type": "done"}
        result = thread.join_result(60)
        first.close()
        second.close()
        assert result == memory_baseline
        assert result.execution.shard_retries == 0

    def test_a_parked_worker_returns_when_done_arrives(self, memory_golden):
        """A worker whose request is not answered at once waits reading
        its stream: a hand-driven coordinator answers only after 50 ms,
        with ``done``, and the worker returns at once."""
        ours, theirs = socket.socketpair()
        said_done: list[float] = []

        def coordinate():
            with ours:
                stream = FrameStream(ours)
                stream.read(timeout=5.0)  # request
                time.sleep(0.05)
                said_done.append(time.monotonic())
                stream.send({"type": "done"})
                stream.read(timeout=5.0)  # until the worker hangs up

        thread = threading.Thread(target=coordinate, daemon=True)
        thread.start()
        worker = DistWorker(theirs, _scan_style(memory_golden))
        assert worker.run() == 0
        returned = time.monotonic()
        thread.join(10)
        assert returned - said_done[0] < 0.5

    def test_a_peer_that_hangs_up_mid_lease_ends_the_worker(
            self, monkeypatch, memory_golden):
        """The coordinator grants a lease, then hangs up before the
        worker's first window leaves: the worker returns at that send,
        with one class executed — no retry, no reconnect, the rest of
        the lease left undone."""
        import repro.campaign.dist.worker as worker_mod

        monkeypatch.setattr(worker_mod, "WINDOW_CLASSES", 1)
        style = _scan_style(memory_golden)
        hung_up = threading.Event()
        ours, theirs = socket.socketpair()

        def coordinate():
            stream = FrameStream(ours)
            assert stream.read(timeout=5.0)["type"] == "request"
            stream.send({"type": "lease",
                         "keys": [list(key) for key in style.units]})
            ours.close()
            hung_up.set()

        thread = threading.Thread(target=coordinate, daemon=True)
        thread.start()
        worker = DistWorker(theirs, _Gated(style, hung_up))
        start = time.monotonic()
        assert worker.run() == 1
        assert time.monotonic() - start < 5.0
        thread.join(10)
        assert len(style.units) > 1


class _RecordingStream:
    """The worker-side stream surface, keeping what was sent."""

    def __init__(self):
        self.sent: list[dict] = []
        self.closed = False

    def send(self, message: dict) -> None:
        assert not self.closed
        self.sent.append(message)

    def close(self) -> None:
        self.closed = True

    def windows(self) -> list[list[dict]]:
        """The items of every ``results`` frame sent, frame by frame."""
        return [message["items"] for message in self.sent
                if message["type"] == "results"]


def _run_lease(style, lease: dict | None = None, calls=None):
    """Run one lease (default: every unit) of ``style`` through a real
    worker's lease loop against a recording stream; ``calls``, a list,
    gets the batch size of every ``run_many`` call the executor
    serves."""
    worker = DistWorker(None, style)
    stream = _RecordingStream()
    executor = style.config.build(style.golden)
    if calls is not None:
        run_many = executor.run_many
        executor.run_many = lambda coords: (calls.append(len(coords)),
                                            run_many(coords))[1]
    if lease is None:
        lease = {"keys": [list(key) for key in style.units]}
    worker._run_lease(stream, lease, executor, style)
    assert len(stream.windows()) == len(stream.sent)  # results alone
    return stream.windows()


class TestSendWindow:
    """The wire unit is the worker's send window; the unit of checks
    and accounting is still the class."""

    def test_results_frame_round_trip(self):
        run = ["sdc no-effect", "12 9", " "]
        message = {"type": "results", "items": [
            {"key": [0, 7], "run": run, "hits": 1, "skips": 0}]}
        assert decode_frame(encode_frame(message)[4:]) == message

    def _serve(self, golden, standby=None, **kw):
        """Serve ``golden`` to one hand-driven peer (and a ``standby``
        thread worker of that name to replace it): ``(coordinator,
        thread, raw)``."""
        fleet = ThreadFleet()
        raw = _RawWorker(fleet)
        if standby is not None:
            fleet.add(standby, standby=True)
        kw.setdefault("shards", 1)  # one lease holds every class
        journal = kw.pop("journal", None)
        coordinator = DistCoordinator(fleet, **kw)
        return coordinator, serve_in_thread(
            coordinator, golden, journal=journal, keep_records=True), raw

    def _one_item_spoiled(self, tmp_path, golden, baseline, index, spoil):
        """Serve one lease; send its window with item ``index`` replaced
        by ``spoil(item)``.  Only that class may be re-leased, and its
        honest copy then completes the campaign.  Returns the result,
        the reject events journaled, the honest item and the window."""
        from repro.campaign.journal import ExperimentJournal

        journal = tmp_path / "window.sqlite"
        _, thread, raw = self._serve(golden, journal=journal)
        lease = raw.lease()
        items = raw.items(lease)
        honest = dict(items[index])
        items[index] = spoil(honest)
        raw.results(items)
        # The next request ends the lease: only the rejected class is
        # re-leased.
        again = raw.lease()
        assert again["keys"] == [honest["key"]]
        raw.results([honest])
        result = thread.join_result(60)
        raw.close()
        assert result == baseline
        assert result.records == baseline.records
        assert result.execution.integrity_rejected == 1
        with ExperimentJournal(journal) as log:
            (entry,) = log.fabric_report()
        rejects = [event for event in entry["events"]
                   if event["kind"].endswith("-reject")]
        return result, rejects, honest, items

    def test_one_tampered_item_is_rejected_its_neighbours_merge(
            self, tmp_path, memory_golden, memory_baseline):
        def tamper(item):
            # In-flight corruption: one outcome too many for the class.
            outcomes, cycles, traps = item["run"]
            return {**item, "run": [f"{outcomes} sdc", cycles, traps]}

        result, rejects, honest, items = self._one_item_spoiled(
            tmp_path, memory_golden, memory_baseline, 3, tamper)
        assert result.execution.workers == (("raw", len(items)),)
        assert [event["kind"] for event in rejects] == ["shape-reject"]
        assert rejects[0]["detail"].startswith(str(honest["key"]))

    def test_a_trap_that_would_split_its_run_is_rejected(
            self, tmp_path, memory_golden, memory_baseline):
        """The journal stores a class's traps space-separated in one
        row, so a worker's trap holding a space — one space too many in
        the traps string — is a malformed class."""
        def split_trap(item):
            outcomes, cycles, traps = item["run"]
            return {**item,
                    "run": [outcomes, cycles, "memory fault" + traps]}

        _, rejects, _, _ = self._one_item_spoiled(
            tmp_path, memory_golden, memory_baseline, 2, split_trap)
        assert [event["kind"] for event in rejects] == ["shape-reject"]

    def test_a_lease_sends_only_results_frames(self, memory_golden):
        """A lease ends with its last window: a worker running one sends
        ``results`` frames and nothing else, each item a unit's key,
        run and counters — no shard, no lease id."""
        windows = _run_lease(_scan_style(memory_golden))  # results alone
        assert {tuple(sorted(item)) for items in windows
                for item in items} == {("hits", "key", "run", "skips")}

    def test_a_request_that_fails_the_last_shard_ends_the_campaign(
            self, memory_golden):
        """With no retry left, the request that ends a lease with a
        rejected unit fails its shard; that was the last unfinished
        one, so the campaign ends there — answered ``done`` — and the
        unit is missing, not waited for."""
        _, thread, raw = self._serve(memory_golden, max_retries=0)
        lease = raw.lease()
        items = raw.items(lease)
        spoiled = {**items[0], "run": ["sdc", "1", ""]}
        raw.results([spoiled] + items[1:])
        assert raw.lease() == {"type": "done"}
        result = thread.join_result(60)
        raw.close()
        execution = result.execution
        assert execution.failed_shards == 1
        assert execution.missing == (tuple(items[0]["key"]),)
        assert execution.executed == len(items) - 1

    def test_results_from_a_peer_holding_no_lease_end_its_connection(
            self, memory_golden, memory_baseline):
        """A unit comes from the lease its sender holds: results from a
        peer that asked for none are a protocol error on that
        connection alone — nothing of them is taken, no shard is
        charged — and the standby worker finishes the campaign."""
        _, thread, raw = self._serve(memory_golden, standby="honest")
        items = [item for window in _run_lease(_scan_style(memory_golden))
                 for item in window]
        raw.stream.send({"type": "results", "items": items})
        try:
            hung_up = raw.stream.read(timeout=5.0) is None
        except ConnectionError:
            hung_up = True
        raw.close()
        assert hung_up
        result = thread.join_result(60)
        raw.fleet.join()
        assert not raw.fleet.errors
        assert result == memory_baseline
        assert result.records == memory_baseline.records
        execution = result.execution
        assert execution.shard_retries == 0
        assert execution.workers == (("honest", execution.total_units),)

    @pytest.mark.parametrize("frame", [
        {"lease": 1, "shard": 99}, {"lease": 1, "shard": "x"},
        {"lease": 1}, {"lease": 1, "shard": -1}, {"lease": 1, "shard": 0}],
        ids=["out-of-plan", "not-a-number", "no-shard", "negative",
             "as-workers-sent-it"])
    def test_a_malformed_lease_done_ends_only_its_connection(
            self, memory_golden, memory_baseline, frame):
        """``lease_done`` is no frame of the protocol any more — a
        worker's next request ends its lease — so every one, whatever
        it names (the one workers once sent included), is an unknown
        type: a protocol error on that connection.  Its lease is
        released, and an honest worker, its replacement, then finishes
        the campaign to the serial result."""
        _, thread, raw = self._serve(memory_golden, standby="honest")
        assert raw.lease()["type"] == "lease"
        raw.stream.send({"type": "lease_done", **frame})
        try:
            hung_up = raw.stream.read(timeout=5.0) is None
        except ConnectionError:
            hung_up = True
        raw.close()
        assert hung_up
        result = thread.join_result(60)
        raw.fleet.join()
        assert not raw.fleet.errors
        assert result == memory_baseline
        assert result.records == memory_baseline.records
        assert result.execution.shard_retries == 1

    def test_duplicates_within_and_across_windows_account_once(
            self, memory_golden, memory_baseline):
        coordinator, thread, raw = self._serve(memory_golden)
        lease = raw.lease()
        items = raw.items(lease)
        raw.results([items[0], items[0], items[1]])
        raw.results([items[1]] + items[2:])
        result = thread.join_result(60)
        raw.close()
        assert result == memory_baseline
        assert result.execution.executed == result.execution.total_units
        assert result.execution.workers == (("raw", len(items)),)

    def test_stop_lands_mid_window_on_exactly_the_kth_class(
            self, tmp_path, memory_golden, memory_baseline):
        journal = tmp_path / "stop.sqlite"
        coordinator, thread, raw = self._serve(
            memory_golden, journal=journal, stop_after_results=5)
        lease = raw.lease()
        raw.results(raw.items(lease))  # 12 in one frame
        assert thread.join_result(60) is None
        raw.close()
        assert list(class_experiments(journal).values()) == [8] * 5
        result, _, _ = run_dist(memory_golden, workers=1, journal=journal)
        assert result == memory_baseline
        assert result.execution.resumed == 5
        assert result.execution.executed \
            == result.execution.total_units - 5

    def test_a_stop_on_the_last_class_is_not_an_assembly(
            self, tmp_path, memory_golden, memory_baseline):
        """The crash hook firing on the final class still raises out of
        the pipeline: nothing is assembled and the campaign is not
        marked complete, though every class is journaled — a serial
        resume then finishes it without executing anything."""
        from repro.campaign.journal import ExperimentJournal

        journal = tmp_path / "last.sqlite"
        total = len(memory_baseline.class_outcomes)
        _, thread, raw = self._serve(memory_golden, journal=journal,
                                     stop_after_results=total)
        lease = raw.lease()
        raw.results(raw.items(lease))
        assert thread.join_result(60) is None
        raw.close()
        with ExperimentJournal(journal) as log:
            (entry,) = log.campaigns()
        assert entry["status"] != "complete"
        resumed = run_full_scan(memory_golden, journal=journal,
                                keep_records=True)
        assert resumed == memory_baseline
        assert resumed.records == memory_baseline.records
        assert resumed.execution.executed == 0
        assert resumed.execution.resumed == total

    def test_a_copy_still_in_the_uncommitted_window_accounts_once(
            self, tmp_path, monkeypatch, memory_golden, memory_baseline):
        """With the journal's clock frozen and idle ticks not
        committing, the classes a first window took are still in the
        journal's uncommitted window when a second window repeats them:
        the lease board has taken their keys already, so each is
        journaled and accounted once."""
        import repro.campaign.journal as journal_mod
        from repro.campaign.pipeline import CampaignRun

        monkeypatch.setattr(journal_mod, "_clock", lambda: 0.0)
        monkeypatch.setattr(CampaignRun, "idle", lambda run: None)
        journal = tmp_path / "pending.sqlite"
        _, thread, raw = self._serve(memory_golden, journal=journal)
        lease = raw.lease()
        items = raw.items(lease)
        raw.results(items[:6])
        raw.results(items[3:])  # three copies of uncommitted classes
        result = thread.join_result(60)
        raw.close()
        assert result == memory_baseline
        assert result.execution.executed == result.execution.total_units
        assert result.execution.workers == (("raw", len(items)),)
        assert list(class_experiments(journal).values()) \
            == [8] * len(items)

    def test_the_crash_hook_counts_fresh_classes_not_copies(
            self, tmp_path, memory_golden, memory_baseline):
        """``stop_after_results=5`` on one window that repeats its
        classes: the window is merged in slices of the classes the hook
        has left, so exactly five classes are journaled — not fewer
        because copies used up the budget, not more because the merge
        took the whole window."""
        journal = tmp_path / "stop.sqlite"
        _, thread, raw = self._serve(memory_golden, journal=journal,
                                     stop_after_results=5)
        lease = raw.lease()
        items = raw.items(lease)
        raw.results([copy for item in items for copy in (item, item)])
        assert thread.join_result(60) is None
        raw.close()
        assert list(class_experiments(journal).values()) == [8] * 5
        result, _, _ = run_dist(memory_golden, workers=1, journal=journal)
        assert result == memory_baseline
        assert result.execution.resumed == 5

    def test_classes_sharing_a_slot_share_a_run_many_call(self):
        """One scan generator per lease: the classes of a lease that
        share an injection slot reach the executor as one group, as
        they do on every other transport — yet each leaves as its own
        item."""
        golden = record_golden(micro.memcopy(6))
        calls: list[int] = []
        items = [item for window in _run_lease(
            _scan_style(golden, domain="register"), calls=calls)
            for item in window]
        serial = run_full_scan(golden, domain="register")
        assert len(items) == len(serial.class_outcomes) == 66
        assert len(calls) == 60  # distinct injection slots
        assert sum(calls) == serial.experiments_conducted
        for item in items:
            outcomes = tuple(item["run"][0].split(" "))
            assert outcomes == tuple(
                outcome.value
                for outcome in serial.class_outcomes[tuple(item["key"])])

    def _window_sizes(self, golden, monkeypatch, clock):
        import repro.campaign.dist.worker as worker_mod

        monkeypatch.setattr(worker_mod, "_clock", clock)
        monkeypatch.setattr(worker_mod, "WINDOW_CLASSES", 5)
        windows = _run_lease(_scan_style(golden))
        # Whatever the grouping: every class exactly once.
        keys = [tuple(item["key"]) for window in windows for item in window]
        assert len(keys) == len(set(keys)) == 12
        return [len(window) for window in windows]

    def test_fast_classes_leave_in_full_windows(self, monkeypatch,
                                                memory_golden):
        """On a clock that stands still no window ever ages, so N
        classes leave in ⌈N / window⌉ frames."""
        assert self._window_sizes(memory_golden, monkeypatch,
                                  lambda: 0.0) == [5, 5, 2]

    def test_a_class_slower_than_the_window_leaves_alone(
            self, monkeypatch, memory_golden):
        """On a clock where every class takes a whole window, each is
        flushed by age as it finishes instead of waiting for company."""
        import itertools

        from repro.campaign.dist.worker import WINDOW_S

        ticks = itertools.count()
        assert self._window_sizes(
            memory_golden, monkeypatch,
            lambda: next(ticks) * WINDOW_S) == [1] * 12

    def test_a_window_without_frames_commits_the_journal(
            self, tmp_path, monkeypatch, memory_golden, memory_baseline):
        """With the journal's own clock frozen, only the coordinator
        commits what a window of results left buffered: once a whole
        commit window passes without a frame.  A second connection sees
        the first window's classes before the peer sends anything
        more."""
        import repro.campaign.dist.coordinator as coordinator_mod
        import repro.campaign.journal as journal_mod
        from repro.campaign.pipeline import CampaignRun

        monkeypatch.setattr(journal_mod, "_clock", lambda: 0.0)
        monkeypatch.setattr(coordinator_mod, "COMMIT_WINDOW_S", 0.02)
        idled = threading.Event()
        idle = CampaignRun.idle
        monkeypatch.setattr(CampaignRun, "idle", lambda run: (
            idle(run), run.report.executed and idled.set()))
        journal = tmp_path / "idle.sqlite"
        _, thread, raw = self._serve(memory_golden, journal=journal)
        lease = raw.lease()
        items = raw.items(lease)
        raw.results(items[:5])
        assert idled.wait(10)
        assert len(class_experiments(journal)) == 5
        raw.results(items[5:])
        result = thread.join_result(60)
        raw.close()
        assert result == memory_baseline
        assert len(class_experiments(journal)) == len(items)


#: The child of the frozen-clock test: ``jobs=2`` on memcopy(6).  The
#: coordinator module reads no clock at all (an event's stamp is the
#: journal's); the child still freezes ``time`` and ``_clock`` on it, so
#: a clock read brought back there would stand still.  ``worker-0``
#: stalls with its socket open after its second window, and the
#: campaign's process SIGKILLs it once its first is taken: mid-shard
#: either way.
_FROZEN_CLOCK_SIGKILL = """
import os, signal
import repro.campaign.dist.coordinator as coordinator_mod
import repro.campaign.dist.worker as worker_mod
from repro.campaign import record_golden, run_full_scan
from repro.campaign.dist import DistWorker, FrameStream
from repro.programs import micro


class Frozen:
    monotonic = time = staticmethod(lambda: 0.0)


coordinator_mod._clock = Frozen.monotonic
coordinator_mod.time = Frozen
worker_mod.WINDOW_CLASSES = 1

coordinators = []
init = coordinator_mod.DistCoordinator.__init__


def recorded(coordinator, *args, **kwargs):
    coordinators.append(coordinator)
    init(coordinator, *args, **kwargs)


coordinator_mod.DistCoordinator.__init__ = recorded


def local_worker(sock, style, name):
    if name == "worker-0":
        send, windows = FrameStream.send, []

        def send_then_stall(stream, message):
            send(stream, message)
            if message["type"] == "results":
                windows.append(1)
                if len(windows) == 2:
                    signal.pause()

        FrameStream.send = send_then_stall
    DistWorker(sock, style).run()


coordinator_mod._local_worker = local_worker
killed = []


def progress(done, total):
    coordinator = coordinators[0]
    # Its first window is taken: the second, the stall, is on its way.
    if coordinator._worker_units["worker-0"] >= 1 and not killed:
        fabric = coordinator.fleet
        os.kill(fabric._procs[0].pid, signal.SIGKILL)
        killed.append(1)


golden = record_golden(micro.memcopy(6))
serial = run_full_scan(golden, keep_records=True)
result = run_full_scan(golden, jobs=2, keep_records=True, progress=progress)
assert killed
assert result == serial and result.records == serial.records
assert result.execution.complete
print("shard_retries", result.execution.shard_retries)
"""


class TestDeadlines:
    """There is none: a lease ends at its peer's hang-up or protocol
    break, whatever a clock says."""

    def _serve(self, golden, shards, name="raw"):
        """Serve ``golden`` to one hand-driven peer, with a standby
        thread worker ``w0`` to replace it: ``(thread, raw)``."""
        fleet = ThreadFleet()
        raw = _RawWorker(fleet, name)
        fleet.add("w0", standby=True)
        coordinator = DistCoordinator(fleet, shards=shards)
        return serve_in_thread(coordinator, golden, keep_records=True), raw

    def test_a_peer_that_hangs_up_mid_frame_loses_its_lease(
            self, memory_golden, memory_baseline):
        """A peer that dies halfway through a ``results`` frame — its
        header and half its payload sent — ends its connection, not the
        campaign: its lease goes back to the board as a retry, and its
        replacement finishes the scan."""
        thread, raw = self._serve(memory_golden, shards=1)
        lease = raw.lease()
        frame = encode_frame({"type": "results", "items": raw.items(lease)})
        raw.stream._sock.sendall(frame[:4 + (len(frame) - 4) // 2])
        raw.close()
        result = thread.join_result(60)
        raw.fleet.join()
        assert not raw.fleet.errors
        assert result == memory_baseline
        execution = result.execution
        assert execution.shard_retries == 1
        assert execution.workers == (("w0", execution.executed),)

    @pytest.mark.parametrize("kind", ["heartbeat", "bogus"])
    def test_heartbeat_is_an_unknown_frame_like_any_other(
            self, kind, memory_golden, memory_baseline):
        """The session of a peer that sends one ends in ProtocolError:
        the coordinator hangs up on it and serves the rest."""
        thread, raw = self._serve(memory_golden, shards=1)
        raw.stream.send({"type": kind})
        assert raw.stream.read(timeout=5.0) is None  # hung up on
        raw.close()
        result = thread.join_result(60)
        raw.fleet.join()
        assert not raw.fleet.errors
        assert result == memory_baseline

    def test_death_is_seen_at_the_hang_up_on_a_frozen_clock(self):
        """A ``jobs=2`` fork stalls mid-shard with its socket open and is
        SIGKILLed; every clock the coordinator could read stands still.
        Its hang-up alone re-queues its lease and starts its
        replacement, and the result is the serial one.  A fabric that
        embargoed re-grants or looked for deaths on a clock would wait
        forever; the child's timeout turns that into a failure."""
        child = subprocess.Popen(
            [sys.executable, "-c", _FROZEN_CLOCK_SIGKILL], env=_repro_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            out, err = child.communicate(timeout=60)
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()
        assert child.returncode == 0, err[-2000:]
        retries = int(out.split()[-1])
        assert retries >= 1


class TestDistJournalInterop:
    def test_dist_journal_resumes_serially(self, tmp_path, memory_golden,
                                           memory_baseline):
        """The fabric journals under the same campaign key as the
        in-process transport: a journaled dist scan re-runs as a no-op."""
        journal = tmp_path / "j.sqlite"
        run_dist(memory_golden, journal=journal)
        again = run_full_scan(memory_golden, journal=journal,
                              keep_records=True)
        assert again == memory_baseline
        assert again.execution.executed == 0

    def test_serial_journal_resumes_distributed(
            self, tmp_path, memory_golden, memory_baseline):
        journal = tmp_path / "j.sqlite"

        class Interrupt(Exception):
            pass

        def interrupt(done, total):
            if done >= 3:
                raise Interrupt

        with pytest.raises(Interrupt):
            run_full_scan(memory_golden, journal=journal,
                          progress=interrupt)
        result, _, _ = run_dist(memory_golden, journal=journal)
        assert result == memory_baseline
        assert result.execution.resumed == 3

    def test_a_resumed_fabric_campaign_leases_only_what_is_left(
            self, tmp_path, monkeypatch, memory_golden, memory_baseline):
        """The coordinator plans the prologue's to-do list, not the
        whole unit list: the units a serial run journaled never reach
        the lease board, whose shards hold exactly the rest."""
        journal = tmp_path / "j.sqlite"
        k = 4

        class Interrupt(Exception):
            pass

        def interrupt(done, total):
            if done >= k:
                raise Interrupt

        with pytest.raises(Interrupt):
            run_full_scan(memory_golden, journal=journal,
                          progress=interrupt)
        planned: list = []
        add_shard = LeaseBoard.add_shard
        monkeypatch.setattr(LeaseBoard, "add_shard", lambda board, keys: (
            planned.extend(keys), add_shard(board, keys)))
        result, coordinator, fleet = run_dist(memory_golden,
                                              journal=journal)
        assert not fleet.errors
        key_of = {item: key for key, item in coordinator.style.units.items()}
        units = coordinator.style.units
        todo = [key_of[item] for item in coordinator.run.todo]
        assert len(todo) == len(units) - k
        assert sorted(planned) == sorted(todo)
        assert result == memory_baseline
        assert result.records == memory_baseline.records
        assert result.execution.resumed == k

    #: The per-shard retry state an older coordinator journaled.
    OLD_LEASES_DDL = """CREATE TABLE leases (
        campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
        shard       INTEGER NOT NULL,
        keys        TEXT NOT NULL,
        worker      TEXT NOT NULL DEFAULT '',
        attempts    INTEGER NOT NULL DEFAULT 0,
        status      TEXT NOT NULL DEFAULT 'pending',
        PRIMARY KEY (campaign_id, shard)
    )"""

    #: Event kinds only coordinators with a worker supervisor, poison
    #: bisection, cross-check voting, the cross-check audit and result
    #: CRCs ever wrote.
    REMOVED_KINDS = ("quarantine", "probation", "byzantine", "discard",
                     "poison-split", "poison-key", "crosscheck-mismatch",
                     "crosscheck-stale", "crc-reject")

    def test_journal_of_removed_layers_resumes_and_lists(
            self, tmp_path, capsys, memory_golden, memory_baseline):
        """A journal written by an older coordinator holds a ``leases``
        table with statuses (``split``, ``poison``) and event kinds
        nothing writes any more.  It still resumes bit-for-bit, and
        ``repro journal`` still lists every event of it."""
        import sqlite3

        from repro.cli import main

        journal = tmp_path / "old.sqlite"
        first = DistCoordinator(_fleet("w0", "w1"), shards=4,
                                stop_after_results=3)
        thread = serve_in_thread(first, memory_golden, journal=journal)
        assert thread.join_result(60) is None
        first.fleet.join()
        with sqlite3.connect(journal) as db:
            (campaign,) = db.execute("SELECT id FROM campaigns").fetchone()
            # Schema 4's lease table, as an older coordinator made it:
            # planned shards 0 and 1 were bisected; 4 and 5 are their
            # children, one of them isolated as poisonous.
            db.execute(self.OLD_LEASES_DDL)
            db.executemany(
                "INSERT INTO leases (campaign_id, shard, keys, worker, "
                "attempts, status) VALUES (?, ?, '[]', '', ?, ?)",
                [(campaign, 0, 1, "split"), (campaign, 1, 1, "split"),
                 (campaign, 4, 2, "poison"), (campaign, 5, 0, "split")])
            db.executemany(
                "INSERT INTO fabric_events (campaign_id, at, worker, kind, "
                "detail) VALUES (?, 0.0, 'w9', ?, 'old')",
                [(campaign, kind) for kind in self.REMOVED_KINDS])

        result, _, _ = run_dist(memory_golden, journal=journal)
        assert result == memory_baseline
        assert result.records == memory_baseline.records
        assert result.execution.resumed == 3
        assert run_full_scan(memory_golden, journal=journal,
                             keep_records=True) == memory_baseline

        capsys.readouterr()
        assert main(["journal", "--journal", str(journal)]) == 0
        out = capsys.readouterr().out
        for kind in self.REMOVED_KINDS:
            assert f"{kind:20s} [w9] old" in out


def _repro_env() -> dict:
    """This environment, with the checkout under test importable."""
    import repro

    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class TestDistSubprocess:
    """Real worker *processes* — node loss means a PID actually dying."""

    def test_worker_process_death_mid_shard(self, monkeypatch,
                                            memory_golden,
                                            memory_baseline):
        """The one forked worker os._exit()s mid-shard (the observable
        equivalent of SIGKILL) at its third class result — taking
        whatever its send window still held with it; the fleet's one
        replacement finishes the campaign."""
        chaotic_fleet(monkeypatch, ChaosPlan(die_after_results=2))
        fabric = LocalFabric(1)
        result = serve_scan(fabric, memory_golden, keep_records=True)
        doomed, _replacement = fabric._procs
        assert doomed.exitcode == 13  # it really died
        assert result == memory_baseline
        assert result.records == memory_baseline.records
        assert result.execution.complete

    @pytest.mark.os_smoke
    def test_sigkilled_worker_process(self, monkeypatch, memory_golden,
                                      memory_baseline):
        """Deliver an actual SIGKILL once the worker has made progress;
        the fleet's replacement absorbs the re-leased remainder."""
        import repro.campaign.dist.worker as worker_mod

        # A window a class, so progress arrives mid-lease.
        monkeypatch.setattr(worker_mod, "WINDOW_CLASSES", 1)
        fabric = LocalFabric(1)
        killed = []

        def progress(done, total):
            if done >= 2 and not killed:
                victim = fabric._procs[0]
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(10)
                killed.append(victim)

        result = serve_scan(fabric, memory_golden, keep_records=True,
                            progress=progress)
        (victim,) = killed
        assert victim.exitcode == -signal.SIGKILL
        assert result == memory_baseline
        assert result.records == memory_baseline.records
        assert result.execution.complete

    def test_serving_never_formats_the_result(self, monkeypatch,
                                              memory_golden,
                                              memory_baseline):
        """Serving a fleet from the main thread formats no
        CampaignResult: a repr of the whole result costs ≈ 0.06–0.10 s
        on the e2e programs, so nothing on the serving path may take
        one.  (A raising ``__repr__`` could go unnoticed where a repr
        is swallowed, as ``reprlib`` does; so the calls are counted.)"""
        from repro.campaign.runner import CampaignResult

        formatted = []

        def counting(self):
            formatted.append(self)
            return "CampaignResult(...)"

        assert threading.current_thread() is threading.main_thread()
        monkeypatch.setattr(CampaignResult, "__repr__", counting)
        result = run_distributed_scan(memory_golden, workers=1,
                                      keep_records=True)
        assert formatted == []
        assert result == memory_baseline
        assert result.execution.complete

    def test_a_failed_start_leaks_no_socket_and_no_worker(
            self, monkeypatch, memory_golden):
        """If the coordinator cannot be built, nothing is forked; if the
        second worker process cannot be started, every socket pair made
        is closed and the worker already started is terminated and
        reaped."""
        import repro.campaign.dist.coordinator as coordinator_mod

        pairs: list[socket.socket] = []
        socketpair = socket.socketpair

        def recorded(*args):
            pair = socketpair(*args)
            pairs.extend(pair)
            return pair

        monkeypatch.setattr(socket, "socketpair", recorded)

        def refused(self, *args, **kwargs):
            raise ValueError("refused")

        with monkeypatch.context() as patched:
            patched.setattr(coordinator_mod.DistCoordinator, "__init__",
                            refused)
            with pytest.raises(ValueError, match="refused"):
                run_distributed_scan(memory_golden, workers=2)
        assert pairs == []

        started: list[multiprocessing.process.BaseProcess] = []
        start = multiprocessing.process.BaseProcess.start

        def second_fails(proc):
            if started:
                raise OSError("no more processes")
            start(proc)
            started.append(proc)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            second_fails)
        with pytest.raises(OSError, match="no more processes"):
            run_distributed_scan(memory_golden, workers=2)
        (first,) = started
        assert first.exitcode is not None  # terminated and reaped
        assert len(pairs) == 4
        assert all(end.fileno() == -1 for end in pairs)

    @pytest.mark.os_smoke
    def test_workers_start_without_a_new_interpreter(
            self, monkeypatch, memory_golden, memory_baseline):
        """Local workers are forks, not new interpreters: with every
        subprocess launch refused, the scan still equals serial."""
        def refused(*args, **kwargs):
            raise OSError("no subprocess launches here")

        monkeypatch.setattr(subprocess, "Popen", refused)
        result = run_distributed_scan(memory_golden, workers=2,
                                      keep_records=True)
        assert result == memory_baseline
        assert result.records == memory_baseline.records
        assert result.execution.complete

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads /proc of a forked worker")
    def test_a_forked_worker_holds_only_its_own_end(
            self, monkeypatch, tmp_path, memory_golden, memory_baseline):
        """Of the fabric's socket pairs a forked worker holds exactly
        one socket, its own end: the coordinator's ends and the other
        workers' are closed in the child, so no worker keeps another's
        stream open."""
        import repro.campaign.dist.coordinator as coordinator_mod

        def inode(sock):
            return os.fstat(sock.fileno()).st_ino

        fabric: set[int] = set()
        socketpair = socket.socketpair

        def recorded(*args):
            pair = socketpair(*args)
            fabric.update(inode(end) for end in pair)
            return pair

        local_worker = coordinator_mod._local_worker

        def inspecting(sock, style, name):
            held = set()
            for fd in os.listdir("/proc/self/fd"):
                try:
                    link = os.readlink(f"/proc/self/fd/{fd}")
                except OSError:
                    continue  # the fd listdir itself held
                if link.startswith("socket:["):
                    held.add(int(link[len("socket:["):-1]))
            (tmp_path / name).write_text(json.dumps(
                [inode(sock), sorted(held & fabric)]))
            local_worker(sock, style, name)

        monkeypatch.setattr(socket, "socketpair", recorded)
        monkeypatch.setattr(coordinator_mod, "_local_worker", inspecting)
        result = run_distributed_scan(memory_golden, workers=2,
                                      keep_records=True)
        assert result == memory_baseline
        for name in ("worker-0", "worker-1"):
            own, held = json.loads((tmp_path / name).read_text())
            assert held == [own], name

    def test_cli_fleet_prints_once_and_quietly(self):
        """``repro scan --jobs 2`` into a pipe: a forked worker must not
        flush the parent's buffered stdout a second time, and nothing a
        worker does ends in a traceback on the shared stderr."""
        done = subprocess.run(
            [sys.executable, "-m", "repro", "scan", "hi", "--jobs", "2"],
            env=_repro_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        headers = [line for line in done.stdout.splitlines()
                   if line.startswith("hi [memory domain]")]
        assert len(headers) == 1, done.stdout
        assert "absolute failure count F:" in done.stdout
        assert "Traceback" not in done.stderr, done.stderr

    def test_resuming_a_complete_journal_does_not_wait_on_workers(
            self, tmp_path):
        """With nothing left to execute the coordinator finishes before
        any worker asks for work; the forked workers are then stopped,
        not waited for."""
        golden = record_golden(micro.checksum_loop(3))
        journal = tmp_path / "complete.sqlite"
        serial = run_full_scan(golden, journal=journal)
        start = time.monotonic()
        result = run_distributed_scan(golden, workers=2, journal=journal)
        elapsed = time.monotonic() - start
        assert result == serial
        assert result.execution.executed == 0
        assert elapsed < 3.0, f"resume took {elapsed:.2f} s"


class TestWorkerInherits:
    """A worker executes the style it inherited: nothing of the
    campaign is rebuilt on its side."""

    @pytest.mark.parametrize("style", ["scan", "sampling"])
    def test_a_worker_assembles_records_and_partitions_nothing(
            self, style, register_golden):
        """Thread workers serving whole leases of a full scan or a
        sampled campaign call ``assemble``, ``record_golden`` and
        ``build_partition`` zero times (a profile hook on the worker
        threads sees every call they make)."""
        from repro.campaign.pipeline import run_campaign
        from repro.campaign.runner import SamplingStyle
        from repro.faultspace.domain import MemoryDomain, RegisterDomain
        from repro.isa.assembler import assemble

        golden = register_golden
        watched = {assemble.__code__, record_golden.__code__,
                   MemoryDomain.build_partition.__code__,
                   RegisterDomain.build_partition.__code__}
        calls: list[tuple[int, str]] = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                calls.append((threading.get_ident(), frame.f_code.co_name))

        campaign = (_scan_style(golden) if style == "scan"
                    else SamplingStyle(golden, MEMORY, 60, 3, "live-only"))
        fleet = _fleet("w0", "w1")
        threading.setprofile(profile)
        try:
            result = run_campaign(campaign, DistCoordinator(
                fleet, shards=2), ":memory:", True, None)
            fleet.join()
        finally:
            threading.setprofile(None)
        assert not fleet.errors
        assert result.execution.complete
        assert sum(slot.executed for slot in fleet.slots) \
            == len(campaign.units)
        workers = {slot.thread.ident for slot in fleet.slots}
        assert [name for ident, name in calls if ident in workers] == []


def test_the_fabric_serves_every_style(register_golden):
    """Workers inherit the campaign style, so a coordinator serves
    sampling to its workers as it serves full scans."""
    from repro.campaign.pipeline import run_campaign
    from repro.campaign.runner import SamplingStyle

    golden = register_golden
    fleet = _fleet("w0")
    coordinator = DistCoordinator(fleet, shards=2)
    style = SamplingStyle(golden, MEMORY, 60, 3, "live-only")
    result = run_campaign(style, coordinator, ":memory:", True, None)
    fleet.join()
    assert not fleet.errors
    assert result == run_sampling(golden, 60, seed=3, sampler="live-only")
    assert result.execution.workers == (("w0", len(style.units)),)


class TestAcceptanceSync2:
    """The issue's acceptance bar: distributed == serial, bit for bit,
    on the paper's sync2 pair, both domains, with a node killed."""

    @pytest.fixture(scope="class")
    def goldens(self):
        return {"plain": record_golden(sync2.baseline(1)),
                "hardened": record_golden(sync2.hardened(1))}

    @pytest.mark.parametrize("variant", ["plain", "hardened"])
    @pytest.mark.parametrize("domain", ["memory", "register"])
    def test_dist_equals_serial_with_node_loss(self, goldens, variant,
                                               domain, tmp_path):
        golden = goldens[variant]
        serial = run_full_scan(golden, domain=domain, keep_records=True)
        result, _, fleet = run_dist(
            golden, domain=domain,
            worker_chaos=[ChaosPlan(die_after_results=2), None],
            respawn=False)
        assert fleet.deaths == ["w0"]  # a node died
        assert not fleet.errors
        assert result == serial
        assert result.records == serial.records
        assert result.execution.complete
        dist_csv, serial_csv = tmp_path / "d.csv", tmp_path / "s.csv"
        export_class_results_csv(result, dist_csv)
        export_class_results_csv(serial, serial_csv)
        assert dist_csv.read_bytes() == serial_csv.read_bytes()

    def test_hardened_restart_and_node_loss_together(self, goldens,
                                                     tmp_path):
        """Worst day in the cluster: a worker dies for good AND the
        coordinator restarts mid-campaign; still bit-for-bit serial."""
        golden = goldens["hardened"]
        serial = run_full_scan(golden, keep_records=True)
        journal = tmp_path / "dist.sqlite"
        fleet = ThreadFleet()
        fleet.add("doomed", ChaosPlan(die_after_results=2), respawn=False)
        fleet.add("steady")
        first = DistCoordinator(fleet, shards=4,
                                stop_after_results=3)
        thread = serve_in_thread(first, golden, journal=journal)
        assert thread.join_result(120) is None  # simulated crash
        second = DistCoordinator(_fleet("steady"), shards=4)
        result = serve_in_thread(second, golden, journal=journal,
                                 keep_records=True).join_result(120)
        fleet.join()
        second.fleet.join()
        assert not fleet.errors and not second.fleet.errors
        assert result == serial
        assert result.records == serial.records
        assert result.execution.complete
        # stop_after_results fires on the 3rd accepted result, but a
        # second worker's in-flight submission may land before the stop
        # tears the connections down.
        assert 3 <= result.execution.resumed <= 4
        assert result.execution.executed \
            == result.execution.total_units - result.execution.resumed
