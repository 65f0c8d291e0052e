"""Self-hosting chaos: the fabric under its own fault injector.

The distributed fabric's contract is that transport faults can delay a
campaign but never skew it.  These tests turn the repository's fault
injector on the fabric itself: a seeded :class:`ChaosPlan` drops,
duplicates, corrupts and delays result frames through the deterministic
proxy, and every surviving campaign must match the serial ground truth
bit for bit — with the degradation (if any) exactly reflected in the
completeness report.  The harder cases ride on top: a worker whose
frames arrive corrupted (CRC-detectable), a worker whose results are
wrong under a valid CRC (only the cross-check audit can catch it; the
class is reported and left missing), and a class key that kills every
worker that touches it (its shard fails after its retries).
"""

import json
from dataclasses import replace

import pytest

from repro.campaign import RetryPolicy, record_golden, run_full_scan
from repro.campaign.dist import DistCoordinator, result_digest
from repro.campaign.dist.coordinator import serve_in_thread
from repro.programs import micro

from .chaos import ChaosInterrupt, ChaosPlan, WorkerChaos
from .test_dist import (POLICY, _class_items, _RawWorker, _RecordingStream,
                        _server_socket, _start_worker, run_dist)

#: Chaos soaks retry far past the default budget: the injector *wants*
#: to burn attempts, and the invariant under test is correctness, not
#: retry frugality.
SOAK_POLICY = RetryPolicy(heartbeat=0.3, poll_interval=0.02, backoff=0.05,
                          max_retries=12)

#: The soak's budget with a bounded embargo: a shard failed k times is
#: embargoed ``0.05 · 1.25^(k-1)`` s, at most ≈ 2.7 s summed over its
#: twelve retries (doubling, the last embargo alone is 102 s).  For
#: tests where one worker fails every lease it wins.
BOUNDED_SOAK_POLICY = replace(SOAK_POLICY, backoff_factor=1.25)

#: Rates for the differential soak: every event class that cannot lie
#: (drops, dups, CRC-detectable corruption, delays) fires often enough
#: that a few dozen result frames see several of each.
SOAK_RATES = dict(drop_rate=0.12, dup_rate=0.15, corrupt_rate=0.08,
                  delay_rate=0.10, delay_seconds=0.005)


@pytest.fixture(scope="module")
def memory_golden():
    return record_golden(micro.memcopy(6))


@pytest.fixture(scope="module")
def memory_baseline(memory_golden):
    return run_full_scan(memory_golden, keep_records=True)


@pytest.fixture(scope="module")
def register_baseline(memory_golden):
    return run_full_scan(memory_golden, keep_records=True,
                         domain="register")


def assert_soak_invariant(result, baseline):
    """The chaos-soak acceptance bar, shared by every scenario.

    Every class the campaign *did* complete matches the serial ground
    truth exactly; every planned class is either present or accounted
    for in ``execution.missing``; and a complete campaign is
    bit-for-bit identical to the clean run.
    """
    base = baseline.class_outcomes
    for key, outcomes in result.class_outcomes.items():
        assert outcomes == base[key], f"class {key} diverged under chaos"
    present = set(result.class_outcomes)
    missing = {tuple(key) for key in result.execution.missing}
    assert present | missing == set(base)
    assert not (present & missing)
    if result.execution.complete:
        assert result == baseline
        assert result.records == baseline.records
    else:
        assert missing
        assert 0.0 < result.execution.completeness < 1.0


class TestChaosPlanUnits:
    def test_inactive_plan(self):
        assert not ChaosPlan(seed=5).active
        assert ChaosPlan(seed=5, drop_rate=0.01).active
        assert ChaosPlan(die_on_keys=((0, 1),)).active
        assert ChaosPlan(die_after_results=0).active


class TestChaosDeterminism:
    def test_events_are_pure_in_seed_worker_index(self):
        plan = ChaosPlan(seed=11, drop_rate=0.3, dup_rate=0.3,
                         corrupt_rate=0.3, delay_rate=0.3)
        first = WorkerChaos(plan, "w0")
        second = WorkerChaos(plan, "w0")
        schedule = [first.events_for(i) for i in range(200)]
        assert schedule == [second.events_for(i) for i in range(200)]
        # ...and the schedule is not degenerate: something fires.
        assert any(schedule)

    def test_distinct_seeds_and_workers_decorrelate(self):
        base = ChaosPlan(seed=11, drop_rate=0.5, dup_rate=0.5)
        w0 = [WorkerChaos(base, "w0").events_for(i) for i in range(200)]
        other_worker = [WorkerChaos(base, "w1").events_for(i)
                        for i in range(200)]
        other_seed = [
            WorkerChaos(ChaosPlan(seed=12, drop_rate=0.5, dup_rate=0.5),
                        "w0").events_for(i) for i in range(200)]
        assert w0 != other_worker
        assert w0 != other_seed

    def test_at_most_one_tamper_and_one_fatal_event(self):
        plan = ChaosPlan(seed=2, corrupt_rate=1.0, lie_rate=1.0,
                         drop_rate=1.0, kill_rate=1.0)
        events = WorkerChaos(plan, "w0").events_for(0)
        assert "corrupt" in events and "lie" not in events
        assert "drop" in events and "kill" not in events

    def test_liars_gate_the_lie_event(self):
        plan = ChaosPlan(seed=2, lie_rate=1.0, liars=("evil",))
        assert "lie" in WorkerChaos(plan, "evil").events_for(0)
        assert "lie" not in WorkerChaos(plan, "honest").events_for(0)

    def test_tampered_changes_payload_and_digest(self):
        """One bit's outcome and end cycle change, in place: the run
        keeps its shape (the shape check cannot tell), only the digest
        can."""
        chaos = WorkerChaos(ChaosPlan(seed=1), "w0")
        run = ["no-effect sdc", "10 12", " "]
        message = {"shard": 0, "key": [0, 1], "run": run}
        tampered = chaos.tampered(message, 1)
        assert message["run"] == run  # the original is left alone
        assert tampered["run"] == ["no-effect output-truncated", "10 13",
                                   " "]
        assert tampered == chaos.tampered(message, 1)  # deterministic
        assert result_digest((0, 1), tampered["run"]) \
            != result_digest((0, 1), run)

    @staticmethod
    def _items(count):
        run = ["no-effect sdc", "10 12", " "]
        return [{"shard": 0, "key": [0, slot], "run": run,
                 "crc": result_digest((0, slot), run)}
                for slot in range(1, count + 1)]

    def test_schedule_is_over_class_results_not_wire_frames(self):
        """However the send window groups the classes, the n-th class
        result meets the n-th draw: same items on the wire, same
        telemetry."""
        plan = ChaosPlan(seed=11, dup_rate=0.3, corrupt_rate=0.3,
                         lie_rate=0.3, delay_rate=0.2, delay_seconds=0.0)
        items = self._items(40)

        def through(windows):
            wire, chaos = _RecordingStream(), WorkerChaos(plan, "w0")
            proxy = chaos.wrap(wire)
            for window in windows:
                proxy.send({"type": "results", "items": window})
            return ([item for frame in wire.windows() for item in frame],
                    chaos.fired, chaos.results_sent)

        whole = through([items])
        assert whole == through([[item] for item in items])
        assert whole == through([items[:7], items[7:33], items[33:]])
        assert whole[2] == 40 and len(whole[0]) > 40  # dups fired
        assert {"corrupt", "lie", "dup", "delay"} <= set(whole[1])

    def test_drop_sends_the_window_so_far_then_closes(self):
        wire = _RecordingStream()
        chaos = WorkerChaos(ChaosPlan(drop_after_results=3), "w0")
        items = self._items(5)
        with pytest.raises(ChaosInterrupt):
            chaos.wrap(wire).send({"type": "results", "items": items})
        assert wire.windows() == [items[:3]] and wire.closed
        assert chaos.results_sent == 3  # the two behind it are unsent

    def test_hang_splits_the_window_where_it_stalls(self):
        wire = _RecordingStream()
        chaos = WorkerChaos(ChaosPlan(seed=1, hang_rate=1.0,
                                      hang_seconds=0.0), "w0")
        items = self._items(3)
        chaos.wrap(wire).send({"type": "results", "items": items})
        assert wire.windows() == [[item] for item in items]
        assert chaos.fired == {"hang": 3}

    def test_die_on_keys_raises_connection_error(self):
        chaos = WorkerChaos(ChaosPlan(die_on_keys=((4, 2),)), "w0")
        chaos.before_class((0, 1))  # unpoisoned: no-op
        with pytest.raises(ChaosInterrupt):
            chaos.before_class((4, 2))
        assert chaos.fired["die_on_key"] == 1
        assert isinstance(ChaosInterrupt("x"), ConnectionError)


class TestChaosSoak:
    """The issue's acceptance invariant, over fixed seeds and domains."""

    @pytest.mark.parametrize("seed", [7, 11, 13])
    def test_memory_soak_matches_serial(self, seed, memory_golden,
                                        memory_baseline):
        plan = ChaosPlan(seed=seed, **SOAK_RATES)
        result, _, spawned = run_dist(
            memory_golden, workers=2, worker_chaos=[plan, plan],
            policy=SOAK_POLICY, crosscheck=0.25)
        assert not any(errors for _, _, errors in spawned)
        assert_soak_invariant(result, memory_baseline)
        assert result.execution.complete

    def test_register_soak_matches_serial(self, memory_golden,
                                          register_baseline):
        plan = ChaosPlan(seed=7, **SOAK_RATES)
        result, _, _ = run_dist(
            memory_golden, workers=2, domain="register",
            worker_chaos=[plan, plan], policy=SOAK_POLICY,
            crosscheck=0.25)
        assert_soak_invariant(result, register_baseline)
        assert result.execution.complete

    def test_chaos_telemetry_records_what_fired(self, memory_golden,
                                                memory_baseline):
        plan = ChaosPlan(seed=7, **SOAK_RATES)
        _, _, spawned = run_dist(
            memory_golden, workers=2, worker_chaos=[plan, plan],
            policy=SOAK_POLICY)
        fired = {}
        for worker, _, _ in spawned:
            for name, count in worker._chaos.fired.items():
                fired[name] = fired.get(name, 0) + count
        assert fired, "a soak that injected nothing proves nothing"

    def test_coordinator_crash_scheduled_by_the_plan(
            self, tmp_path, memory_golden, memory_baseline):
        """The coordinator-side chaos event is its own crash hook
        (``stop_after_results``): a restart on the same journal
        completes bit-for-bit."""
        journal = tmp_path / "chaos.sqlite"
        sock = _server_socket()
        port = sock.getsockname()[1]
        first = DistCoordinator(
            memory_golden, sock=sock, shards=4, policy=POLICY,
            stop_after_results=4)
        thread = serve_in_thread(first, journal=journal)
        _, worker_thread, errors = _start_worker(port, "w0")
        assert thread.join_result(60) is None  # the scheduled crash
        assert first.stopped
        import socket as socket_mod
        sock2 = socket_mod.create_server(("127.0.0.1", port))
        second = DistCoordinator(memory_golden, sock=sock2, shards=4,
                                 policy=POLICY)
        result = serve_in_thread(second, journal=journal,
                                 keep_records=True).join_result(60)
        worker_thread.join(10)
        assert not errors
        assert result == memory_baseline
        assert result.records == memory_baseline.records
        assert result.execution.resumed == 4


class TestIntegrity:
    def test_corrupting_worker_is_caught_by_crc(self, memory_golden,
                                                memory_baseline):
        """Every frame from one worker is tampered after digesting (a
        broken NIC, in effect): the CRC check refuses them all, each of
        its leases fails as an attempt, the honest peer finishes."""
        corrupt = ChaosPlan(seed=3, corrupt_rate=1.0)
        result, _, _ = run_dist(
            memory_golden, workers=2, worker_chaos=[corrupt, None],
            policy=BOUNDED_SOAK_POLICY)
        execution = result.execution
        assert execution.integrity_rejected > 0
        assert_soak_invariant(result, memory_baseline)
        assert execution.complete
        # Not one corrupted frame was merged: the corrupter earned no
        # attribution at all.
        assert all(name != "w0" for name, _ in execution.workers)

    def test_lying_worker_is_caught_by_the_determinism_audit(
            self, tmp_path, memory_golden, memory_baseline):
        """A worker whose results are wrong *under a valid CRC* — what a
        build that computes other outcomes looks like.  With every class
        cross-checked, each class it touched (as first deliverer or as
        verifier) on which it lied is disputed: journaled as a mismatch
        naming both workers, discarded and left missing.  No lie
        survives into the result, and no vote pretends to know which
        copy was right.  (It lies on half its classes, so the audit
        also has agreements to let through.)"""
        from repro.campaign.journal import ExperimentJournal

        journal = tmp_path / "audit.sqlite"
        lie = ChaosPlan(seed=5, lie_rate=0.5, liars=("w0",))
        result, _, _ = run_dist(
            memory_golden, workers=3, worker_chaos=[lie, None, None],
            policy=SOAK_POLICY, crosscheck=1.0, journal=journal)
        execution = result.execution
        assert execution.crosschecked > 0
        assert execution.crosscheck_mismatches > 0
        assert execution.crosscheck_unverified == 0
        assert not execution.complete
        assert_soak_invariant(result, memory_baseline)
        with ExperimentJournal(journal) as log:
            (entry,) = log.fabric_report()
            stored = sum(section["stored_results"]
                         for section in log.sections())
        # Neither copy of a disputed class reaches the section store:
        # it holds exactly the classes the result does.
        assert stored == result.experiments_conducted
        mismatches = [event for event in entry["events"]
                      if event["kind"] == "crosscheck-mismatch"]
        assert len(mismatches) == execution.crosscheck_mismatches \
            == execution.discarded_results
        disputed = {tuple(json.loads(event["detail"].split(":")[0]))
                    for event in mismatches}
        assert disputed == {tuple(key) for key in execution.missing}
        for event in mismatches:
            # Both workers and both digests are named; one is the liar.
            assert event["detail"].count(" digest ") == 2
            assert "w0 digest" in event["detail"]

    def test_a_late_copy_of_a_disputed_key_is_refused(
            self, memory_golden, memory_baseline):
        """Once a class's two executions disagreed, no later copy of it
        — a retransmit of the honest rows, a duplicate of the lie — is
        merged: it stays missing for a rerun to re-execute."""
        sock = _server_socket()
        coordinator = DistCoordinator(memory_golden, sock=sock, shards=1,
                                      policy=POLICY, crosscheck=1.0)
        thread = serve_in_thread(coordinator, keep_records=True)
        port = sock.getsockname()[1]
        liar = _RawWorker(port, name="liar")
        lease = liar.lease()
        items = _class_items(liar.spec, lease)
        honest = {tuple(item["key"]): item for item in items}
        disputed = min(honest)
        lie = WorkerChaos(ChaosPlan(), "liar").tampered(honest[disputed], 0)
        lie["crc"] = result_digest(disputed, lie["run"])
        liar.results([lie if tuple(item["key"]) == disputed else item
                      for item in items])
        liar.lease_done(lease)

        auditor = _RawWorker(port, name="auditor")
        first = auditor.lease()
        assert first["verify"] and list(disputed) in first["keys"]
        auditor.results(_class_items(auditor.spec, first))
        auditor.lease_done(first)
        # A reply on the same connection: the verdict has been reached.
        second = auditor.lease()
        assert second["verify"]
        liar.results([honest[disputed], lie])
        liar.stream.send({"type": "request"})
        assert liar.stream.read(timeout=5.0)["type"] == "wait"
        auditor.results(_class_items(auditor.spec, second))
        auditor.lease_done(second)
        result = thread.join_result(60)
        liar.close()
        auditor.close()
        execution = result.execution
        assert execution.missing == (disputed,)
        assert (execution.crosscheck_mismatches,
                execution.discarded_results) == (1, 1)
        assert_soak_invariant(result, memory_baseline)

    def test_crosscheck_without_liars_confirms_everything(
            self, memory_golden, memory_baseline):
        result, _, _ = run_dist(
            memory_golden, workers=2, policy=POLICY, crosscheck=1.0)
        execution = result.execution
        assert execution.crosschecked == execution.total_units
        assert execution.crosscheck_mismatches == 0
        assert execution.discarded_results == 0
        assert result == memory_baseline
        assert result.records == memory_baseline.records


class TestDyingKey:
    def test_a_key_that_kills_every_worker_fails_its_shard(
            self, memory_golden, memory_baseline):
        """One class key kills every worker that tries to execute it (a
        wild pointer in a simulator build, say).  Its shard is charged
        an attempt per death and fails after ``max_retries``: what that
        shard never delivered is missing, and every other shard
        completes."""
        from repro.campaign.dist.leases import FAILED

        keys = sorted(memory_baseline.class_outcomes)
        deadly = keys[len(keys) // 2]
        plan = ChaosPlan(die_on_keys=(deadly,))
        policy = RetryPolicy(heartbeat=0.3, poll_interval=0.02,
                             backoff=0.05, max_retries=3)
        result, coordinator, _ = run_dist(
            memory_golden, workers=2, worker_chaos=[plan, plan],
            policy=policy)
        execution = result.execution
        (failed,) = [shard for shard in coordinator.board.shards()
                     if shard.status == FAILED]
        assert deadly in failed.remaining
        # Nothing at or after the deadly key in execution order was
        # ever delivered.
        position = failed.keys.index(deadly)
        assert set(failed.keys[position:]) <= set(failed.remaining)
        assert set(execution.missing) == set(failed.remaining)
        assert (execution.failed_shards, execution.shard_retries) \
            == (1, policy.max_retries)
        assert_soak_invariant(result, memory_baseline)
