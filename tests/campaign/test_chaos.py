"""Self-hosting chaos: the fabric under its own fault injector.

The distributed fabric's contract is that transport faults can delay a
campaign but never skew it.  These tests turn the repository's fault
injector on the fabric itself: a seeded :class:`ChaosPlan` drops,
duplicates, corrupts and delays result frames through the deterministic
proxy, and every surviving campaign must match the serial ground truth
bit for bit — with the degradation (if any) exactly reflected in the
completeness report.  The harder cases ride on top: a worker whose
frames arrive corrupted (shape-detectable), and a class key that kills
every worker that touches it (its shard fails after its retries).
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.campaign import RetryPolicy, record_golden, run_full_scan
from repro.campaign.dist import DistCoordinator
from repro.campaign.journal import _valid_run
from repro.programs import micro

from .chaos import ChaosInterrupt, ChaosPlan, WorkerChaos
from .fabric import POLICY, ThreadFleet, run_dist, serve_in_thread
from .test_dist import _RecordingStream

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
#: (drops, dups, shape-detectable corruption, delays) fires often enough
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
        plan = ChaosPlan(seed=2, corrupt_rate=1.0, drop_rate=1.0,
                         kill_rate=1.0)
        events = WorkerChaos(plan, "w0").events_for(0)
        assert "corrupt" in events
        assert "drop" in events and "kill" not in events

    def test_the_soak_schedules_are_pinned(self):
        """The draw order is the soaks' reproducibility contract: a
        retired event keeps its draw, so every seed's schedule is the
        one it always was (this digest predates the retired ``lie``)."""
        schedules = [[list(WorkerChaos(ChaosPlan(seed=seed, **SOAK_RATES),
                                       worker).events_for(index))
                      for index in range(500)]
                     for seed in (7, 11, 13) for worker in ("w0", "w1")]
        encoded = json.dumps(schedules, separators=(",", ":")).encode()
        assert sum(len(events) for schedule in schedules
                   for events in schedule) == 1352
        assert hashlib.sha256(encoded).hexdigest() == (
            "d6a038c083b46ab8fd8b785d90947d33caaa19cf7da89a1c8381a6417dda9012")

    def test_tampered_changes_payload_and_digest(self):
        """The payload gains one valid outcome, picked by the result
        index: the run no longer has the shape of its unit, so the
        coordinator's shape check rejects it."""
        chaos = WorkerChaos(ChaosPlan(seed=1), "w0")
        run = ["no-effect sdc", "10 12", " "]
        message = {"shard": 0, "key": [0, 1], "run": run}
        tampered = chaos.tampered(message, 1)
        assert message["run"] == run  # the original is left alone
        assert tampered["run"] == ["no-effect sdc detected-corrected",
                                   "10 12", " "]
        assert tampered == chaos.tampered(message, 1)  # deterministic
        assert _valid_run(run, 2)
        assert not any(_valid_run(tampered["run"], count)
                       for count in (2, 3))

    @staticmethod
    def _items(count):
        run = ["no-effect sdc", "10 12", " "]
        return [{"shard": 0, "key": [0, slot], "run": run}
                for slot in range(1, count + 1)]

    def test_schedule_is_over_class_results_not_wire_frames(self):
        """However the send window groups the classes, the n-th class
        result meets the n-th draw: same items on the wire, same
        telemetry."""
        plan = ChaosPlan(seed=11, dup_rate=0.3, corrupt_rate=0.3,
                         delay_rate=0.2, delay_seconds=0.0)
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
        assert {"corrupt", "dup", "delay"} <= set(whole[1])

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
        result, _, fleet = run_dist(
            memory_golden, workers=2, worker_chaos=[plan, plan],
            policy=SOAK_POLICY)
        assert not fleet.errors
        assert_soak_invariant(result, memory_baseline)
        assert result.execution.complete

    def test_register_soak_matches_serial(self, memory_golden,
                                          register_baseline):
        plan = ChaosPlan(seed=7, **SOAK_RATES)
        result, _, _ = run_dist(
            memory_golden, workers=2, domain="register",
            worker_chaos=[plan, plan], policy=SOAK_POLICY)
        assert_soak_invariant(result, register_baseline)
        assert result.execution.complete

    def test_chaos_telemetry_records_what_fired(self, memory_golden,
                                                memory_baseline):
        plan = ChaosPlan(seed=7, **SOAK_RATES)
        _, _, fleet = run_dist(
            memory_golden, workers=2, worker_chaos=[plan, plan],
            policy=SOAK_POLICY)
        fired = {}
        for slot in fleet.slots:
            for name, count in slot.chaos.fired.items():
                fired[name] = fired.get(name, 0) + count
        assert fired, "a soak that injected nothing proves nothing"

    def test_coordinator_crash_scheduled_by_the_plan(
            self, tmp_path, memory_golden, memory_baseline):
        """The coordinator-side chaos event is its own crash hook
        (``stop_after_results``): a restart on the same journal
        completes bit-for-bit."""
        journal = tmp_path / "chaos.sqlite"
        fleets = [ThreadFleet(), ThreadFleet()]
        for fleet in fleets:
            fleet.add("w0")
        first = DistCoordinator(
            fleets[0], shards=4, policy=POLICY,
            stop_after_results=4)
        thread = serve_in_thread(first, memory_golden, journal=journal)
        assert thread.join_result(60) is None  # the scheduled crash
        assert first.stopped
        second = DistCoordinator(fleets[1], shards=4, policy=POLICY)
        result = serve_in_thread(second, memory_golden, journal=journal,
                                 keep_records=True).join_result(60)
        for fleet in fleets:
            fleet.join()
            assert not fleet.errors
        assert result == memory_baseline
        assert result.records == memory_baseline.records
        assert result.execution.resumed == 4


class TestIntegrity:
    def test_corrupting_worker_is_caught_by_crc(self, memory_golden,
                                                memory_baseline):
        """Every unit one worker sends is damaged on the way (a broken
        link, in effect): the shape check refuses them all, each of its
        leases fails as an attempt, the honest peer finishes."""
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
