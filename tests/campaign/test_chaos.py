"""Self-hosting chaos: the fabric under its own fault injector.

The distributed fabric's contract is that a worker's death can delay a
campaign but never skew it.  These tests turn the repository's fault
injector on the fabric itself: a seeded :class:`ChaosPlan` kills
workers as they execute units, through the deterministic schedule, and
every surviving campaign must match the serial ground truth bit for
bit — with the degradation (if any) exactly reflected in the
completeness report.  The harder case rides on top: a unit key that
kills every worker that touches it (its shard fails after its
retries).
"""

import hashlib
import json

import pytest

from repro.campaign import record_golden, run_full_scan
from repro.campaign.dist import DistCoordinator
from repro.programs import micro

from .chaos import ChaosInterrupt, ChaosPlan, ChaosWorker, WorkerChaos
from .fabric import ThreadFleet, run_dist, serve_in_thread
from .test_dist import _RecordingStream, _scan_style

#: Chaos soaks retry far past the default budget: the injector *wants*
#: to burn attempts, and the invariant under test is correctness, not
#: retry frugality.
SOAK_RETRIES = 12

#: Per-unit death rates of the differential soaks, by domain: memcopy's
#: 12 memory classes see a death every fifth unit, its 66 register
#: classes one in twenty, so every seed kills and no shard comes near
#: its retry budget.
SOAK_RATES = {"memory": 0.2, "register": 0.05}

#: The soaks' seeds and domains.
SOAK_CASES = [(7, "memory"), (11, "memory"), (13, "memory"),
              (7, "register")]

#: Soak workers send a window every two units, so a death loses the
#: unit it fires on and at most one unit before it.
SOAK_WINDOW = 2


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


@pytest.fixture
def soak_window(monkeypatch):
    import repro.campaign.dist.worker as worker_mod

    monkeypatch.setattr(worker_mod, "WINDOW_CLASSES", SOAK_WINDOW)


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
        assert ChaosPlan(seed=5, kill_rate=0.01).active
        assert ChaosPlan(die_on_keys=((0, 1),)).active
        assert ChaosPlan(die_after_results=0).active


class TestChaosDeterminism:
    def test_events_are_pure_in_seed_worker_index(self):
        plan = ChaosPlan(seed=11, kill_rate=0.3)
        first = WorkerChaos(plan, "w0")
        second = WorkerChaos(plan, "w0")
        schedule = [first.kills(i) for i in range(200)]
        assert schedule == [second.kills(i) for i in range(200)]
        # ...and the schedule is not degenerate: something fires.
        assert any(schedule)

    def test_distinct_seeds_and_workers_decorrelate(self):
        base = ChaosPlan(seed=11, kill_rate=0.5)
        w0 = [WorkerChaos(base, "w0").kills(i) for i in range(200)]
        other_worker = [WorkerChaos(base, "w1").kills(i)
                        for i in range(200)]
        other_seed = [WorkerChaos(ChaosPlan(seed=12, kill_rate=0.5),
                                  "w0").kills(i) for i in range(200)]
        assert w0 != other_worker
        assert w0 != other_seed

    def test_the_soak_schedules_are_pinned(self):
        """The draw order is the soaks' reproducibility contract: the
        draws of retired events are still taken, so every seed kills
        where it always did — this digest is the one the fuller event
        taxonomy gave for the same plans."""
        schedules = [[["kill"] if WorkerChaos(ChaosPlan(
            seed=seed, kill_rate=SOAK_RATES[domain]), worker).kills(index)
            else [] for index in range(500)]
            for seed, domain in SOAK_CASES for worker in ("w0", "w1")]
        encoded = json.dumps(schedules, separators=(",", ":")).encode()
        assert sum(len(events) for schedule in schedules
                   for events in schedule) == 684
        assert hashlib.sha256(encoded).hexdigest() == (
            "82cc0d05bc3e49f071fc3c3baa1ecc4494d5871d7925f3da2441086d64f11f39")

    def test_schedule_is_over_class_results_not_wire_frames(
            self, monkeypatch, memory_golden):
        """However the send window groups the units, the death fires on
        the same unit, and the windows sent before it are exactly what
        the coordinator ever sees: the unsent window dies with the
        worker, as under SIGKILL."""
        import repro.campaign.dist.worker as worker_mod

        style = _scan_style(memory_golden)
        executor = style.config.build(style.golden)
        lease = {"type": "lease", "lease": 1, "shard": 0,
                 "keys": [list(key) for key in style.units]}
        for window in (1, 5, 64):
            monkeypatch.setattr(worker_mod, "WINDOW_CLASSES", window)
            chaos = WorkerChaos(ChaosPlan(die_after_results=7), "w0")
            stream = _RecordingStream()
            with pytest.raises(ChaosInterrupt):
                ChaosWorker(None, style, chaos)._work(
                    _Answering(stream, lease), executor, style)
            sent = [tuple(item["key"]) for items in stream.windows()
                    for item in items]
            assert (chaos.results, chaos.fired) == (8, {"die": 1})
            assert sent == list(style.units)[:7 // window * window], window

    def test_die_on_keys_raises_connection_error(self):
        chaos = WorkerChaos(ChaosPlan(die_on_keys=((4, 2),)), "w0")
        chaos.before_class((0, 1))  # unpoisoned: no-op
        with pytest.raises(ChaosInterrupt):
            chaos.before_class((4, 2))
        assert chaos.fired["die_on_key"] == 1
        assert isinstance(ChaosInterrupt("x"), ConnectionError)


class _Answering:
    """A recording stream whose first ``read`` grants ``lease``."""

    def __init__(self, stream: _RecordingStream, lease: dict):
        self._stream, self._lease = stream, lease

    def send(self, message: dict) -> None:
        self._stream.send(message)

    def read(self):
        return self._lease


class TestChaosSoak:
    """The acceptance invariant, over fixed seeds and domains."""

    @pytest.mark.parametrize("seed", [7, 11, 13])
    def test_memory_soak_matches_serial(self, seed, soak_window,
                                        memory_golden, memory_baseline):
        plan = ChaosPlan(seed=seed, kill_rate=SOAK_RATES["memory"])
        result, _, fleet = run_dist(
            memory_golden, workers=2, worker_chaos=[plan, plan],
            max_retries=SOAK_RETRIES)
        assert not fleet.errors
        assert fleet.deaths
        assert_soak_invariant(result, memory_baseline)
        assert result.execution.complete

    def test_register_soak_matches_serial(self, soak_window, memory_golden,
                                          register_baseline):
        plan = ChaosPlan(seed=7, kill_rate=SOAK_RATES["register"])
        result, _, fleet = run_dist(
            memory_golden, workers=2, domain="register",
            worker_chaos=[plan, plan], max_retries=SOAK_RETRIES)
        assert fleet.deaths
        assert_soak_invariant(result, register_baseline)
        assert result.execution.complete

    def test_chaos_telemetry_records_what_fired(self, soak_window,
                                                memory_golden,
                                                memory_baseline):
        plan = ChaosPlan(seed=7, kill_rate=SOAK_RATES["memory"])
        result, _, fleet = run_dist(
            memory_golden, workers=2, worker_chaos=[plan, plan],
            max_retries=SOAK_RETRIES)
        fired = {}
        for slot in fleet.slots:
            for name, count in slot.chaos.fired.items():
                fired[name] = fired.get(name, 0) + count
        assert fired, "a soak that injected nothing proves nothing"
        assert fired["kill"] == len(fleet.deaths)

    def test_coordinator_crash_scheduled_by_the_plan(
            self, tmp_path, memory_golden, memory_baseline):
        """The coordinator-side chaos event is its own crash hook
        (``stop_after_results``): a restart on the same journal
        completes bit-for-bit."""
        journal = tmp_path / "chaos.sqlite"
        fleets = [ThreadFleet(), ThreadFleet()]
        for fleet in fleets:
            fleet.add("w0")
        first = DistCoordinator(fleets[0], shards=4, stop_after_results=4)
        thread = serve_in_thread(first, memory_golden, journal=journal)
        assert thread.join_result(60) is None  # the scheduled crash
        assert first.stopped
        second = DistCoordinator(fleets[1], shards=4)
        result = serve_in_thread(second, memory_golden, journal=journal,
                                 keep_records=True).join_result(60)
        for fleet in fleets:
            fleet.join()
            assert not fleet.errors
        assert result == memory_baseline
        assert result.records == memory_baseline.records
        assert result.execution.resumed == 4


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
        max_retries = 3
        result, coordinator, _ = run_dist(
            memory_golden, workers=2, worker_chaos=[plan, plan],
            max_retries=max_retries)
        execution = result.execution
        (failed,) = [shard for shard in coordinator.board.shards()
                     if shard.status == FAILED]
        assert deadly in failed.remaining
        # Nothing at or after the deadly key in execution order was
        # ever delivered.  The plan is a pure function of its
        # arguments: re-deriving it gives the failed shard's order.
        style = coordinator.style
        key_of = {item: key for key, item in style.units.items()}
        planned, _, _ = style.plan(coordinator.run.todo, coordinator.shards,
                                   coordinator.fleet.workers)
        order = [key_of[item] for item in planned[failed.index]]
        position = order.index(deadly)
        assert set(order[position:]) <= set(failed.remaining)
        assert set(execution.missing) == set(failed.remaining)
        assert (execution.failed_shards, execution.shard_retries) \
            == (1, max_retries)
        assert_soak_invariant(result, memory_baseline)
