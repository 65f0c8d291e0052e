"""Parallel campaign engine: sharding, pickling, serial equivalence.

The contract under test is strict: the parallel engine must produce
results *bit-for-bit identical* to the serial runner — same
``class_outcomes`` (including iteration order), same weighted and raw
counts, same sample sequences — regardless of worker count.
"""

import os
import pickle
from collections import Counter

import pytest

from repro.campaign import (
    ExecutorConfig,
    ParallelCampaign,
    record_golden,
    resolve_jobs,
    run_full_scan,
    run_sampling,
)
from repro.campaign.parallel import (
    class_cost,
    plan_class_shards,
    shard_by_cost,
)
from repro.campaign.dist.coordinator import DEFAULT_SHARDS
from repro.campaign.pipeline import SMALL_CAMPAIGN_CYCLES
from repro.campaign.runner import ScanStyle
from repro.faultspace.defuse import ByteInterval, LIVE
from repro.faultspace.domain import MEMORY, get_domain
from repro.programs import all_programs, bin_sem2, micro

JOB_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def memcopy_golden():
    return record_golden(micro.memcopy(6))


@pytest.fixture(scope="module")
def hardened_golden():
    """A hardened benchmark (bin_sem2 + SUM+DMR) at reduced scale."""
    return record_golden(bin_sem2.hardened(1))


@pytest.fixture(scope="module")
def memcopy_serial(memcopy_golden):
    return run_full_scan(memcopy_golden, keep_records=True)


@pytest.fixture(scope="module")
def hardened_serial(hardened_golden):
    return run_full_scan(hardened_golden)


class TestJobsResolution:
    def test_none_means_serial(self):
        assert resolve_jobs(None) is None

    def test_zero_means_cpu_count(self):
        """One worker per CPU this process may run on."""
        assert resolve_jobs(0) == len(os.sched_getaffinity(0))

    def test_zero_counts_the_affinity_set_not_the_host(self, monkeypatch):
        # ``taskset -c 0`` on a two-CPU host: one worker, not two.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert resolve_jobs(0) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert resolve_jobs(0) == 2

    def test_positive_passthrough(self):
        assert resolve_jobs(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(-1)

    def test_campaign_rejects_serial_sentinel(self, memcopy_golden):
        with pytest.raises(ValueError, match="serial"):
            ParallelCampaign(memcopy_golden, None)

    def test_runner_rejects_executor_with_jobs(self, memcopy_golden):
        from repro.campaign import ExperimentExecutor

        with pytest.raises(ValueError, match="executor"):
            run_full_scan(memcopy_golden, jobs=2,
                          executor=ExperimentExecutor(memcopy_golden))


class TestSharding:
    def _interval(self, addr, first, last):
        return ByteInterval(addr=addr, first_slot=first, last_slot=last,
                            kind=LIVE)

    def test_shards_are_contiguous_and_complete(self):
        items = list(range(17))
        shards = shard_by_cost(items, [1] * len(items), 4)
        assert sum(shards, []) == items  # order + completeness
        assert 1 <= len(shards) <= 4

    def test_cost_balancing_beats_count_balancing(self):
        # Front-loaded costs (early injection slots are expensive): a
        # count-balanced split would put half the cost in shard 0.
        costs = [100, 100, 1, 1, 1, 1, 1, 1]
        shards = shard_by_cost(list(range(8)), costs, 2)
        assert shards[0] == [0, 1]
        assert shards[1] == [2, 3, 4, 5, 6, 7]

    def test_more_jobs_than_items(self):
        shards = shard_by_cost([1, 2], [5, 5], 8)
        assert shards == [[1], [2]]

    def test_empty_items(self):
        assert shard_by_cost([], [], 4) == []

    def test_class_cost_prefers_early_slots(self):
        total = 1000
        early = self._interval(0, 1, 10)
        late = self._interval(0, 900, 990)
        assert class_cost(early, total) > class_cost(late, total)

    def test_class_cost_includes_fast_forward_span(self):
        total = 100
        short = self._interval(0, 90, 91)
        long = self._interval(1, 2, 91)  # same injection slot, longer span
        assert class_cost(long, total) \
            == class_cost(short, total) + long.length - short.length


    def test_plan_derives_every_cost_from_one_class_cost_list(self):
        """Shard costs and the per-class list (the
        fabric's lease cost table) are the numbers the cut was made
        with."""
        total = 400
        intervals = [self._interval(addr, first, first + 3)
                     for addr, first in enumerate(range(1, 390, 13))]
        shards, shard_costs, costs = plan_class_shards(
            intervals, total, domain=MEMORY, parts=4, workers=4)
        # Every live class is in exactly one shard, and each shard is
        # in canonical order.
        assert sorted(sum(shards, []), key=intervals.index) == intervals
        for shard in shards:
            assert shard == sorted(shard, key=intervals.index)
        assert costs == [class_cost(iv, total, bits=8) for iv in intervals]
        assert shard_costs == [sum(class_cost(iv, total, bits=8)
                                   for iv in shard) for shard in shards]
        # A small campaign collapses to one shard per expected worker.
        assert len(shards) == 4
        assert len(plan_class_shards(intervals, total, domain=MEMORY,
                                     parts=4, workers=2)[0]) == 2

    def test_a_known_fleet_plans_a_shard_per_worker_at_least(self):
        # A lease is a whole shard: fewer shards than workers would
        # leave the rest polling ``wait`` for the whole campaign.
        total = 10_000
        intervals = [self._interval(addr, 1, 1 + addr % 7)
                     for addr in range(128)]
        assert sum(class_cost(iv, total) for iv in intervals) \
            >= SMALL_CAMPAIGN_CYCLES

        def count(parts, workers):
            return len(plan_class_shards(intervals, total, domain=MEMORY,
                                         parts=parts, workers=workers)[0])

        assert count(8, 16) == 16
        assert count(8, 2) == 8
        assert count(8, 8) == 8
        # Below SMALL_CAMPAIGN_CYCLES: exactly one shard per worker.
        assert len(plan_class_shards(intervals[:4], 100, domain=MEMORY,
                                     parts=8, workers=3)[0]) == 3


@pytest.fixture(scope="module")
def plan_golden():
    return record_golden(bin_sem2.baseline())


def _live_classes(golden, name):
    """``(golden, domain, live classes)`` of one domain."""
    domain = get_domain(name)
    return golden, domain, domain.build_partition(golden).live_classes()


@pytest.fixture(scope="module", params=["memory", "register", "burst2",
                                        "stuck", "pc"])
def live_classes(request, plan_golden):
    return _live_classes(plan_golden, request.param)


@pytest.fixture(scope="module", params=["memory", "burst2", "stuck"])
def ram_live_classes(request, plan_golden):
    return _live_classes(plan_golden, request.param)


class TestCellPlan:
    """The full scan's plan keeps a fault-space cell in one shard, so
    the state memo's chains of one cell stay in one executor."""

    #: ``(parts, workers)``; ``None`` is a coordinator without a local
    #: fleet, which plans for ``parts`` workers.
    FLEETS = [(8, None), (8, 2), (8, 16), (3, None)]

    @staticmethod
    def _plan(live_classes, parts, workers):
        golden, domain, live = live_classes
        workers = parts if workers is None else workers
        shards, shard_costs, costs = plan_class_shards(
            live, golden.cycles, domain=domain, parts=parts,
            workers=workers)
        share = sum(costs) / workers
        return shards, shard_costs, costs, share

    @pytest.mark.parametrize("parts, workers", FLEETS)
    def test_every_class_once_in_canonical_order(self, live_classes,
                                                 parts, workers):
        live = live_classes[2]
        shards = self._plan(live_classes, parts, workers)[0]
        index = {interval: i for i, interval in enumerate(live)}
        assert sorted(sum(shards, []), key=index.__getitem__) == list(live)
        for shard in shards:
            assert shard == sorted(shard, key=index.__getitem__)
        assert len(shards) == max(parts, workers or 0)

    @pytest.mark.parametrize("parts, workers", FLEETS)
    def test_only_a_cell_dearer_than_a_share_is_cut(self, live_classes,
                                                    parts, workers):
        golden, domain, live = live_classes
        shards, _, costs, share = self._plan(live_classes, parts, workers)
        cell_cost, homes = Counter(), {}
        for interval, cost in zip(live, costs):
            cell_cost[domain.plan_cell(interval)] += cost
        for number, shard in enumerate(shards):
            for interval in shard:
                homes.setdefault(domain.plan_cell(interval),
                                 set()).add(number)
        cut = {cell for cell, home in homes.items() if len(home) > 1}
        assert all(cell_cost[cell] > share for cell in cut)

    @pytest.mark.parametrize("parts, workers", FLEETS)
    def test_classes_of_one_ram_slot_share_a_shard(self, ram_live_classes,
                                                   parts, workers):
        # The bytes one ``lw`` reads are one word, one cell.  (An
        # instruction reading two registers may see them dealt apart.)
        shards = self._plan(ram_live_classes, parts, workers)[0]
        home = {}
        for number, shard in enumerate(shards):
            for interval in shard:
                assert home.setdefault(interval.injection_slot,
                                       number) == number

    @pytest.mark.parametrize("parts, workers", FLEETS)
    def test_the_same_input_gives_the_same_plan(self, live_classes,
                                                parts, workers):
        assert self._plan(live_classes, parts, workers) \
            == self._plan(live_classes, parts, workers)

    @pytest.mark.parametrize("domain", ["register", "memory"])
    def test_a_two_worker_fleet_exits_early_as_one_executor(self, domain):
        """The early exits of two executors dealt the shards of
        ``scan --jobs 2`` are one executor's, within 1 %: the state
        memo's chains run along a cell, and no cell is cut.  (Slot-range
        shards lost 3.0 % on the register scan, 7.4 % on memory.)"""
        golden = record_golden(bin_sem2.hardened(2))
        domain = get_domain(domain)
        live = domain.build_partition(golden).live_classes()
        shards, _, costs = plan_class_shards(
            live, golden.cycles, domain=domain, parts=DEFAULT_SHARDS,
            workers=2)
        # Not a small campaign: all DEFAULT_SHARDS shards are planned.
        assert sum(costs) >= SMALL_CAMPAIGN_CYCLES
        assert len(shards) == DEFAULT_SHARDS
        one = run_full_scan(golden, domain=domain).execution
        config = ExecutorConfig(domain=domain.name)
        fleet = [config.build(golden), config.build(golden)]
        for number, shard in enumerate(shards):
            for _ in ScanStyle.execute(fleet[number % 2], shard):
                pass
        two = sum(executor.convergence_hits for executor in fleet)
        assert abs(two - one.convergence_hits) <= one.convergence_hits / 100

    @pytest.mark.parametrize("parts, workers", [(8, 2), (8, 4)])
    def test_no_shard_outgrows_a_workers_share(self, live_classes, parts,
                                               workers):
        """With two shards or more per worker, dearest-first dealing
        puts a piece on a shard that already holds one only when at
        least one piece as dear sits on every shard, so no shard ends
        above ``2 · total / shards``.  (One shard per worker is only
        as even as whole cells allow.)"""
        _, shard_costs, costs, share = self._plan(live_classes, parts,
                                                  workers)
        assert max(shard_costs) <= max(share, max(costs))


class TestPicklability:
    """The fork/spawn boundary: everything shipped to workers pickles."""

    def test_program_roundtrip(self, memcopy_golden):
        program = memcopy_golden.program
        clone = pickle.loads(pickle.dumps(program))
        assert clone.rom == program.rom
        assert clone.data == program.data
        assert clone.ram_size == program.ram_size

    def test_golden_run_roundtrip_is_executable(self, memcopy_golden):
        clone = pickle.loads(pickle.dumps(memcopy_golden))
        assert clone.output == memcopy_golden.output
        assert clone.cycles == memcopy_golden.cycles
        # A rebuilt executor over the clone reproduces serial outcomes.
        executor = ExecutorConfig().build(clone)
        live = clone.partition().live_classes()
        coord = live[0].experiments()[0]
        original = ExecutorConfig().build(memcopy_golden).run(coord)
        assert executor.run(coord).outcome == original.outcome

    def test_executor_config_roundtrip(self):
        config = ExecutorConfig(timeout_factor=2.5, timeout_slack=64,
                                use_snapshots=False, early_stop=False)
        assert pickle.loads(pickle.dumps(config)) == config

    def test_executor_config_holds_executor_settings_only(self):
        """Exactly what ``build()`` / ``campaign_params`` read.  Transport
        tuning (deadlines, retries) is ``RetryPolicy``'s; a knob added
        here would ride every campaign frame unread."""
        import dataclasses

        assert {f.name for f in dataclasses.fields(ExecutorConfig)} == {
            "timeout_factor", "timeout_slack", "use_snapshots",
            "early_stop", "use_convergence", "domain", "engine"}


class TestFullScanEquivalence:
    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    @pytest.mark.parametrize("fixture", ["memcopy", "hardened"])
    def test_identical_to_serial(self, jobs, fixture, request):
        golden = request.getfixturevalue(f"{fixture}_golden")
        serial = request.getfixturevalue(f"{fixture}_serial")
        parallel = run_full_scan(golden, jobs=jobs)
        assert list(parallel.class_outcomes.items()) \
            == list(serial.class_outcomes.items())
        assert parallel.weighted_counts() == serial.weighted_counts()
        assert parallel.raw_counts() == serial.raw_counts()

    def test_records_identical_to_serial(self, memcopy_golden,
                                         memcopy_serial):
        parallel = run_full_scan(memcopy_golden, jobs=2, keep_records=True)
        assert parallel.records == memcopy_serial.records

    def test_progress_reaches_total(self, memcopy_golden):
        seen = []
        run_full_scan(memcopy_golden, jobs=2,
                      progress=lambda done, total: seen.append((done,
                                                                total)))
        assert seen[-1][0] == seen[-1][1] > 0
        assert [done for done, _ in seen] \
            == sorted(done for done, _ in seen)


class TestSamplingEquivalence:
    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    @pytest.mark.parametrize("sampler",
                             ["uniform", "live-only", "biased-class"])
    def test_identical_to_serial(self, memcopy_golden, jobs, sampler):
        serial = run_sampling(memcopy_golden, 150, seed=7, sampler=sampler)
        parallel = run_sampling(memcopy_golden, 150, seed=7,
                                sampler=sampler, jobs=jobs)
        assert parallel.samples == serial.samples
        assert parallel.experiments_conducted \
            == serial.experiments_conducted
        assert parallel.population == serial.population
        assert parallel.counts() == serial.counts()

    def test_progress_counts_distinct_experiments(self, memcopy_golden):
        serial_seen, parallel_seen = [], []
        run_sampling(memcopy_golden, 100, seed=1,
                     progress=lambda d, t: serial_seen.append((d, t)))
        run_sampling(memcopy_golden, 100, seed=1, jobs=2,
                     progress=lambda d, t: parallel_seen.append((d, t)))
        assert serial_seen[-1][0] == serial_seen[-1][1] > 0
        assert parallel_seen[-1] == serial_seen[-1]


@pytest.mark.skipif(not os.environ.get("REPRO_FULL_EQUIVALENCE"),
                    reason="full-registry sweep is paper scale; set "
                           "REPRO_FULL_EQUIVALENCE=1 to run")
def test_every_registered_program_matches_serial_at_four_jobs():
    for name, thunk in sorted(all_programs().items()):
        golden = record_golden(thunk())
        serial = run_full_scan(golden)
        parallel = run_full_scan(golden, jobs=4)
        assert list(parallel.class_outcomes.items()) \
            == list(serial.class_outcomes.items()), name
        assert parallel.weighted_counts() == serial.weighted_counts(), name
