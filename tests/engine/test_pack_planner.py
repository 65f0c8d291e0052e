"""Pack planner, auto-tier planner and lane re-admission.

Three layers of the batch tier's win-envelope machinery:

* :func:`repro.engine.plan.plan_tiers` — the geometry-driven tier
  choice behind ``--engine auto`` (width targets, slot ranges, the
  conservative compiled fallback).
* :class:`BatchExperimentExecutor`'s pack planning — thin adjacent-slot
  groups merging into one lockstep pack instead of falling back to
  scalar one slot at a time.
* Lane re-admission — an evicted lane whose scalar continuation
  rejoins the pack's shared pc in phase re-enters lockstep; outcomes
  must stay bit-identical to pure scalar execution either way.
"""

from collections import deque

import pytest

from repro.campaign import ExecutorConfig, record_golden
from repro.campaign.experiment import (
    BatchExperimentExecutor,
    ExperimentExecutor,
)
from repro.engine import AUTO, ENGINES, CompiledEngine
from repro.engine.plan import SlotRange, _ranges, plan_tiers
from repro.faultspace import get_domain
from repro.programs import all_programs, hi, micro, sync2

DOMAINS = ["memory", "register", "burst2", "burst4", "stuck", "pc"]


@pytest.fixture(scope="module")
def sync2_golden():
    return record_golden(sync2.baseline(4))


@pytest.fixture(scope="module")
def hi_golden():
    return record_golden(hi.baseline())


def experiment_coords(golden, domain, *, stride=1, cap=None):
    """Every representative experiment coordinate, slot-sorted."""
    domain = get_domain(domain)
    coords = []
    for interval in domain.build_partition(golden).live_classes():
        for index in range(domain.experiment_count(interval)):
            coords.append(domain.experiment_coordinate(interval, index))
    coords = coords[::stride]
    return coords[:cap] if cap is not None else coords


class TestTierPlanner:
    def test_pc_domain_plans_scalar(self, sync2_golden):
        plan = plan_tiers(sync2_golden, "pc")
        assert plan.engine == "compiled"
        assert plan.batched_fraction == 0.0
        assert "scalar" in plan.reason

    def test_tiny_campaign_plans_interp(self):
        golden = record_golden(micro.counter(2))
        plan = plan_tiers(golden, "memory")
        assert plan.engine == "interp"

    def test_wide_slots_plan_batch(self, sync2_golden):
        # With the break-even lowered beneath the real slot widths the
        # geometry says packs stay wide, so the planner commits to
        # batch and reports the work fraction that justified it.
        plan = plan_tiers(sync2_golden, "memory", breakeven=4)
        assert plan.engine == "batch"
        assert plan.batched_fraction >= 0.5
        assert plan.total_experiments > 0

    def test_narrow_slots_plan_compiled(self, sync2_golden):
        plan = plan_tiers(sync2_golden, "memory", breakeven=10**6)
        assert plan.engine == "compiled"
        assert plan.batched_fraction == 0.0

    def test_ranges_are_ordered_and_disjoint(self, sync2_golden):
        plan = plan_tiers(sync2_golden, "memory", breakeven=4)
        assert plan.ranges
        prev_stop = 0
        for rng in plan.ranges:
            assert rng.start <= rng.stop
            assert rng.start > prev_stop
            prev_stop = rng.stop
            assert rng.tier in ("batch", "compiled")
            assert rng.peak_width >= 1
        assert max(r.peak_width for r in plan.ranges) == plan.peak_width

    def test_range_collapsing_respects_adjacency(self):
        # Adjacent same-tier slots merge; a gap or a tier flip cuts.
        widths = {1: 2, 2: 3, 3: 200, 4: 250, 7: 1}
        assert _ranges(widths, 128) == (
            SlotRange(1, 2, "compiled", 3),
            SlotRange(3, 4, "batch", 250),
            SlotRange(7, 7, "compiled", 1),
        )

    def test_plan_deterministic(self, sync2_golden):
        assert (plan_tiers(sync2_golden, "memory")
                == plan_tiers(sync2_golden, "memory"))

    def test_auto_engine_resolves_to_planned_tier(self, sync2_golden):
        plan = AUTO.plan(sync2_golden, "memory")
        assert AUTO.resolve(sync2_golden, "memory") \
            is ENGINES[plan.engine]

    def test_executor_config_auto_builds_planned_executor(
            self, sync2_golden):
        executor = ExecutorConfig(engine="auto").build(sync2_golden)
        plan = AUTO.plan(sync2_golden, "memory")
        expected = (BatchExperimentExecutor
                    if ENGINES[plan.engine].batch
                    else ExperimentExecutor)
        assert type(executor) is expected


class TestPackPlanning:
    def test_pack_width_accumulates_adjacent_slots(self, hi_golden):
        executor = BatchExperimentExecutor(hi_golden)
        lanes = executor.MIN_LANES
        # Followers at non-descending slots count toward the pack.
        assert executor._pack_width(
            2, 4, deque([(5, [0] * 4), (6, [0] * lanes)])) >= lanes
        # A descending slot can never be admitted: accumulation stops.
        assert executor._pack_width(2, 4, deque([(3, [0] * 100)])) == 2
        # No followers at all: the stretch stands alone.
        assert executor._pack_width(2, 4, deque()) == 2

    def test_pack_width_stops_at_min_lanes(self, hi_golden):
        executor = BatchExperimentExecutor(hi_golden)
        lanes = executor.MIN_LANES
        # The probe answers "is it >= MIN_LANES", nothing more — it
        # must not walk the whole deque once the threshold is reached.
        width = executor._pack_width(
            lanes, 4, deque([(5, [0] * 100), (6, [0] * 100)]))
        assert width == lanes

    def test_thin_adjacent_groups_share_packs(self, sync2_golden):
        # One representative per class: every same-slot group is far
        # below MIN_LANES, so without cross-slot admission everything
        # would run scalar.  With it, adjacent groups pool into wide
        # packs — and the results stay bit-identical to scalar.
        domain = get_domain("memory")
        coords = [domain.experiment_coordinate(interval, 0)
                  for interval
                  in domain.build_partition(sync2_golden).live_classes()]
        coords = coords[:300]
        slots = {coord.slot for coord in coords}
        scalar = ExperimentExecutor(sync2_golden)
        batch = BatchExperimentExecutor(sync2_golden)
        assert batch.run_many(coords) == [scalar.run(c) for c in coords]
        assert batch.packs_opened > 0
        # Far fewer packs than slots: adjacent slots shared packs.
        assert batch.packs_opened < len(slots) / 2
        # And the achieved mean width cleared the scalar-fallback bar.
        mean_width = batch.packed_lanes / batch.packs_opened
        assert mean_width >= batch.MIN_LANES

    def test_admission_respects_pack_target(self, sync2_golden,
                                            monkeypatch):
        # Cross-slot admission stops growing a pack once PACK_TARGET is
        # reached; groups are admitted whole, so a pack can overshoot
        # by at most the last group's width (here capped at 4).  The
        # bound is on lanes alive at once: lanes that left make room,
        # so the lanes a pack hosts over its lifetime may exceed it.
        from repro.engine.batch import LockstepLanes

        widths = []
        admit = LockstepLanes.admit

        def recording_admit(lanes, state):
            lane = admit(lanes, state)
            widths.append(lanes.n)
            return lane

        monkeypatch.setattr(LockstepLanes, "admit", recording_admit)
        domain = get_domain("memory")
        coords = []
        taken: dict[int, int] = {}
        for interval in domain.build_partition(
                sync2_golden).live_classes():
            coord = domain.experiment_coordinate(interval, 0)
            if taken.get(coord.slot, 0) < 4:  # keep every group thin
                taken[coord.slot] = taken.get(coord.slot, 0) + 1
                coords.append(coord)
        batch = BatchExperimentExecutor(sync2_golden)
        batch.run_many(coords)
        assert batch.packs_opened > 0
        assert widths and max(widths) <= batch.PACK_TARGET + 4


class TestReadmissionDifferential:
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_batch_equals_scalar(self, hi_golden, domain):
        coords = experiment_coords(hi_golden, domain, cap=300)
        scalar = ExperimentExecutor(hi_golden, domain=domain)
        batch = BatchExperimentExecutor(hi_golden, domain=domain)
        assert batch.run_many(coords) == [scalar.run(c) for c in coords]

    def test_readmission_fires_and_stays_exact(self, monkeypatch):
        # Pinned combination known to re-admit lanes: stuck-at faults
        # evict armed lanes before stores, the latch releases on the
        # scalar continuation, and the lane rejoins the pack in phase.
        # Evicted lanes settle where the pack stops to probe, and this
        # 12-cycle program ends before the JIT's first probe — so pin
        # the dense schedule that stops inside it.
        monkeypatch.setattr(CompiledEngine, "probe_gap", 1)
        golden = record_golden(all_programs()["hi-dftprime4"]())
        coords = experiment_coords(golden, "stuck")
        scalar = ExperimentExecutor(golden, domain="stuck")
        batch = BatchExperimentExecutor(golden, domain="stuck")
        assert batch.run_many(coords) == [scalar.run(c) for c in coords]
        assert batch.readmitted_lanes > 0
        assert batch.scalar_tail_experiments > 0

    def test_scalar_executor_reports_zero_pack_counters(self, hi_golden):
        executor = ExperimentExecutor(hi_golden)
        executor.run_many(experiment_coords(hi_golden, "memory", cap=40))
        assert executor.scalar_tail_experiments == 0
        assert executor.readmitted_lanes == 0
        assert executor.packs_opened == 0
