"""Property-based tests for the def/use and campaign invariants.

Hypothesis generates micro-programs (family × size × fault domain) and
checks the invariants the paper's methodology rests on:

* the def/use equivalence classes *partition* the raw fault space —
  class weights sum to ``w`` and every raw coordinate belongs to exactly
  one covering class;
* the pruned scan is exact — ``weighted_failure_count`` (and every
  single coordinate's outcome) equals the brute-force ground truth;
* sampling shares experiments without changing any outcome;
* a journaled campaign interrupted at an arbitrary point resumes to a
  bit-for-bit identical result.

Examples are deliberately few (the programs are real simulations, not
pure functions); the value is in the generator exploring family/size/
domain combinations no hand-written test enumerates.
"""

import pytest

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.campaign import (
    ExecutorConfig,
    record_golden,
    run_brute_force,
    run_full_scan,
    run_sampling,
)
from repro.faultspace import get_domain
from repro.faultspace.defuse import LIVE
from repro.programs import micro

#: family name -> (program factory, generated size range)
FAMILIES = {
    "counter": (micro.counter, (1, 3)),
    "memcopy": (micro.memcopy, (1, 3)),
    "checksum": (micro.checksum_loop, (1, 2)),
}

_GOLDEN_CACHE: dict = {}


def _golden(family: str, size: int):
    """Golden runs are deterministic; cache them across examples."""
    key = (family, size)
    if key not in _GOLDEN_CACHE:
        _GOLDEN_CACHE[key] = record_golden(FAMILIES[family][0](size))
    return _GOLDEN_CACHE[key]


@st.composite
def programs(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    low, high = FAMILIES[family][1]
    size = draw(st.integers(min_value=low, max_value=high))
    return _golden(family, size)


domains = st.sampled_from(["memory", "register"])

SETTINGS = settings(max_examples=10, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestPartitionInvariants:
    @SETTINGS
    @given(golden=programs(), domain=domains)
    def test_class_weights_partition_the_fault_space(self, golden,
                                                     domain):
        """Σ class weights == w = Δt · Δm (Pitfall 1's precondition)."""
        domain = get_domain(domain)
        partition = domain.build_partition(golden)
        space = domain.fault_space(golden)
        assert partition.total_weight == space.size
        live_weight = sum(iv.weight_bits
                          for iv in partition.live_classes())
        assert live_weight + partition.known_no_effect_weight \
            == space.size

    @SETTINGS
    @given(golden=programs(), domain=domains)
    def test_every_coordinate_has_exactly_one_covering_class(
            self, golden, domain):
        """locate() is total and consistent; together with the weight
        sum above this proves the classes are disjoint and exhaustive."""
        domain = get_domain(domain)
        partition = domain.build_partition(golden)
        space = domain.fault_space(golden)
        for coord in space.iter_coordinates():
            interval = partition.locate(coord)
            assert interval.covers(coord.slot)
            assert domain.axis_of(interval) \
                == domain.coordinate_axis(coord)

    @SETTINGS
    @given(golden=programs(), domain=domains)
    def test_live_class_experiments_match_domain_width(self, golden,
                                                       domain):
        domain = get_domain(domain)
        partition = domain.build_partition(golden)
        for interval in partition.live_classes():
            experiments = interval.experiments()
            assert len(experiments) == domain.bits
            assert [c.bit for c in experiments] \
                == list(range(domain.bits))


class TestScanGroundTruth:
    @SETTINGS
    @given(golden=programs(), domain=domains)
    def test_pruned_scan_equals_brute_force_everywhere(self, golden,
                                                       domain):
        """The central soundness claim: def/use pruning changes no
        outcome, so the weighted failure count IS the ground truth."""
        scan = run_full_scan(golden, domain=domain)
        brute = run_brute_force(golden, domain=domain)
        failures = sum(1 for outcome in brute.outcomes.values()
                       if outcome.is_failure)
        assert scan.weighted_failure_count() == failures
        for coord, outcome in brute.outcomes.items():
            assert scan.outcome_of(coord) == outcome

    @SETTINGS
    @given(golden=programs(), domain=domains)
    def test_weighted_counts_sum_to_fault_space_size(self, golden,
                                                     domain):
        scan = run_full_scan(golden, domain=domain)
        assert sum(scan.weighted_counts().values()) \
            == scan.fault_space_size
        assert sum(scan.raw_counts().values()) \
            == scan.experiments_conducted


class TestSamplingInvariants:
    @SETTINGS
    @given(golden=programs(), seed=st.integers(0, 2**32 - 1),
           n=st.integers(1, 60))
    def test_sampled_outcomes_agree_with_the_full_scan(self, golden,
                                                       seed, n):
        """Experiment sharing across samples never changes an outcome."""
        scan = run_full_scan(golden)
        result = run_sampling(golden, n, seed=seed)
        partition = result.partition
        for sample, outcome in result.samples:
            if sample.class_kind != LIVE:
                assert not outcome.is_failure
                continue
            interval = partition.locate(sample.coordinate)
            representative = result.domain.coordinate(
                interval.injection_slot,
                result.domain.axis_of(interval),
                sample.coordinate.bit)
            assert outcome == scan.outcome_of(representative)
        assert result.experiments_conducted <= n


class TestConvergenceInvariant:
    @SETTINGS
    @given(golden=programs(), domain=domains)
    def test_early_exit_changes_no_outcome(self, golden, domain):
        """Convergence detection (ladder probes + criticality
        pre-skip) is pure speed: with it on or off, the full scan is
        identical — results, records, CSV bytes."""
        on = run_full_scan(golden, domain=domain, keep_records=True,
                           config=ExecutorConfig(use_convergence=True))
        off = run_full_scan(golden, domain=domain, keep_records=True,
                            config=ExecutorConfig(use_convergence=False))
        assert on == off
        assert off.execution.convergence_hits == 0
        assert off.execution.slice_hits == 0

    @SETTINGS
    @given(golden=programs(), domain=domains,
           seed=st.integers(0, 2**32 - 1))
    def test_early_exit_changes_no_sample(self, golden, domain, seed):
        on = run_sampling(golden, 40, seed=seed, domain=domain,
                          config=ExecutorConfig(use_convergence=True))
        off = run_sampling(golden, 40, seed=seed, domain=domain,
                           config=ExecutorConfig(use_convergence=False))
        assert on == off


class TestResumeProperty:
    @SETTINGS
    @given(golden=programs(), kill_after=st.integers(1, 200),
           seed=st.integers(0, 1000))
    def test_resume_after_arbitrary_interrupt_is_identical(
            self, golden, kill_after, seed, tmp_path_factory):
        """Interrupt a journaled scan at a generated point; the resumed
        result must be bit-for-bit the uninterrupted one."""
        journal = tmp_path_factory.mktemp("journal") / "j.sqlite"
        baseline = run_full_scan(golden, keep_records=True)

        class Kill(Exception):
            pass

        def bomb(done, total):
            if done >= kill_after:
                raise Kill

        try:
            run_full_scan(golden, journal=journal, keep_records=True,
                          progress=bomb)
            interrupted = False
        except Kill:
            interrupted = True
        resumed = run_full_scan(golden, journal=journal,
                                keep_records=True)
        assert resumed == baseline
        if interrupted:
            assert resumed.execution.resumed >= min(
                kill_after, resumed.execution.total_units)
