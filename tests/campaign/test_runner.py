"""Tests for the campaign runners (full scan, brute force, sampling)."""

from collections import Counter
from contextlib import nullcontext
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.campaign import (
    Outcome,
    record_golden,
    run_brute_force,
    run_full_scan,
    run_sampling,
)
from repro.campaign.database import CampaignSummary
from repro.faultspace import DOMAINS
from repro.programs import hi, micro


@pytest.fixture(scope="module")
def hi_golden():
    return record_golden(hi.baseline())


@pytest.fixture(scope="module")
def hi_scan(hi_golden):
    return run_full_scan(hi_golden)


def reference_weighted_counts(result) -> Counter:
    """``CampaignResult.weighted_counts`` as first written: a Counter
    bumped per experiment.  The implementation counts a class at a time
    (``CampaignResult.tally``); this is what it must keep returning."""
    counts: Counter = Counter()
    for interval in result.partition.live_classes():
        key = result.domain.class_key(interval)
        if key not in result.class_outcomes:
            continue
        weights = result.domain.experiment_slot_weights(interval)
        for outcome, weight in zip(result.class_outcomes[key], weights):
            counts[outcome] += interval.length * weight
    counts[Outcome.NO_EFFECT] += result.partition.known_no_effect_weight
    return counts


def reference_raw_counts(result) -> Counter:
    """``CampaignResult.raw_counts`` as first written."""
    counts: Counter = Counter()
    for outcomes in result.class_outcomes.values():
        counts.update(outcomes)
    return counts


def assert_counts_match_the_references(result):
    """Weighted and raw counts, and the summary's value-keyed copies of
    them: the references' keys, values and order."""
    weighted = reference_weighted_counts(result)
    raw = reference_raw_counts(result)
    assert list(result.weighted_counts().items()) == list(weighted.items())
    assert list(result.raw_counts().items()) == list(raw.items())
    summary = CampaignSummary.from_result(result)
    assert list(summary.weighted_counts.items()) \
        == [(outcome.value, count) for outcome, count in weighted.items()]
    assert list(summary.raw_counts.items()) \
        == [(outcome.value, count) for outcome, count in raw.items()]
    assert summary.experiments == sum(raw.values())


class TestWeightedCountsContract:
    @pytest.fixture(scope="class", params=sorted(DOMAINS))
    def scan(self, request):
        return run_full_scan(record_golden(micro.memcopy(3)),
                             domain=request.param)

    def test_same_keys_values_and_order_as_the_reference(self, scan):
        counts = scan.weighted_counts()
        assert type(counts) is Counter
        # Items in order: no key the reference lacks (a zero-valued
        # one, say), none missing, first-seen order kept.
        assert list(counts.items()) \
            == list(reference_weighted_counts(scan).items())
        assert Outcome.NO_EFFECT in counts
        assert sum(counts.values()) == scan.fault_space_size

    def test_degraded_result_skips_the_missing_class(self, scan):
        """Dropping a class (an abandoned shard) drops its weight; an
        outcome only that class had leaves the key set."""
        for dropped in scan.class_outcomes:
            degraded = replace(scan, class_outcomes={
                key: outcomes
                for key, outcomes in scan.class_outcomes.items()
                if key != dropped})
            counts = degraded.weighted_counts()
            assert list(counts.items()) \
                == list(reference_weighted_counts(degraded).items())
            assert Outcome.NO_EFFECT in counts
            assert sum(counts.values()) < scan.fault_space_size

    def test_no_class_at_all_still_reports_no_effect(self, scan):
        empty = replace(scan, class_outcomes={})
        assert dict(empty.weighted_counts()) == {
            Outcome.NO_EFFECT: scan.partition.known_no_effect_weight}

    def test_raw_counts_and_summary_match_the_references(self, scan):
        assert_counts_match_the_references(scan)
        for dropped in scan.class_outcomes:
            assert_counts_match_the_references(replace(scan, class_outcomes={
                key: outcomes
                for key, outcomes in scan.class_outcomes.items()
                if key != dropped}))


_SCANS: dict = {}


@st.composite
def drawn_results(draw):
    """A ``memcopy(3)`` scan's partition in any domain with drawn
    per-bit outcomes — from a palette small enough that classes repeat
    and mix, so several outcomes are first met in one class — about a
    tenth of the classes dropped, and whether the domain's experiment
    weights are skewed (no domain's are, but the contract allows it)."""
    name = draw(st.sampled_from(sorted(DOMAINS)))
    if name not in _SCANS:
        _SCANS[name] = run_full_scan(record_golden(micro.memcopy(3)),
                                     domain=name)
    scan = _SCANS[name]
    palette = draw(st.lists(st.sampled_from(list(Outcome)), min_size=1,
                            max_size=4, unique=True))
    class_outcomes = {
        key: tuple(draw(st.lists(st.sampled_from(palette),
                                 min_size=len(outcomes),
                                 max_size=len(outcomes))))
        for key, outcomes in scan.class_outcomes.items()
        if draw(st.integers(0, 9))}
    return replace(scan, class_outcomes=class_outcomes), draw(st.booleans())


def _skewed(domain):
    """The domain's per-experiment weights made unequal within a
    class."""
    weights = domain.experiment_slot_weights
    return mock.patch.object(
        domain, "experiment_slot_weights",
        lambda interval: tuple(weight + index % 3 for index, weight
                               in enumerate(weights(interval))))


class TestOnePassCounts:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(drawn=drawn_results())
    def test_any_outcomes_match_the_references(self, drawn):
        result, skew = drawn
        with _skewed(result.domain) if skew else nullcontext():
            assert_counts_match_the_references(result)


class TestFullScan:
    def test_weighted_counts_sum_to_fault_space(self, hi_scan):
        counts = hi_scan.weighted_counts()
        assert sum(counts.values()) == hi_scan.fault_space_size

    def test_raw_counts_sum_to_experiments(self, hi_scan):
        counts = hi_scan.raw_counts()
        assert sum(counts.values()) == hi_scan.experiments_conducted

    def test_outcome_of_resolves_every_coordinate(self, hi_scan):
        space = hi_scan.golden.fault_space
        for coord in space.iter_coordinates():
            assert hi_scan.outcome_of(coord) in Outcome

    def test_class_records_cover_all_live_classes(self, hi_scan):
        records = hi_scan.class_records()
        assert len(records) == len(hi_scan.class_outcomes)
        for interval, outcomes in records:
            assert len(outcomes) == 8

    def test_keep_records_retains_experiment_records(self, hi_golden):
        scan = run_full_scan(hi_golden, keep_records=True)
        assert len(scan.records) == scan.experiments_conducted

    def test_progress_callback_invoked(self, hi_golden):
        seen = []
        run_full_scan(hi_golden,
                      progress=lambda done, total: seen.append((done,
                                                                total)))
        assert seen[-1][0] == seen[-1][1] > 0

    def test_experiments_conducted_derived_from_outcome_tuples(self,
                                                               hi_scan):
        """Not hardcoded to 8 bits: campaigns over wider words (e.g. the
        32-bit register file) must report correct totals."""
        from repro.campaign import CampaignResult

        wide = CampaignResult(
            golden=hi_scan.golden, partition=hi_scan.partition,
            class_outcomes={
                key: outcomes * 4  # pretend 32 experiments per class
                for key, outcomes in hi_scan.class_outcomes.items()})
        assert wide.experiments_conducted \
            == 32 * len(hi_scan.class_outcomes)
        assert hi_scan.experiments_conducted \
            == 8 * len(hi_scan.class_outcomes)


class TestBruteForce:
    def test_brute_force_covers_whole_space(self, hi_golden):
        result = run_brute_force(hi_golden)
        assert len(result.outcomes) == hi_golden.fault_space.size
        assert sum(result.counts().values()) == result.fault_space_size

    def test_brute_force_agrees_with_pruned_scan(self, hi_golden, hi_scan):
        """Pruning is an optimization: it must not change ANY result."""
        brute = run_brute_force(hi_golden)
        for coord, outcome in brute.outcomes.items():
            assert hi_scan.outcome_of(coord) == outcome
        assert brute.counts() == hi_scan.weighted_counts()


class TestSampling:
    def test_uniform_sampling_population_is_w(self, hi_golden):
        result = run_sampling(hi_golden, 100, seed=1)
        assert result.population == hi_golden.fault_space.size
        assert result.n_samples == 100

    def test_live_only_population_is_live_weight(self, hi_golden):
        partition = hi_golden.partition()
        result = run_sampling(hi_golden, 100, seed=1, sampler="live-only",
                              partition=partition)
        assert result.population == partition.live_weight

    def test_sampling_shares_experiments_within_classes(self, hi_golden):
        result = run_sampling(hi_golden, 500, seed=2)
        # The Hi fault space has very few distinct (class, bit) pairs, so
        # 500 samples must share far fewer experiments.
        assert result.experiments_conducted < 100
        assert result.n_samples == 500

    def test_sample_outcomes_match_full_scan(self, hi_golden, hi_scan):
        result = run_sampling(hi_golden, 300, seed=3)
        for sample, outcome in result.samples:
            assert hi_scan.outcome_of(sample.coordinate) == outcome

    def test_sampling_deterministic_per_seed(self, hi_golden):
        a = run_sampling(hi_golden, 50, seed=9)
        b = run_sampling(hi_golden, 50, seed=9)
        assert [(s.coordinate, o) for s, o in a.samples] \
            == [(s.coordinate, o) for s, o in b.samples]

    def test_unknown_sampler_rejected(self, hi_golden):
        with pytest.raises(ValueError, match="unknown sampler"):
            run_sampling(hi_golden, 10, sampler="bogus")

    def test_zero_samples_rejected(self, hi_golden):
        with pytest.raises(ValueError):
            run_sampling(hi_golden, 0)

    def test_biased_sampler_runs(self, hi_golden):
        result = run_sampling(hi_golden, 100, seed=4,
                              sampler="biased-class")
        assert result.sampler == "biased-class"
        assert result.n_samples == 100

    def test_failure_count_counts_failures_only(self, hi_golden):
        result = run_sampling(hi_golden, 200, seed=5)
        manual = sum(1 for _, o in result.samples if o.is_failure)
        assert result.failure_count() == manual


class TestMultiByteProgram:
    def test_full_scan_of_memcopy_is_consistent(self):
        golden = record_golden(micro.memcopy(4))
        scan = run_full_scan(golden)
        counts = scan.weighted_counts()
        assert sum(counts.values()) == golden.fault_space.size
        # Corrupting any live source/destination byte must fail somewhere.
        failures = sum(n for o, n in counts.items() if o.is_failure)
        assert failures > 0
