"""Tests for the campaign runners (full scan, brute force, sampling)."""

import sqlite3
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.campaign import (
    CampaignResult,
    ExperimentJournal,
    Outcome,
    record_golden,
    run_brute_force,
    run_full_scan,
    run_sampling,
)
from repro.analysis.report import failure_attribution
from repro.campaign.database import CampaignSummary
from repro.campaign.pipeline import ExecutionReport
from repro.campaign.runner import ScanStyle
from repro.faultspace import DOMAINS
from repro.faultspace.domain import PCDomain
from repro.faultspace.pcreg import ILLEGAL_AXIS
from repro.metrics import expected_biased_class_estimate
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


@contextmanager
def _skewed(domain):
    """The domain's per-experiment weights made unequal within a
    class, which then no longer says that its classes weigh alike."""
    weights = domain.experiment_slot_weights
    with mock.patch.object(
            domain, "experiment_slot_weights",
            lambda interval: tuple(weight + index % 3 for index, weight
                                   in enumerate(weights(interval)))), \
            mock.patch.object(domain, "class_slot_weights", lambda: None):
        yield


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


def reference_tally(result) -> list:
    """``CampaignResult.tally`` walked bit by bit: every experiment of
    every live class present, in canonical order, expanded by its
    class's data lifetime and slot weight; outcomes in the order first
    met."""
    weighted: dict = {}
    raw: dict = {}
    domain = result.domain
    for interval in result.partition.live_classes():
        outcomes = result.class_outcomes.get(domain.class_key(interval))
        if outcomes is None:
            continue
        weights = domain.experiment_slot_weights(interval)
        for bit, outcome in enumerate(outcomes):
            weight = weights[bit] if bit < len(weights) else 0
            weighted[outcome] = weighted.get(outcome, 0) \
                + interval.length * weight
            raw[outcome] = raw.get(outcome, 0) + 1
    return [(outcome, weighted[outcome], raw[outcome]) for outcome in raw]


def reference_attribution(result) -> list:
    """``failure_attribution`` as first written: a pass of its own over
    ``class_records``, a ``Counter`` bumped per failing class."""
    domain = result.domain
    label = domain.location_label(result.golden)
    weights: Counter = Counter()
    for interval, outcomes in result.class_records():
        failing = sum(weight for outcome, weight in zip(
            outcomes, domain.experiment_slot_weights(interval))
            if outcome.is_failure)
        if failing:
            weights[label(domain.axis_of(interval))] += \
                interval.length * failing
    return weights.most_common()


#: Programs whose scans cover every domain in well under a second.
_WALK_PROGRAMS = {"memcopy": lambda: micro.memcopy(3),
                  "counter": micro.counter,
                  "checksum": micro.checksum_loop,
                  "stack_echo": micro.stack_echo}
#: The programs each domain's journaled scans are compared on.
_PARITY_PROGRAMS = ("memcopy", "counter", "checksum")
_PLAIN: dict = {}


def _plain_scan(program: str, domain: str):
    """The journal-free scan of ``program`` in ``domain``, made once."""
    if (program, domain) not in _PLAIN:
        _PLAIN[program, domain] = run_full_scan(
            record_golden(_WALK_PROGRAMS[program]()), domain=domain)
    return _PLAIN[program, domain]


def assert_same_scan(result, plain):
    """What a scan reports equals the journal-free scan's: outcomes,
    their canonical order, tally, ΔF by location and the biased-class
    estimate (P2)."""
    assert result == plain
    assert list(result.class_outcomes) == list(plain.class_outcomes) == [
        plain.domain.class_key(interval)
        for interval in plain.partition.live_classes()]
    assert result.tally() == plain.tally()
    assert failure_attribution(result, top=None) \
        == failure_attribution(plain, top=None)
    assert CampaignSummary.from_result(result) \
        == CampaignSummary.from_result(plain)


class TestOneWalk:
    """A scan's tally, ΔF attribution and biased-class estimate come
    from the one walk of its assembly (``ScanStyle.result``), or from
    ``class_records`` for a result built by hand, and equal a walk of
    the classes bit by bit — order included."""

    @pytest.fixture(scope="class",
                    params=[(program, domain) for program in _WALK_PROGRAMS
                            for domain in sorted(DOMAINS)],
                    ids="-".join)
    def scan(self, request):
        program, domain = request.param
        return run_full_scan(record_golden(_WALK_PROGRAMS[program]()),
                             domain=domain)

    @staticmethod
    def assert_walk_matches_the_references(result):
        assert result.tally() == reference_tally(result)
        assert failure_attribution(result, top=None) \
            == reference_attribution(result)
        if len(result.class_outcomes) \
                == len(result.partition.live_classes()):
            assert CampaignSummary.from_result(result) \
                .biased_class_estimate \
                == expected_biased_class_estimate(result)

    def test_a_scan_is_counted_by_its_assembly(self, scan):
        assert scan._tally is not None  # counted while assembling
        self.assert_walk_matches_the_references(scan)

    def test_a_degraded_assembly_counts_the_classes_present(self, scan):
        """The assembly of a campaign missing every third class walks
        the classes it has."""
        style = ScanStyle(scan.golden, scan.domain, scan.partition)
        kept = {key: outcomes for index, (key, outcomes)
                in enumerate(scan.class_outcomes.items()) if index % 3}
        degraded = style.result(kept, ExecutionReport())
        assert list(degraded.class_outcomes) == list(kept)
        assert degraded.execution.missing == tuple(
            key for key in scan.class_outcomes if key not in kept)
        self.assert_walk_matches_the_references(degraded)

    @pytest.mark.parametrize("program", _PARITY_PROGRAMS)
    @pytest.mark.parametrize("domain", sorted(DOMAINS))
    def test_cold_resumed_and_composed_scans_equal_the_plain_one(
            self, tmp_path, program, domain):
        """A journaled cold scan, a warm resume and a composed re-sweep
        (``resume=False``) each equal the scan without a journal:
        outcomes in canonical order, tally, ΔF and P2 — and account
        for what they read."""
        plain = _plain_scan(program, domain)
        experiments = plain.experiments_conducted
        live = len(plain.class_outcomes)
        path = tmp_path / "scan.sqlite"
        for resume, resumed, composed in ((True, 0, 0),
                                          (True, live, 0),
                                          (False, live, experiments)):
            result = run_full_scan(plain.golden, domain=domain,
                                   journal=path, resume=resume)
            assert_same_scan(result, plain)
            execution = result.execution
            assert (execution.resumed, execution.composed_hits,
                    execution.executed, execution.discarded_results,
                    execution.missing) \
                == (resumed, composed, live - resumed, 0, ())
            self.assert_walk_matches_the_references(result)

    def test_a_hand_built_result_with_unshared_tuples(self, scan):
        """Equal outcome tuples that are distinct objects (no
        ``ScanStyle.keep`` decoded them) count as the shared ones do."""
        copied = {key: tuple(list(outcomes))
                  for key, outcomes in scan.class_outcomes.items()}
        assert len(set(map(id, copied.values()))) == len(copied)
        built = CampaignResult(golden=scan.golden, partition=scan.partition,
                               class_outcomes=copied, domain=scan.domain)
        assert built._tally is None
        self.assert_walk_matches_the_references(built)
        assert built.tally() == scan.tally()
        assert built == scan


class TestOneCheckPerDistinctRun:
    """``ScanStyle.match`` checks each distinct (run, experiment count)
    pair once; every row still gets that pair's verdict."""

    def test_one_malformed_run_at_two_classes_is_discarded_at_both(
            self, tmp_path, hi_golden, hi_scan):
        path = tmp_path / "hi.sqlite"
        run_full_scan(hi_golden, journal=path)
        conn = sqlite3.connect(path)
        with conn:
            rows = conn.execute(
                "SELECT section_id, slot, axis, end_cycle, trap FROM "
                "section_results WHERE bit = 0 ORDER BY slot, axis "
                "LIMIT 2").fetchall()
            spoiled = (" ".join(["bogus"] * 8), rows[0][3], rows[0][4])
            for section, slot, axis, _, _ in rows:
                conn.execute(
                    "UPDATE section_results SET outcome = ?, end_cycle = ?, "
                    "trap = ? WHERE section_id = ? AND slot = ? AND axis = ? "
                    "AND bit = 0", (*spoiled, section, slot, axis))
            conn.execute("UPDATE campaigns SET status = 'running'")
        conn.close()
        result = run_full_scan(hi_golden, journal=path)
        assert result == hi_scan
        assert result.execution.discarded_results == 2
        assert result.execution.executed == 2
        with ExperimentJournal(path) as journal:
            (campaign,) = journal.fabric_report()
        assert [event["kind"] for event in campaign["events"]] \
            == ["salvage-prune"]

    @pytest.mark.parametrize("program", _PARITY_PROGRAMS)
    @pytest.mark.parametrize("domain", sorted(DOMAINS))
    def test_a_degraded_warm_read(self, tmp_path, program, domain):
        """A warm resume of a section store that a sampled campaign
        shares, less one class's row, with one malformed run stored at
        two classes and one class's run cut short: the result is the
        journal-free scan's; the malformed rows alone are discarded,
        with one ``salvage-prune`` event; the four classes re-execute;
        the sampled campaign's rows at other bits are left alone."""
        plain = _plain_scan(program, domain)
        path = tmp_path / "degraded.sqlite"
        run_sampling(plain.golden, 40, seed=3, sampler="live-only",
                     domain=domain, journal=path)
        run_full_scan(plain.golden, domain=domain, journal=path)
        conn = sqlite3.connect(path)
        with conn:
            rows = conn.execute(
                "SELECT section_id, slot, axis, outcome, end_cycle, trap "
                "FROM section_results WHERE bit = 0 "
                "ORDER BY section_id, slot, axis LIMIT 4").fetchall()
            where = ("WHERE section_id = ? AND slot = ? AND axis = ? "
                     "AND bit = 0")
            conn.execute(f"DELETE FROM section_results {where}", rows[0][:3])
            spoiled = ("bogus", rows[1][4].split(" ")[0], "")
            for row in rows[1:3]:
                conn.execute("UPDATE section_results SET outcome = ?, "
                             f"end_cycle = ?, trap = ? {where}",
                             (*spoiled, *row[:3]))
            values = [column.split(" ") for column in rows[3][3:]]
            short = len(values[0]) > 1  # a PC class is one experiment
            if short:
                conn.execute("UPDATE section_results SET outcome = ?, "
                             f"end_cycle = ?, trap = ? {where}",
                             (*[" ".join(column[:-1]) for column in values],
                              *rows[3][:3]))
            others = conn.execute("SELECT * FROM section_results WHERE "
                                  "bit > 0 ORDER BY 1, 2, 3, 4").fetchall()
        conn.close()
        # The sampled campaign's rows at other bits (a PC class has
        # none: its one experiment is bit 0, what the scan reads).
        assert bool(others) == short
        warm = run_full_scan(plain.golden, domain=domain, journal=path)
        assert_same_scan(warm, plain)
        execution = warm.execution
        touched = 3 + short
        assert (execution.executed, execution.resumed,
                execution.composed_hits, execution.discarded_results,
                execution.missing) \
            == (touched, len(plain.class_outcomes) - touched, 0, 2, ())
        with ExperimentJournal(path) as journal:
            events = [event["kind"] for campaign in journal.fabric_report()
                      for event in campaign["events"]]
        assert events == ["salvage-prune"]
        conn = sqlite3.connect(path)
        assert conn.execute("SELECT * FROM section_results WHERE bit > 0 "
                            "ORDER BY 1, 2, 3, 4").fetchall() == others
        conn.close()

    def test_a_run_valid_at_one_count_is_refused_at_another(self):
        """A PC domain whose grouped illegal-target class runs one
        experiment per member bit: the one-value run a singleton class
        trusts is too short for the group, so the group re-executes."""
        class PerBitGroups(PCDomain):
            def experiment_count(self, interval):
                return len(interval.members)

        golden = record_golden(micro.counter())
        style = ScanStyle(golden, PerBitGroups())
        single = next(key for key, interval in style.units.items()
                      if len(interval.members) == 1)
        group = next(key for key, interval in style.units.items()
                     if key[0] == ILLEGAL_AXIS)
        run = ("sdc", "12", "none")
        rows = [(1, style.units[key].injection_slot, key[0], 0, *run)
                for key in (single, group)]
        for order in (rows, rows[::-1]):
            kept, todo, bad, experiments = style.match(order)
            assert (kept, bad, experiments) == ({single: (Outcome.SDC,)},
                                                [], 1)
            assert style.units[group] in todo
            assert style.units[single] not in todo
