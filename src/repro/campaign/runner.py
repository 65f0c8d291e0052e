"""Campaign runners: full fault-space scans and sampling campaigns.

Three campaign styles are provided, each generic over a
:class:`~repro.faultspace.domain.FaultDomain` (memory by default,
``domain="register"`` for the Section VI-B register fault model):

* :func:`run_full_scan` — the def/use-pruned full fault-space scan: one
  experiment per live equivalence class and bit, dead classes accounted
  as known "No Effect".  Exact and feasible (Section III-C).
* :func:`run_brute_force` — one real experiment per raw fault-space
  coordinate.  Exponentially more work; exists as ground truth for tests
  proving that pruning does not change any result.
* :func:`run_sampling` — a sampled campaign with a pluggable sampler
  (raw-uniform, live-only, or the deliberately biased class sampler for
  Pitfall 2 demonstrations).

All three accept ``jobs=`` for multiprocess sharding and produce results
bit-for-bit identical to their serial runs; see
:mod:`repro.campaign.parallel`.

All three also accept ``journal=`` (an
:class:`~repro.campaign.journal.ExperimentJournal` or a path): completed
work units are then appended durably as the campaign runs, and a rerun
of the same campaign against the same journal *resumes*, skipping every
journaled unit.  The contract is strict — a resumed campaign returns a
result bit-for-bit identical to an uninterrupted one, including
iteration order, record lists and sample sequences.  ``resume=False``
clears the journaled campaign first.  ``result.execution`` reports how
the campaign actually ran (units executed vs. resumed, shard retries,
wall-clock timeouts, completeness).
"""

from __future__ import annotations

from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable

from ..faultspace.defuse import LIVE
from ..faultspace.domain import FaultDomain, MEMORY, get_domain
from ..faultspace.sampling import (
    BiasedClassSampler,
    LiveOnlySampler,
    Sample,
    UniformSampler,
)
from .compose import build_composer, compose_into_completed
from .experiment import ExecutorConfig, ExperimentExecutor, ExperimentRecord
from .golden import GoldenRun
from .journal import ExecutionReport, open_campaign
from .outcomes import Outcome

ProgressCallback = Callable[[int, int], None]


def _executor_params(executor: ExperimentExecutor) -> dict:
    """The executor settings that affect outcomes — part of the journal
    key, so a changed timeout policy opens a fresh campaign instead of
    mixing incompatible classifications.  ``use_convergence`` is
    deliberately absent: it cannot change any outcome, so a campaign
    journaled with it on resumes cleanly with it off and vice versa."""
    return {"timeout_cycles": executor.timeout_cycles,
            "early_stop": executor.early_stop}


def _build_executor(golden: GoldenRun,
                    executor: ExperimentExecutor | None,
                    config: ExecutorConfig | None,
                    domain: FaultDomain,
                    partition=None) -> ExperimentExecutor:
    """Resolve the serial path's executor from the caller's arguments.

    ``partition`` forwards an already-built def/use partition to the
    ``auto`` engine's tier planner so resolving it is free on paths
    that have one (the planner otherwise builds and caches its own)."""
    if executor is not None:
        if config is not None:
            raise ValueError(
                "pass either executor= or config=, not both; the config "
                "exists to build an executor when none is given")
        return executor
    return replace(config or ExecutorConfig(),
                   domain=domain.name).build(golden, partition=partition)


@dataclass
class CampaignResult:
    """Outcome of a def/use-pruned full fault-space scan, in any domain.

    ``class_outcomes`` maps each live class key ``(axis, first_slot)``
    — byte address or register number, depending on the domain — to the
    per-bit outcomes of its representative experiments (8 for memory
    classes, 32 for register classes).

    ``execution`` (excluded from equality) reports completeness: for a
    degraded campaign — shards abandoned after exhausting their retry
    budget — the missing classes are absent from ``class_outcomes`` and
    listed in ``execution.missing``; the weighted counts then cover only
    the completed part of the fault space.
    """

    golden: GoldenRun
    partition: object
    class_outcomes: dict[tuple[int, int], tuple[Outcome, ...]]
    records: list[ExperimentRecord] = field(default_factory=list)
    domain: FaultDomain = MEMORY
    execution: ExecutionReport | None = field(default=None, compare=False,
                                              repr=False)

    @property
    def fault_space(self):
        """The raw fault space the scan covered."""
        return self.partition.fault_space

    @property
    def fault_space_size(self) -> int:
        """w — Δt · Δm for memory, Δt · 15 · 32 for registers."""
        return self.partition.fault_space.size

    @property
    def experiments_conducted(self) -> int:
        # Derived from the stored outcome tuples rather than hardcoding
        # the domain's bit width, so 8-bit memory classes and 32-bit
        # register classes both report correct totals.
        return sum(len(outcomes)
                   for outcomes in self.class_outcomes.values())

    def outcome_of(self, coordinate) -> Outcome:
        """The outcome of any raw coordinate, resolved via its class."""
        interval = self.partition.locate(coordinate)
        if interval.kind != LIVE:
            return Outcome.NO_EFFECT
        key = self.domain.class_key(interval)
        index = self.domain.experiment_index(interval, coordinate)
        return self.class_outcomes[key][index]

    def weighted_counts(self) -> Counter:
        """Outcome counts expanded to the raw fault space (Pitfall 1 safe).

        Each live experiment result is weighted by its class's data
        lifetime; dead classes contribute their full weight as
        "No Effect".  Counts sum to the fault-space size ``w`` for a
        complete campaign; a degraded campaign (``execution.missing``
        non-empty) covers correspondingly less.
        """
        counts: Counter = Counter()
        for interval in self.partition.live_classes():
            key = self.domain.class_key(interval)
            if key not in self.class_outcomes:
                continue  # degraded: shard abandoned, class missing
            weights = self.domain.experiment_slot_weights(interval)
            for outcome, weight in zip(self.class_outcomes[key], weights):
                counts[outcome] += interval.length * weight
        counts[Outcome.NO_EFFECT] += self.partition.known_no_effect_weight
        return counts

    def raw_counts(self) -> Counter:
        """Unweighted per-experiment counts — the Pitfall 1 numbers.

        Exposed so the pitfall can be demonstrated and measured; do not
        use these for coverage or comparison.
        """
        counts: Counter = Counter()
        for outcomes in self.class_outcomes.values():
            counts.update(outcomes)
        return counts

    def weighted_failure_count(self) -> int:
        """Absolute failure count F, weighted to the raw fault space."""
        return sum(count for outcome, count in self.weighted_counts()
                   .items() if outcome.is_failure)

    def weighted_coverage(self) -> float:
        """Fault coverage c = 1 - F/w (per-program figure; see metrics)."""
        return 1.0 - self.weighted_failure_count() / self.fault_space_size

    def weighted_counts_by_section(self, section_map) -> dict:
        """Per-section Pitfall-1-weighted counts (see sections.py).

        Splits every live class's weight across the sections its
        interval overlaps and attributes each section's residual weight
        as NO_EFFECT; :func:`~repro.faultspace.sections
        .aggregate_section_counts` folds the result back into exactly
        :meth:`weighted_counts`.  Only defined for complete campaigns —
        a degraded campaign's missing classes would silently surface as
        NO_EFFECT residual, so they raise instead.
        """
        from ..faultspace.sections import section_weighted_counts

        live = self.partition.live_classes()
        missing = [iv for iv in live
                   if self.domain.class_key(iv) not in self.class_outcomes]
        if missing:
            raise ValueError(
                f"cannot split weighted counts by section: {len(missing)} "
                f"live classes missing from a degraded campaign")
        return section_weighted_counts(
            section_map, live, self.class_outcomes,
            domain=self.domain, space=self.partition.fault_space)

    def class_records(self) -> list[tuple[object, tuple[Outcome, ...]]]:
        """Live classes paired with their per-bit outcomes."""
        out = []
        for interval in self.partition.live_classes():
            key = self.domain.class_key(interval)
            if key in self.class_outcomes:
                out.append((interval, self.class_outcomes[key]))
        return out


def _parallel_campaign(golden: GoldenRun, jobs: int,
                       executor: ExperimentExecutor | None,
                       domain: FaultDomain, policy,
                       config: ExecutorConfig | None = None):
    """Build the parallel driver for a runner-level ``jobs`` request."""
    from .parallel import ParallelCampaign

    if executor is not None:
        raise ValueError(
            "an explicit executor cannot be shared across worker "
            "processes; drop the executor argument or run with jobs=None")
    return ParallelCampaign(golden, jobs, executor_config=config,
                            domain=domain, policy=policy)


def run_full_scan(golden: GoldenRun, *,
                  partition=None,
                  executor: ExperimentExecutor | None = None,
                  config: ExecutorConfig | None = None,
                  keep_records: bool = False,
                  progress: ProgressCallback | None = None,
                  jobs: int | None = None,
                  domain: FaultDomain | str = MEMORY,
                  journal=None,
                  resume: bool = True,
                  policy=None) -> CampaignResult:
    """Def/use-pruned full fault-space scan (exact, no sampling error).

    ``jobs`` selects the execution engine: ``None`` (default) runs
    serially in-process, ``0`` uses one worker process per CPU, any
    positive count that many workers.  ``domain`` selects the fault
    model (``"memory"`` or ``"register"``).  Results are identical for
    every engine choice.

    ``config`` is an :class:`~.experiment.ExecutorConfig` applied on
    both the serial and the parallel path (e.g. to disable the
    convergence early-exit); ``executor`` injects a prebuilt executor
    on the serial path only and excludes ``config``.

    ``journal`` enables durable per-class result journaling and resume
    (see the module docstring); ``policy`` is a
    :class:`~repro.campaign.parallel.RetryPolicy` for the parallel
    engine's timeout/retry behaviour (ignored when serial).
    """
    domain = get_domain(domain)
    if jobs is not None:
        return _parallel_campaign(golden, jobs, executor, domain,
                                  policy, config).run_full_scan(
            partition=partition, keep_records=keep_records,
            progress=progress, journal=journal, resume=resume)
    if partition is None:
        partition = domain.build_partition(golden)
    executor = _build_executor(golden, executor, config, domain,
                               partition=partition)
    hits_base = executor.convergence_hits
    slice_base = executor.slice_hits
    tail_base = executor.scalar_tail_experiments
    handle = open_campaign(journal, golden, domain, "full-scan",
                           _executor_params(executor))
    # The handle commits (and closes a journal it owns) on every way
    # out, so an exception or ^C keeps every class journaled so far.
    with handle or nullcontext():
        completed = {}
        if handle is not None:
            if not resume:
                handle.clear()
            completed = handle.completed_classes()
        live = partition.live_classes()  # sorted by injection slot
        report = ExecutionReport(total_units=len(live))
        # Compose classes another campaign already executed for an identical
        # program section: injecting them into ``completed`` up front routes
        # them through the exact resume machinery below.
        composer = build_composer(handle, golden, domain,
                                  _executor_params(executor))
        compose_into_completed(composer, live, completed, handle, report)
        class_outcomes: dict[tuple[int, int], tuple[Outcome, ...]] = {}
        records: list[ExperimentRecord] = []
        done = 0
        index = 0
        while index < len(live):
            interval = live[index]
            key = domain.class_key(interval)
            if key in completed:
                rows = completed[key]
                class_outcomes[key] = tuple(outcome for _, outcome, _, _
                                            in rows)
                if keep_records:
                    coords = interval.experiments()
                    records.extend(
                        ExperimentRecord(coordinate=coords[bit],
                                         outcome=outcome, end_cycle=end_cycle,
                                         trap=trap)
                        for bit, outcome, end_cycle, trap in rows)
                report.resumed += 1
                index += 1
                done += 1
                if progress is not None:
                    progress(done, len(live))
                continue
            # Gather the run of fresh classes sharing this injection slot
            # and submit their experiments together: live classes are
            # slot-sorted, and a batch executor turns one same-slot group
            # into lockstep lanes (a scalar executor just iterates).
            group = [interval]
            while index + len(group) < len(live):
                nxt = live[index + len(group)]
                if (nxt.injection_slot != interval.injection_slot
                        or domain.class_key(nxt) in completed):
                    break
                group.append(nxt)
            results = executor.run_many(
                [coord for member in group for coord in member.experiments()])
            consumed = 0
            for member in group:
                member_key = domain.class_key(member)
                width = len(member.experiments())
                member_records = results[consumed:consumed + width]
                consumed += width
                class_outcomes[member_key] = tuple(
                    record.outcome for record in member_records)
                if keep_records:
                    records.extend(member_records)
                if handle is not None:
                    handle.record_class(
                        member_key[0], member_key[1],
                        [(bit, record.outcome.value, record.end_cycle,
                          record.trap)
                         for bit, record in enumerate(member_records)])
                    composer.store_class(member, [
                        (bit, record.outcome, record.end_cycle, record.trap)
                        for bit, record in enumerate(member_records)])
                report.executed += 1
                done += 1
                if progress is not None:
                    progress(done, len(live))
            index += len(group)
        report.convergence_hits = executor.convergence_hits - hits_base
        report.slice_hits = executor.slice_hits - slice_base
        report.scalar_tail_experiments = (executor.scalar_tail_experiments
                                          - tail_base)
        if handle is not None:
            handle.mark_complete()
    return CampaignResult(golden=golden, partition=partition,
                          class_outcomes=class_outcomes, records=records,
                          domain=domain, execution=report)


@dataclass
class BruteForceResult:
    """Ground-truth scan: one real experiment per raw coordinate."""

    golden: GoldenRun
    outcomes: dict
    domain: FaultDomain = MEMORY
    execution: ExecutionReport | None = field(default=None, compare=False,
                                              repr=False)

    def counts(self) -> Counter:
        return Counter(self.outcomes.values())

    @property
    def fault_space_size(self) -> int:
        return self.domain.fault_space(self.golden).size


def run_brute_force(golden: GoldenRun, *,
                    executor: ExperimentExecutor | None = None,
                    config: ExecutorConfig | None = None,
                    progress: ProgressCallback | None = None,
                    jobs: int | None = None,
                    domain: FaultDomain | str = MEMORY,
                    journal=None,
                    resume: bool = True,
                    policy=None) -> BruteForceResult:
    """Run one experiment for *every* fault-space coordinate.

    Only feasible for tiny programs; used by tests and examples to prove
    that def/use pruning plus weighting reproduces these numbers exactly.
    ``jobs``, ``domain``, ``config``, ``journal`` and ``resume`` behave
    as in :func:`run_full_scan`; ``progress`` is called per completed
    injection slot.  The journal's atomic unit is one injection slot.
    """
    domain = get_domain(domain)
    if jobs is not None:
        return _parallel_campaign(golden, jobs, executor, domain,
                                  policy, config).run_brute_force(
            progress=progress, journal=journal, resume=resume)
    executor = _build_executor(golden, executor, config, domain)
    hits_base = executor.convergence_hits
    slice_base = executor.slice_hits
    tail_base = executor.scalar_tail_experiments
    handle = open_campaign(journal, golden, domain, "brute-force",
                           _executor_params(executor))
    with handle or nullcontext():
        completed = {}
        if handle is not None:
            if not resume:
                handle.clear()
            completed = handle.completed_slots()
        space = domain.fault_space(golden)
        report = ExecutionReport(total_units=golden.cycles)
        outcomes: dict = {}
        # Iterate slot-major so the executor's fast-forward engages.
        for slot in range(1, golden.cycles + 1):
            if slot in completed:
                for axis, bit, outcome in completed[slot]:
                    outcomes[domain.coordinate(slot, axis, bit)] = outcome
                report.resumed += 1
            else:
                coords = list(domain.slot_coordinates(space, slot))
                rows = []
                for coord, record in zip(coords, executor.run_many(coords)):
                    outcomes[coord] = record.outcome
                    rows.append((domain.coordinate_axis(coord), coord.bit,
                                 record.outcome.value))
                if handle is not None:
                    handle.record_slot(slot, rows)
                report.executed += 1
            if progress is not None:
                progress(slot, golden.cycles)
        report.convergence_hits = executor.convergence_hits - hits_base
        report.slice_hits = executor.slice_hits - slice_base
        report.scalar_tail_experiments = (executor.scalar_tail_experiments
                                          - tail_base)
        if handle is not None:
            handle.mark_complete()
    return BruteForceResult(golden=golden, outcomes=outcomes,
                            domain=domain, execution=report)


@dataclass
class SamplingResult:
    """Outcome of a sampled campaign.

    ``samples`` pairs every drawn sample with its outcome.  Samples that
    fell into the same live class share one conducted experiment;
    samples in dead classes are "No Effect" without any experiment —
    but *all* samples count in the estimate (Pitfall 2).

    ``population`` is the size of the space the samples were drawn from:
    ``w`` for raw-uniform sampling, ``w′ = live weight`` for live-only
    sampling.  Extrapolation (Pitfall 3, Corollary 2) must scale counts
    by ``population / n_samples``.
    """

    golden: GoldenRun
    partition: object
    samples: list[tuple[Sample, Outcome]]
    population: int
    experiments_conducted: int
    sampler: str
    domain: FaultDomain = MEMORY
    execution: ExecutionReport | None = field(default=None, compare=False,
                                              repr=False)

    @property
    def n_samples(self) -> int:
        return len(self.samples)

    def counts(self) -> Counter:
        return Counter(outcome for _, outcome in self.samples)

    def failure_count(self) -> int:
        return sum(1 for _, outcome in self.samples if outcome.is_failure)


#: Sampler names accepted by :func:`run_sampling`.
SAMPLERS = ("uniform", "live-only", "biased-class")


def _draw_classified(golden: GoldenRun, n_samples: int, seed: int,
                     sampler: str, partition,
                     domain: FaultDomain) -> tuple[list[Sample], int, str]:
    """Draw and classify samples; shared by the serial and parallel paths.

    Returns the drawn samples (original order), the population size the
    estimate must extrapolate against, and the sampler's post-draw RNG
    position (JSON) — the experiment journal stores the position so a
    resume can verify it re-drew exactly the journaled sequence.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    if sampler == "uniform":
        instance = UniformSampler(domain.fault_space(golden), seed=seed,
                                  domain=domain)
        drawn = instance.draw_classified(n_samples, partition)
        population = domain.fault_space(golden).size
    elif sampler == "live-only":
        instance = LiveOnlySampler(partition, seed=seed, domain=domain)
        drawn = instance.draw_classified(n_samples)
        population = instance.population
    elif sampler == "biased-class":
        instance = BiasedClassSampler(partition, seed=seed, domain=domain)
        drawn = instance.draw_classified(n_samples)
        # The biased sampler has no meaningful population; report w so the
        # demonstration can show how wrong its extrapolation is.
        population = domain.fault_space(golden).size
    else:
        raise ValueError(f"unknown sampler {sampler!r}; pick from {SAMPLERS}")
    return drawn, population, instance.rng_state()


def run_sampling(golden: GoldenRun, n_samples: int, *, seed: int = 0,
                 sampler: str = "uniform",
                 partition=None,
                 executor: ExperimentExecutor | None = None,
                 config: ExecutorConfig | None = None,
                 progress: ProgressCallback | None = None,
                 jobs: int | None = None,
                 domain: FaultDomain | str = MEMORY,
                 journal=None,
                 resume: bool = True,
                 policy=None) -> SamplingResult:
    """Run a sampled campaign with def/use-pruned experiment sharing.

    ``progress`` is called as each distinct (class, bit) experiment key
    the drawn samples require is resolved — executed fresh or loaded
    from the journal — with ``(done, total)`` over those keys.  ``jobs``,
    ``domain``, ``config``, ``journal`` and ``resume`` behave as in
    :func:`run_full_scan`.  The journal additionally records the
    sampler's RNG position: resuming with a different seed, sampler or
    sample count raises
    :class:`~repro.campaign.journal.JournalMismatchError`.
    """
    domain = get_domain(domain)
    if jobs is not None:
        return _parallel_campaign(golden, jobs, executor, domain,
                                  policy, config).run_sampling(
            n_samples, seed=seed, sampler=sampler, partition=partition,
            progress=progress, journal=journal, resume=resume)
    if partition is None:
        partition = domain.build_partition(golden)
    executor = _build_executor(golden, executor, config, domain,
                               partition=partition)
    hits_base = executor.convergence_hits
    slice_base = executor.slice_hits
    tail_base = executor.scalar_tail_experiments

    handle = open_campaign(
        journal, golden, domain, "sampling",
        dict(_executor_params(executor), seed=seed, sampler=sampler,
             n_samples=n_samples))
    with handle or nullcontext():
        if handle is not None and not resume:
            handle.clear()

        drawn, population, rng_state = _draw_classified(
            golden, n_samples, seed, sampler, partition, domain)
        journaled: dict[tuple[int, int, int], Outcome] = {}
        if handle is not None:
            handle.verify_sampler_state(len(drawn), rng_state)
            journaled = handle.completed_experiments()
        # Section fingerprints use the executor parameters alone (no seed or
        # sample count), so sampled and full-scan campaigns share the store.
        composer = build_composer(handle, golden, domain,
                                  _executor_params(executor))

        # One experiment per distinct (class, bit); dead classes need none.
        total_experiments = 0
        if progress is not None:
            total_experiments = len({
                domain.class_key(interval)
                + (domain.experiment_index(interval, sample.coordinate),)
                for sample, interval in (
                    (s, partition.locate(s.coordinate)) for s in drawn
                    if s.class_kind == LIVE)})
        cache: dict[tuple[int, int, int], Outcome] = {}
        report = ExecutionReport()
        results: list[tuple[Sample, Outcome]] = []
        # Execute in ascending slot order for snapshot reuse, then restore the
        # original sample order (it is irrelevant for counting, but callers
        # may inspect per-sample sequences).
        order = sorted(range(len(drawn)),
                       key=lambda i: drawn[i].coordinate.slot)
        outcome_by_index: dict[int, Outcome] = {}
        for i in order:
            sample = drawn[i]
            if sample.class_kind != LIVE:
                outcome_by_index[i] = Outcome.NO_EFFECT
                continue
            interval = partition.locate(sample.coordinate)
            key = (domain.class_key(interval)
                   + (domain.experiment_index(interval, sample.coordinate),))
            if key not in cache:
                if key in journaled:
                    cache[key] = journaled[key]
                    report.resumed += 1
                else:
                    composed = (composer.compose_experiment(
                        interval.injection_slot, key[0], key[2])
                        if composer is not None else None)
                    if composed is not None:
                        cache[key] = composed[0]
                        handle.record_experiments(
                            [(key[0], key[1], key[2], composed[0].value)])
                        report.resumed += 1
                        report.composed_hits += 1
                    else:
                        representative = domain.experiment_coordinate(
                            interval, key[2])
                        record = executor.run(representative)
                        cache[key] = record.outcome
                        if handle is not None:
                            handle.record_experiments(
                                [(key[0], key[1], key[2], cache[key].value)])
                            composer.store_experiment(
                                interval.injection_slot, key[0], key[2],
                                record.outcome, record.end_cycle, record.trap)
                        report.executed += 1
                if progress is not None:
                    progress(len(cache), total_experiments)
            outcome_by_index[i] = cache[key]
        report.total_units = len(cache)
        report.convergence_hits = executor.convergence_hits - hits_base
        report.slice_hits = executor.slice_hits - slice_base
        report.scalar_tail_experiments = (executor.scalar_tail_experiments
                                          - tail_base)
        if handle is not None:
            handle.mark_complete()
    results = [(drawn[i], outcome_by_index[i]) for i in range(len(drawn))]
    return SamplingResult(golden=golden, partition=partition,
                          samples=results, population=population,
                          experiments_conducted=len(cache), sampler=sampler,
                          domain=domain, execution=report)
