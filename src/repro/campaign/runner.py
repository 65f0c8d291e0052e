"""Campaign runners: full fault-space scans and sampling campaigns.

Two campaign styles and one oracle are provided, each generic over a
:class:`~repro.faultspace.domain.FaultDomain` (memory by default,
``domain="register"`` for the Section VI-B register fault model):

* :func:`run_full_scan` — the def/use-pruned full fault-space scan: one
  experiment per live equivalence class and bit, dead classes accounted
  as known "No Effect".  Exact and feasible (Section III-C).
* :func:`run_sampling` — a sampled campaign with a pluggable sampler
  (raw-uniform, live-only, or the deliberately biased class sampler for
  Pitfall 2 demonstrations).
* :func:`run_brute_force` — one real experiment per raw fault-space
  coordinate.  Exponentially more work; the ground truth tests use to
  prove that pruning does not change any result.  It is a plain loop
  over injection slots in this process, not a campaign: no journal,
  section store or fabric.

This module holds each style's result type and what is particular to
it (:class:`ScanStyle`, :class:`SamplingStyle`),
including the run a unit's result takes from the executor onward — in
the journal and on the fabric's wire alike; everything they share —
journal and resume, shard planning, the sink, assembly — is
:mod:`repro.campaign.pipeline`.  The entry points pick a
transport from ``jobs=`` and hand both to
:func:`~repro.campaign.pipeline.run_campaign`; results are bit-for-bit
identical for every transport.

With ``journal=`` (an :class:`~repro.campaign.journal.ExperimentJournal`
or a path) completed work units are appended durably as the campaign
runs, and a rerun of the same campaign against the same journal
*resumes*, skipping every journaled unit, to a result bit-for-bit
identical to an uninterrupted one — iteration order, record lists and
sample sequences included.  ``resume=False`` clears the journaled
campaign first.  ``result.execution`` reports how the campaign actually
ran (units executed vs. resumed, shard retries, completeness).
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from operator import attrgetter

from ..faultspace.defuse import LIVE
from ..faultspace.domain import FaultDomain, MEMORY, get_domain
from ..faultspace.sampling import (
    BiasedClassSampler,
    LiveOnlySampler,
    Sample,
    UniformSampler,
)
from .experiment import ExecutorConfig, ExperimentExecutor, ExperimentRecord
from .golden import GoldenRun
from .journal import _valid_run
from .outcomes import OUTCOME_BY_VALUE, Outcome
from .pipeline import (
    DEFAULT_MAX_RETRIES,
    CampaignStyle,
    ExecutionReport,
    ProgressCallback,
    campaign_config,
    in_process,
    plan_class_shards,
    run_campaign,
)


#: The outcomes by position: :func:`tally_classes` counts into lists.
_OUTCOMES = tuple(Outcome)
#: The benign outcomes, which :func:`tally_classes` counts out.
_NO_EFFECT, _CORRECTED = Outcome.NO_EFFECT, Outcome.DETECTED_CORRECTED


@dataclass(frozen=True)
class ClassTally:
    """What one walk over a scan's live classes counts
    (:func:`tally_classes`)."""

    #: ``(outcome, weighted, raw)`` for every outcome some experiment
    #: had, in the order a walk of the classes bit by bit first meets
    #: them (:meth:`CampaignResult.tally`).
    counts: list
    #: ``(members, failing, width)`` per distinct outcome tuple, first
    #: seen first: the classes holding it, its failing experiments and
    #: its experiments.
    groups: list
    #: ``axis → weighted failure count`` of the axes with a failing
    #: experiment, in the order the walk first meets one
    #: (:func:`~repro.analysis.report.failure_attribution`).
    failing: dict


def tally_classes(pairs, domain: FaultDomain) -> ClassTally:
    """The one walk that counts a scan: ``pairs`` are its live classes
    with their per-bit outcomes, ``(interval, outcomes)`` in canonical
    order (the assembly's walk, :meth:`ScanStyle.result`, or
    :meth:`CampaignResult.class_records`).

    Classes are grouped by their outcome tuple — by identity: a scan's
    classes with equal outcomes share one tuple (:meth:`ScanStyle.keep`),
    and equal tuples that are distinct objects only make more groups —
    and each group is counted once, with ``tuple.count`` per outcome
    it holds (identity comparisons in C, never the enum's Python-level
    ``__hash__``).  A class adds its members and its data lifetime
    times its experiments' common slot weight to its group; a class
    whose experiments weigh unequally (no built-in domain's do) is
    weighed experiment by experiment.  Weights are asked once if the
    domain's classes share them (``FaultDomain.class_slot_weights``),
    else per class.  ``weighted`` expands each experiment by its
    class's data lifetime (without the dead classes), ``raw`` counts
    experiments.
    """
    shared = domain.class_slot_weights()
    even = bool(shared) and shared.count(shared[0]) == len(shared)
    slot_weights = domain.experiment_slot_weights
    axis_of = domain.axis_of
    #: id(outcomes) → [outcomes, members, weight, failing, shared fits]
    groups: dict[int, list] = {}
    failing: dict[int, int] = {}
    uneven = []  # (interval, outcomes, weights) weighed bit by bit
    for interval, outcomes in pairs:
        group = groups.get(id(outcomes))
        if group is None:
            group = groups[id(outcomes)] = [
                outcomes, 0, 0, len(outcomes) - outcomes.count(_NO_EFFECT)
                - outcomes.count(_CORRECTED),
                even and len(outcomes) == len(shared)]
        group[1] += 1
        weights = shared or slot_weights(interval)
        if group[4] or len(weights) == len(outcomes) \
                == weights.count(weights[0]):
            weight = interval.length * weights[0]
            group[2] += weight
            lost = weight * group[3]  # the class's weighted failures
        else:
            uneven.append((interval, outcomes, weights))
            lost = interval.length * sum([
                weight for kind, weight in zip(outcomes, weights)
                if kind is not _NO_EFFECT and kind is not _CORRECTED])
        if lost:
            axis = axis_of(interval)
            failing[axis] = failing.get(axis, 0) + lost
    weighted = [0] * len(_OUTCOMES)
    raw = [0] * len(_OUTCOMES)
    order: list[int] = []  # positions, first seen first
    for outcomes, members, weight, *_ in groups.values():
        seen = len(order)
        left = len(outcomes)
        for position, outcome in enumerate(_OUTCOMES):
            count = outcomes.count(outcome)
            if not count:
                continue
            if not raw[position]:
                order.append(position)
            raw[position] += members * count
            weighted[position] += weight * count
            left -= count
            if not left:
                break
        if len(order) - seen > 1:
            # Several outcomes first met in one group: in bit order.
            order[seen:] = sorted(
                order[seen:],
                key=lambda position: outcomes.index(_OUTCOMES[position]))
    for interval, outcomes, weights in uneven:
        for position in order:
            outcome = _OUTCOMES[position]
            weighted[position] += interval.length * sum([
                weight for kind, weight in zip(outcomes, weights)
                if kind is outcome])
    return ClassTally(
        counts=[(_OUTCOMES[position], weighted[position], raw[position])
                for position in order],
        groups=[(members, fails, len(outcomes))
                for outcomes, members, _, fails, _ in groups.values()],
        failing=failing)


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
    #: :meth:`class_tally`'s walk: the assembly's (:meth:`ScanStyle.
    #: result`), else made on first use.  Like ``execution``, outside
    #: equality; not an argument, so ``dataclasses.replace`` drops it.
    _tally: ClassTally | None = field(default=None, init=False,
                                      compare=False, repr=False)

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
        # Off the outcome tuples: 8 a memory class, 32 a register class.
        return sum(map(len, self.class_outcomes.values()))

    def outcome_of(self, coordinate) -> Outcome:
        """The outcome of any raw coordinate, resolved via its class."""
        interval = self.partition.locate(coordinate)
        if interval.kind != LIVE:
            return Outcome.NO_EFFECT
        key = self.domain.class_key(interval)
        index = self.domain.experiment_index(interval, coordinate)
        return self.class_outcomes[key][index]

    def class_tally(self) -> ClassTally:
        """:func:`tally_classes` of the live classes, walked once: by
        the scan's assembly, or here over :meth:`class_records` on the
        first call of a result built by hand."""
        if self._tally is None:
            self._tally = tally_classes(self.class_records(), self.domain)
        return self._tally

    def tally(self) -> list[tuple[Outcome, int, int]]:
        """``(outcome, weighted, raw)`` for every outcome some experiment
        had, in the order a walk of the classes bit by bit first meets
        them (a ``Counter``'s); see :func:`tally_classes`."""
        return list(self.class_tally().counts)

    def weighted_counts(self) -> Counter:
        """Outcome counts expanded to the raw fault space (Pitfall 1 safe).

        Each live experiment result is weighted by its class's data
        lifetime; dead classes contribute their full weight as
        "No Effect".  Counts sum to the fault-space size ``w`` for a
        complete campaign; a degraded campaign (``execution.missing``
        non-empty) covers correspondingly less.
        """
        counts = Counter({outcome: weighted
                          for outcome, weighted, _ in self.tally()
                          if weighted})
        counts[Outcome.NO_EFFECT] += self.partition.known_no_effect_weight
        return counts

    def raw_counts(self) -> Counter:
        """Unweighted per-experiment counts — the Pitfall 1 numbers.

        Exposed so the pitfall can be demonstrated and measured; do not
        use these for coverage or comparison.
        """
        return Counter({outcome: raw for outcome, _, raw in self.tally()})

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
        if len(self.class_outcomes) < len(live):
            raise ValueError(
                f"cannot split weighted counts by section: "
                f"{len(live) - len(self.class_outcomes)} live classes "
                f"missing from a degraded campaign")
        return section_weighted_counts(
            section_map, live, self.class_outcomes,
            domain=self.domain, space=self.partition.fault_space)

    def class_records(self) -> list[tuple[object, tuple[Outcome, ...]]]:
        """Live classes paired with their per-bit outcomes."""
        get, class_key = self.class_outcomes.get, self.domain.class_key
        return [(interval, outcomes)
                for interval in self.partition.live_classes()
                if (outcomes := get(class_key(interval))) is not None]


_VALUE = attrgetter("_value_")  # Outcome.value without the property


def _joined(facts) -> tuple[str, str, str]:
    """Executor facts ``(outcome, end_cycle, trap)`` as the run the
    journal stores and the fabric carries: ``(outcomes, end_cycles,
    traps)``, each column's values joined by single spaces."""
    outcomes, end_cycles, traps = zip(*facts)
    return (" ".join(map(_VALUE, outcomes)), " ".join(map(str, end_cycles)),
            " ".join(traps))


#: A stored class run :meth:`ScanStyle.match` distrusts: discarded, or left.
_BAD, _SHORT = "bad", "short"


class ScanStyle(CampaignStyle):
    """Def/use-pruned full scan: one unit per live class, keyed
    ``(axis, first_slot)``, its run ``(outcomes, end_cycles, traps)``
    from bit 0; what it keeps of a run is the class's outcome tuple."""

    kind = "full-scan"

    def __init__(self, golden: GoldenRun, domain: FaultDomain,
                 partition=None, keep_records: bool = False, **identity):
        super().__init__(golden, domain, **identity)
        self.partition = (partition if partition is not None
                          else domain.build_partition(golden))
        self.keep_records = keep_records
        #: ``outcomes → tuple of Outcome`` per distinct outcome string
        #: this campaign trusted (:meth:`keep`).
        self._decoded: dict[str, tuple[Outcome, ...]] = {}
        #: ``key → run`` of the classes kept, when records are.
        self._runs: dict[tuple, tuple[str, str, str]] = {}

    @cached_property
    def units(self) -> dict:
        """``key → live class`` in canonical order, set by :meth:`match`."""
        self.match(())
        return self.units

    def match(self, rows):
        # The one walk before the transport: each live class becomes a
        # unit and meets the run stored from bit 0 at its injection slot
        # (one at most: a campaign's sections' slot windows are
        # disjoint; rows elsewhere are left alone).  A verdict is made
        # once per distinct (run, experiment count) pair.
        domain = self.domain
        class_key, count = domain.class_key, domain.experiment_count
        shared = domain.class_slot_weights()
        width = shared and len(shared)
        runs = self._runs if self.keep_records else None
        at = {row[1:4]: row for row in rows}
        units, kept, todo, bad = {}, {}, [], []
        verdicts: dict[tuple, object] = {}
        experiments = 0
        for interval in self.partition.live_classes():
            key = class_key(interval)
            units[key] = interval
            row = at.get((interval.injection_slot, key[0], 0))
            if row is None:
                todo.append(interval)
                continue
            need = width or count(interval)
            run = row[4:]
            verdict = verdicts.get((run, need))
            if verdict is None:
                verdict = verdicts[run, need] = self._verdict(run, need)
            if verdict is _BAD:  # malformed, or longer than the class
                bad.append(row[:4])
                todo.append(interval)
            elif verdict is _SHORT:  # re-executed, and replaced
                todo.append(interval)
            else:
                kept[key] = verdict
                experiments += need
                if runs is not None:
                    runs[key] = run
        self.units = units
        return kept, todo, bad, experiments

    def _verdict(self, run, need: int):
        """A stored ``run`` at a class of ``need`` experiments: its
        outcomes if :func:`~.journal._valid_run` passes it, :data:`_BAD`
        if malformed or longer than the class, else :data:`_SHORT`."""
        if _valid_run(run, need, self._decoded):
            return self._decoded.get(run[0]) or self._decode(run[0])
        if (not _valid_run(run, run[0].count(" ") + 1, self._decoded)
                or run[0].count(" ") >= need):
            return _BAD
        return _SHORT

    def _decode(self, outcomes: str) -> tuple[Outcome, ...]:
        """A valid outcome string met for the first time, decoded: once
        per campaign, and its classes share the tuple."""
        decoded = self._decoded[outcomes] = tuple(
            map(OUTCOME_BY_VALUE.__getitem__, outcomes.split(" ")))
        return decoded

    def plan(self, items, parts, workers):
        return plan_class_shards(items, self.golden.cycles,
                                 domain=self.domain, parts=parts,
                                 workers=workers)

    @staticmethod
    def execute(executor, intervals):
        # Live classes are slot-sorted, so the classes sharing an
        # injection slot are adjacent and go to the executor in one
        # call; each class's slice of the facts is its run.
        class_key = executor.domain.class_key
        for _, group in groupby(intervals, key=attrgetter("injection_slot")):
            members = [(class_key(member), member.experiments())
                       for member in group]
            facts = executor.run_many(
                [coord for _, coords in members for coord in coords])
            start = 0
            for key, coords in members:
                end = start + len(coords)
                yield key, _joined(facts[start:end])
                start = end

    def journal(self, composer, batch):
        units = self.units
        composer.store_runs([(units[key].injection_slot, key[0], 0, run)
                             for key, run in batch])

    def valid_run(self, key, run):
        # Every string keep() decoded passed this check: it is known.
        return _valid_run(run, self.domain.experiment_count(self.units[key]),
                          self._decoded)

    def keep(self, key, run):
        """The class's outcomes; its run too when records are kept."""
        if self.keep_records:
            self._runs[key] = run
        return self._decoded.get(run[0]) or self._decode(run[0])

    def result(self, kept, report):
        # The one walk after the transport, the tally's, also orders the
        # units kept and lists the rest missing — unless all are trusted.
        units = self.units
        missing: list = []
        if report.executed or len(kept) < len(units):
            class_outcomes: dict = {}
            pairs = _present(units, kept, class_outcomes, missing)
        else:
            class_outcomes = kept
            pairs = zip(units.values(), kept.values())
        tally = tally_classes(pairs, self.domain)
        report.missing = tuple(missing)
        # End cycles and traps are decoded only for records.
        records = [] if not self.keep_records else [
            ExperimentRecord(coordinate=coordinate, outcome=outcome,
                             end_cycle=int(end_cycle), trap=trap)
            for key, outcomes in class_outcomes.items()
            for coordinate, outcome, end_cycle, trap in zip(
                units[key].experiments(), outcomes,
                *(column.split(" ") for column in self._runs[key][1:]))]
        result = CampaignResult(golden=self.golden, partition=self.partition,
                                class_outcomes=class_outcomes,
                                records=records, domain=self.domain,
                                execution=report)
        result._tally = tally
        return result


def _present(units, kept, class_outcomes, missing):
    """``(interval, outcomes)`` of the ``units`` kept, in order, entered
    in ``class_outcomes``; the keys of the others go to ``missing``."""
    for key, interval in units.items():
        outcomes = kept.get(key)
        if outcomes is None:
            missing.append(key)
        else:
            class_outcomes[key] = outcomes
            yield interval, outcomes


def resolve_jobs(jobs: int | None) -> int | None:
    """``None`` (the serial path) unchanged, ``0`` as one worker per CPU
    this process may use (its affinity set: ``taskset``, a container's
    cpuset), any positive count literally."""
    if jobs is None:
        return None
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs:
        return jobs
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _transport(jobs: int | None, executor: ExperimentExecutor | None,
               max_retries: int):
    """The transport a runner's ``jobs`` asks for: in-process for
    ``None`` or one job, else that many forked fabric workers.  Called
    before the style is built, so a refused executor costs no draw."""
    if jobs is not None and executor is not None:
        raise ValueError(
            "an explicit executor cannot be shared across worker "
            "processes; drop the executor argument or run with jobs=None")
    workers = resolve_jobs(jobs)
    if workers is None or workers == 1:
        return in_process
    from .dist.coordinator import LocalFabric  # it imports this module
    return LocalFabric(workers, max_retries=max_retries)


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
                  max_retries: int = DEFAULT_MAX_RETRIES) -> CampaignResult:
    """Def/use-pruned full fault-space scan (exact, no sampling error).

    ``jobs`` selects the transport: ``None`` (default) and ``1`` run
    in-process, ``0`` uses one forked fabric worker per usable CPU, any
    larger count that many workers.  ``domain`` selects the fault model
    (``"memory"`` or ``"register"``).  Results are identical for every
    choice.

    ``config`` is an :class:`~.experiment.ExecutorConfig` applied under
    every transport (e.g. to disable the convergence early-exit);
    ``executor`` injects a prebuilt executor of ``domain``, needs
    ``jobs=None`` and excludes ``config``.

    ``progress`` is called with ``(done, total)`` live classes: once
    after the journal is loaded when it already held some, then as
    results reach the sink (per class in-process, per send window from
    fabric workers).  ``journal`` enables durable per-class result
    journaling and resume (see the module docstring); ``max_retries``
    is each fabric shard's budget of re-grants after its worker died
    (ignored in-process).
    """
    transport = _transport(jobs, executor, max_retries)
    return run_campaign(
        ScanStyle(golden, get_domain(domain), partition, keep_records,
                  config=config, executor=executor),
        transport, journal, resume, progress)


@dataclass
class BruteForceResult:
    """Ground-truth scan: one real experiment per raw coordinate."""

    golden: GoldenRun
    outcomes: dict
    domain: FaultDomain = MEMORY

    def counts(self) -> Counter:
        return Counter(self.outcomes.values())

    @property
    def fault_space_size(self) -> int:
        return self.domain.fault_space(self.golden).size


def run_brute_force(golden: GoldenRun, *,
                    executor: ExperimentExecutor | None = None,
                    config: ExecutorConfig | None = None,
                    domain: FaultDomain | str = MEMORY) -> BruteForceResult:
    """Run one experiment for *every* fault-space coordinate.

    Only feasible for tiny programs; it is the test oracle proving that
    def/use pruning plus weighting reproduces these numbers exactly, so
    it is a plain loop in this process, outside the campaign pipeline:
    no journal, section store or fabric stands between it and the
    executor.  ``executor`` and ``config`` behave as in
    :func:`run_full_scan`.
    """
    domain = get_domain(domain)
    config = campaign_config(domain, config, executor)
    executor = executor or config.build(golden)
    space = domain.fault_space(golden)
    outcomes: dict = {}
    # Slot-ascending, one call a slot, so the executor's fast-forward
    # engages and never rewinds.
    for slot in range(1, golden.cycles + 1):
        coordinates = list(domain.slot_coordinates(space, slot))
        for coordinate, (outcome, _, _) in zip(
                coordinates, executor.run_many(coordinates)):
            outcomes[coordinate] = outcome
    return BruteForceResult(golden=golden, outcomes=outcomes, domain=domain)


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
    """Draw and classify samples for :class:`SamplingStyle`.

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


class SamplingStyle(CampaignStyle):
    """Sampled campaign: one unit per distinct ``(class, bit)``
    representative experiment the drawn samples need, keyed
    ``(axis, first_slot, bit)``, its run ``(outcome, end_cycle, trap)``
    one experiment long.

    Samples are drawn (deterministically, from the seed) up front; the
    units' outcomes are then replayed over the drawn sequence.  On
    resume the journal's RNG-position check proves the re-drawn
    sequence is the journaled one before any journaled outcome is
    reused.
    """

    kind = "sampling"

    def __init__(self, golden: GoldenRun, domain: FaultDomain,
                 n_samples: int, seed: int, sampler: str, partition=None,
                 **identity):
        # Section fingerprints use ``params`` alone (no seed or sample
        # count), so sampled and full-scan campaigns share the store.
        super().__init__(golden, domain, **identity)
        self.partition = (partition if partition is not None
                          else domain.build_partition(golden))
        self.seed = seed
        self.sampler = sampler
        self.key_params = dict(self.params, seed=seed, sampler=sampler,
                               n_samples=n_samples)
        self.drawn, self.population, self._rng_state = _draw_classified(
            golden, n_samples, seed, sampler, self.partition, domain)
        # One experiment per distinct (class, bit); samples in dead
        # classes need none (key None).
        keyed: dict[tuple[int, int, int], object] = {}
        self.sample_keys: list[tuple[int, int, int] | None] = []
        for sample in self.drawn:
            key = None
            if sample.class_kind == LIVE:
                interval = self.partition.locate(sample.coordinate)
                key = (domain.class_key(interval)
                       + (domain.experiment_index(interval,
                                                  sample.coordinate),))
                if key not in keyed:
                    keyed[key] = domain.experiment_coordinate(interval,
                                                              key[2])
            self.sample_keys.append(key)
        # Ascending slot order, for the snapshot fast-forward.
        self.units = {key: (key, coord) for key, coord in sorted(
            keyed.items(),
            key=lambda kv: (kv[1].slot, domain.coordinate_axis(kv[1]),
                            kv[1].bit))}

    def trusted(self, handle, report, rows, relinked=False):
        # Nothing stored is trusted unless the re-drawn samples are the
        # journaled ones.
        if handle is not None:
            handle.verify_sampler_state(len(self.drawn), self._rng_state)
        return super().trusted(handle, report, rows, relinked)

    def match(self, rows):
        # An experiment reads the run of one stored at its bit, else its
        # value in the run stored from bit 0 (a class, whole or not).
        at = {row[1:4]: row for row in rows}
        kept, todo, bad = {}, [], {}
        for key, item in self.units.items():
            slot, axis, value = item[1].slot, key[0], None
            row, index = at.get((slot, axis, key[2])), 0
            if row is None or " " in row[4]:
                row, index = at.get((slot, axis, 0)), key[2]
            if row is not None:
                columns = [column.split(" ") for column in row[4:]]
                if not _valid_run(row[4:], len(columns[0])):
                    bad[row[:4]] = None
                elif index < len(columns[0]):
                    value = columns[0][index]
            if value is None:
                todo.append(item)
            else:
                kept[key] = OUTCOME_BY_VALUE[value]
        return kept, todo, list(bad), len(kept)

    def cost(self, item):
        return max(1, self.golden.cycles - item[1].slot + 1)

    @staticmethod
    def execute(executor, keyed):
        for key, coord in keyed:
            # The sampling result needs the outcome only, but the
            # section store composes these runs into full-scan
            # campaigns later, which need end cycles and traps too.
            yield key, _joined(executor.run_many([coord]))

    def journal(self, composer, batch):
        units = self.units
        composer.store_runs([(units[key][1].slot, key[0], key[2], run)
                             for key, run in batch])

    def keep(self, key, run):
        return OUTCOME_BY_VALUE[run[0]]  # the outcome

    def valid_run(self, key, run):
        return _valid_run(run, 1)

    def result(self, kept, report):
        report.missing = tuple(key for key in self.units if key not in kept)
        # A sample whose experiment is missing (degraded campaign: its
        # shard was abandoned) cannot be classified and is omitted from
        # the partial result.
        samples = [(sample, Outcome.NO_EFFECT if key is None else kept[key])
                   for sample, key in zip(self.drawn, self.sample_keys)
                   if key is None or key in kept]
        return SamplingResult(
            golden=self.golden, partition=self.partition, samples=samples,
            population=self.population,
            experiments_conducted=sum(key in kept for key in self.units),
            sampler=self.sampler, domain=self.domain, execution=report)


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
                 max_retries: int = DEFAULT_MAX_RETRIES) -> SamplingResult:
    """Run a sampled campaign with def/use-pruned experiment sharing.

    ``progress`` counts the distinct (class, bit) experiment keys the
    drawn samples require — executed fresh, composed or loaded from the
    journal.  ``jobs``, ``domain``, ``config``, ``journal``, ``resume``
    and ``max_retries`` behave as in :func:`run_full_scan`.  The journal
    additionally records the sampler's RNG position: resuming with a
    different seed, sampler or sample count raises
    :class:`~repro.campaign.journal.JournalMismatchError`.
    """
    transport = _transport(jobs, executor, max_retries)
    return run_campaign(
        SamplingStyle(golden, get_domain(domain), n_samples, seed, sampler,
                      partition, config=config, executor=executor),
        transport, journal, resume, progress)
