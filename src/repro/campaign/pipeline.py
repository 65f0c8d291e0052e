"""The campaign pipeline: plan → shard → execute → merge, written once.

Every campaign — full scan or sampling; in-process or on fabric
workers — is the same five steps (DESIGN.md §3b has the long
form and the transport table):

1. **Prologue** (:class:`CampaignRun`).  Open the journal campaign,
   clear it (``resume=False``) or load what it holds, *validate* the
   loaded units (a salvaged journal can hold truncated classes: they
   are discarded, counted in ``discarded_results`` and re-executed),
   compose what the cross-campaign section store already knows, and
   list the units still to do, in canonical order.
2. **Shard** (:meth:`CampaignStyle.plan`).  Split the unit list into
   cost-balanced shards, each in canonical order: a full scan deals
   whole fault-space cells (:func:`plan_class_shards`), sampling cuts
   contiguous runs.  The per-unit cost list is computed once; shard
   costs and the fabric's lease cost table (its deadlines) derive
   from it.
3. **Execute** (:meth:`CampaignStyle.execute`).  A worker-side
   generator turns work items into ``(key, run)`` pairs, each run the
   unit's result in the one form every later step handles — the
   journal's and the wire's; it is the only code that calls an
   executor.
4. **Merge** (:meth:`CampaignRun.accept`).  The one sink: journals and
   stores each batch (``style.journal``), then :meth:`CampaignRun.count`
   updates the :class:`ExecutionReport` and progress.  In process every
   unit is fresh; the fabric passes only the units its lease board
   took fresh (its one duplicate filter).  A transport calls
   :meth:`CampaignRun.idle` before it waits, so nothing sits in the
   journal's commit window idle.
5. **Assembly** (:meth:`CampaignRun.assemble`).  Walk the units in
   canonical order over resumed + fresh units, so results — dictionary
   order, record lists and sample sequences included — are bit-for-bit
   identical however the runs arrived.

A :class:`CampaignStyle` states what differs between full scan and
sampling (both live in :mod:`repro.campaign.runner`, beside the
brute-force oracle, which is a plain loop and no campaign) and owns
the campaign's identity: golden run, domain, stamped executor config,
injected executor and journal key.  A *transport*, ``transport(run)``,
reads those off ``run.style`` and is only how shards reach executors
and runs come back: :func:`in_process` here (``jobs=None`` and
``jobs=1``), or the lease/frame fabric's coordinator in
:mod:`repro.campaign.dist`, over the local workers it forks for
``jobs=N`` (:class:`~repro.campaign.dist.coordinator.LocalFabric`).
"""

from __future__ import annotations

import heapq
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from itertools import groupby, islice
from math import ceil
from typing import Callable, Sequence

from ..faultspace.domain import FaultDomain
from .compose import SectionComposer
from .experiment import ExecutorConfig, ExperimentExecutor
from .golden import GoldenRun
from .journal import open_campaign

ProgressCallback = Callable[[int, int], None]


@dataclass
class ExecutionReport:
    """How a campaign actually executed: completeness and robustness.

    Attached to campaign results (``result.execution``) so callers can
    tell an exact, complete sweep from a resumed or degraded one.  The
    field is excluded from result equality — a resumed campaign with the
    *same outcomes* as an uninterrupted one compares equal even though
    it took a different path to them.
    """

    #: Work units the campaign planned (live classes or distinct sampled
    #: experiments, depending on the style).
    total_units: int = 0
    #: Units executed fresh in this invocation.
    executed: int = 0
    #: Units loaded from the journal instead of re-executed.
    resumed: int = 0
    #: Wall-clock deadline expiries of fabric leases: each is a failed
    #: attempt (retried, then ``missing``), never a result.
    timed_out_shards: int = 0
    #: Lease re-grants after a failed attempt (worker death,
    #: disconnect or deadline expiry).
    shard_retries: int = 0
    #: Shards abandoned after exhausting their retry budget.
    failed_shards: int = 0
    #: Class keys (or experiment keys) missing from the result because
    #: their shard was abandoned; empty for a complete campaign.
    missing: tuple = field(default_factory=tuple)
    #: Experiments classified early because the faulty machine's state
    #: digest re-joined the golden checkpoint ladder or matched a state
    #: an earlier experiment ran on from (the state memo).  Purely a
    #: performance diagnostic — outcomes are identical with both off.
    convergence_hits: int = 0
    #: Experiments classified without executing a single post-injection
    #: cycle because the backward slice proved the injected cell
    #: non-critical (the criticality pre-skip).  Like
    #: :attr:`convergence_hits`, a performance diagnostic only.
    slice_hits: int = 0
    #: Experiments whose outcomes were composed from the cross-campaign
    #: section store (another campaign already executed an identical
    #: program section) instead of re-executed.  Composed experiments
    #: are *also* counted in :attr:`resumed` — they enter the campaign
    #: through the same journal-merge path a resume uses.
    composed_hits: int = 0
    #: Per-worker attribution of executed work units, as sorted
    #: ``(worker_name, units)`` pairs.  Populated by a fabric
    #: coordinator serving a test's thread workers (every unit names
    #: the worker whose submission was accounted); empty in process and
    #: on a local fleet (``jobs=N``), whose forks are interchangeable,
    #: so its report matches an in-process run's.
    workers: tuple = field(default_factory=tuple)
    #: Unit results rejected before merging: a run whose shape
    #: disagrees with the domain's expected experiment weight for the
    #: unit (a payload corrupted between the worker's executor and the
    #: coordinator), or a key or shard outside the campaign.  Rejected
    #: units are simply re-executed — corruption can delay a campaign,
    #: never skew it.
    integrity_rejected: int = 0
    #: Journaled results discarded: resumed classes that failed
    #: validation (a salvaged journal's truncated classes, any
    #: transport), which are re-executed.
    discarded_results: int = 0

    @property
    def complete(self) -> bool:
        """True when every planned unit produced a result."""
        return not self.missing

    @property
    def completeness(self) -> float:
        """Fraction of planned units present in the result, in [0, 1]."""
        if self.total_units <= 0:
            return 1.0
        return 1.0 - len(self.missing) / self.total_units

    def count(self, delta: Sequence[int]) -> None:
        """Add one :meth:`ExecutorCounters.take` pair."""
        hits, skips = delta
        self.convergence_hits += hits
        self.slice_hits += skips


class ExecutorCounters:
    """Snapshot-and-diff of an executor's diagnostic counter pair.

    Executors outlive shards (a fabric worker runs many leases), so
    every transport reports the counters as deltas:
    ``take()`` returns ``(convergence_hits, slice_hits)`` accrued since
    the previous take.
    """

    def __init__(self, executor: ExperimentExecutor):
        self._executor = executor
        self._last = self._read()

    def _read(self) -> tuple[int, int]:
        executor = self._executor
        return executor.convergence_hits, executor.slice_hits

    def take(self) -> tuple[int, ...]:
        now = self._read()
        delta = tuple(new - old for new, old in zip(now, self._last))
        self._last = now
        return delta


def campaign_config(domain: FaultDomain, config: ExecutorConfig | None,
                    executor: ExperimentExecutor | None) -> ExecutorConfig:
    """``config`` (default: ``ExecutorConfig()``) stamped with
    ``domain``; refused beside an injected executor, as is an executor
    of another domain."""
    if executor is not None and config is not None:
        raise ValueError(
            "pass either executor= or config=, not both; the config "
            "exists to build an executor when none is given")
    if executor is not None and executor.domain.name != domain.name:
        raise ValueError(
            f"the executor injects {executor.domain.name!r} faults, "
            f"but the campaign's domain is {domain.name!r}; build it "
            f"with domain={domain.name!r}")
    return replace(config or ExecutorConfig(), domain=domain.name)


def campaign_params(golden: GoldenRun, config: ExecutorConfig,
                    executor: ExperimentExecutor | None = None) -> dict:
    """The executor settings that affect outcomes — part of the journal
    key, so a changed timeout policy opens a fresh campaign instead of
    mixing incompatible classifications.  Identical whether read from an
    injected executor or derived from the config fabric workers build
    theirs from, so one journal resumes under either transport.
    ``use_convergence`` and the engine are deliberately absent: they
    cannot change any outcome."""
    if executor is not None:
        return {"timeout_cycles": executor.timeout_cycles,
                "early_stop": executor.early_stop}
    return {"timeout_cycles": config.timeout_cycles(golden.cycles),
            "early_stop": config.early_stop}


# -- shard planning -----------------------------------------------------------


def class_cost(interval, total_cycles: int, bits: int = 8) -> int:
    """Estimated post-injection cycle cost of one live class.

    Each of the class's ``bits`` experiments (the domain's per-class
    width: 8 for memory bytes, 32 for registers) resumes at the
    representative injection slot and replays up to the remaining
    runtime, so the dominant term is ``bits × (Δt − slot + 1)``.  The
    interval length is added on top for the snapshot fast-forward that
    walks the pristine machine across the class's slot span.  Balancing
    shards by this estimate instead of class count keeps workers evenly
    loaded even though early-slot classes are many times more expensive
    than late-slot ones.
    """
    remaining = total_cycles - interval.injection_slot + 1
    return bits * max(1, remaining) + interval.length


def shard_by_cost(items: Sequence, costs: Sequence[int],
                  jobs: int) -> list[list]:
    """Split ``items`` into at most ``jobs`` contiguous cost-balanced runs.

    Sampling's plan, and how :func:`plan_class_shards` cuts a cell too
    dear for one worker.  The *k*-th cut is placed where the cumulative
    cost first reaches ``k/jobs`` of the total.
    """
    items = list(items)
    if not items:
        return []
    jobs = min(jobs, len(items))
    if jobs <= 1:
        return [items]
    total = sum(costs)
    if total <= 0:
        total = len(items)
        costs = [1] * len(items)
    shards: list[list] = []
    current: list = []
    acc = 0
    for item, cost in zip(items, costs):
        current.append(item)
        acc += cost
        if len(shards) < jobs - 1 and acc * jobs >= (len(shards) + 1) * total:
            shards.append(current)
            current = []
    if current:
        shards.append(current)
    return shards


#: Estimated total post-injection cycles below which a campaign counts
#: as *small*: per-lease protocol round-trips and idle re-poll waits
#: dominate the simulated work (ROADMAP's 0.18× single-worker dist
#: overhead), so the planners collapse the lease granularity to one
#: shard per expected worker instead of optimizing for
#: rebalance-after-node-loss.
SMALL_CAMPAIGN_CYCLES = 1_000_000


def plan_shards(items: Sequence, costs: Sequence[int], parts: int,
                workers: int) -> tuple[list[list], list[int], list[int]]:
    """``(shards, shard_costs, costs)``: :func:`shard_by_cost` plus each
    shard's summed cost, read off the same per-item cost list.

    ``workers`` is the fabric's expected worker count.  Fine shards
    only pay off when there is enough work to rebalance after a worker
    is lost; a campaign estimated below
    :data:`SMALL_CAMPAIGN_CYCLES` collapses to one shard per expected
    worker, which removes the extra lease round-trips and leaves no
    pending shards for idle workers to re-poll for.
    """
    if sum(costs) < SMALL_CAMPAIGN_CYCLES:
        parts = max(1, min(parts, workers))
    shards = shard_by_cost(items, costs, parts)
    remaining = iter(costs)
    return (shards, [sum(islice(remaining, len(shard))) for shard in shards],
            list(costs))


def plan_class_shards(intervals: Sequence, total_cycles: int, *,
                      domain: FaultDomain, parts: int, workers: int) \
        -> tuple[list[list], list[int], list[int]]:
    """The full scan's plan: live classes (in canonical order) dealt to
    shards by planning cell (:meth:`~repro.faultspace.domain.FaultDomain.
    plan_cell` — the aligned RAM word, the register).  Returns
    ``(shards, shard_costs, class_costs)``, every number read off one
    per-class :func:`class_cost` list, which is what the lease board's
    cost table is derived from.

    A cell stays in one shard because the state memo's early exits
    chain its classes: a faulty run usually rejoins a state that the
    same cell and bit reached one or more classes earlier (DESIGN
    §3c), and a worker's executor keeps its memo only within a lease.
    Cells go to the cheapest shard, dearest first (ties by cell); only
    a cell dearer than one worker's *share*, ``total / workers``, is
    cut, between injection slots, into the fewest pieces of about a
    share at most.  Each shard keeps canonical order, so same-slot
    classes stay one executor group.

    The fleet of ``workers`` gets at least one shard per worker, and
    exactly one for a campaign estimated below
    :data:`SMALL_CAMPAIGN_CYCLES`.  The plan is a pure function of its
    arguments.
    """
    costs = [class_cost(interval, total_cycles, bits=domain.bits)
             for interval in intervals]
    total = sum(costs)
    parts = (workers if total < SMALL_CAMPAIGN_CYCLES
             else max(parts, workers))
    share = total / workers
    cells: dict[int, list[int]] = {}  # cell -> its class indices
    for index, interval in enumerate(intervals):
        cells.setdefault(domain.plan_cell(interval), []).append(index)
    pieces = []  # (cost, cell, class indices)
    for cell, members in cells.items():
        cost = sum(costs[index] for index in members)
        if cost <= share:
            pieces.append((cost, cell, members))
            continue
        slots = [list(group) for _, group in groupby(
            members, key=lambda index: intervals[index].injection_slot)]
        for piece in shard_by_cost(
                slots, [sum(costs[index] for index in slot)
                        for slot in slots], ceil(cost / share)):
            indices = [index for slot in piece for index in slot]
            pieces.append((sum(costs[index] for index in indices), cell,
                           indices))
    pieces.sort(key=lambda piece: (-piece[0], piece[1]))
    loads = [(0, shard) for shard in range(min(parts, len(pieces)))]
    dealt: list[list[int]] = [[] for _ in loads]
    for cost, _cell, indices in pieces:
        load, shard = heapq.heappop(loads)  # cheapest; ties: lowest index
        dealt[shard].extend(indices)
        heapq.heappush(loads, (load + cost, shard))
    shards = [sorted(indices) for indices in dealt]
    return ([[intervals[index] for index in shard] for shard in shards],
            [sum(costs[index] for index in shard) for shard in shards],
            costs)


# -- what a campaign style states ---------------------------------------------


class CampaignStyle:
    """What one campaign style states once (see the module docstring).

    A *unit* is the style's atomic piece of work and of journaling (a
    live class or one distinct sampled experiment),
    identified by a *key*, a tuple of integers; its result is a *run*,
    three strings of space-joined per-experiment values, in the form
    the journal stores and the fabric carries — from the executor
    onward it has no other.  Besides the attributes and the default
    :meth:`plan` and :meth:`keep` below, a style provides:

    ``load(handle, report)``
        the resume loader: journaled units as ``key →`` :meth:`keep`
        values, validated (:meth:`trusted`);
    ``compose(composer, completed, handle, report)``
        adds store-known units to ``completed`` (as :meth:`keep`
        values) and to the journal;
    ``cost(item)``
        estimated post-injection cycles of one work item (styles that
        keep the default :meth:`plan`);
    ``execute(executor, items)``
        the worker-side generator, work items → ``(key, run)``;
    ``journal(handle, composer, batch)``
        journals a batch of ``(key, run)``, each unit atomically, and
        writes it to the section store (given a composer) — every unit
        given is fresh: the transport took it once;
    ``valid_run(key, run)``
        the shape check a run passes before it is trusted — from a
        fabric worker or from the journal;
    ``discard(handle, keys)``
        deletes journaled units that failed :meth:`trusted`;
    ``result(kept, report)``
        canonical-order assembly of ``key →`` :meth:`keep` values into
        the style's result type; keys absent from ``kept`` are missing.
    """

    #: Journal campaign kind.
    kind: str
    #: ``key → work item`` in canonical (serial iteration) order; work
    #: items are what ``execute`` consumes.
    units: dict

    def __init__(self, golden: GoldenRun, domain: FaultDomain,
                 config: ExecutorConfig | None = None,
                 executor: ExperimentExecutor | None = None):
        self.golden = golden
        self.domain = domain
        #: The executor settings with the domain stamped in: what every
        #: fabric worker builds its executor from.
        self.config = campaign_config(domain, config, executor)
        #: The injected executor (in process only), or ``None``.
        self.executor = executor
        #: :func:`campaign_params`: the section-store fingerprint input
        #: and — extended by styles with parameters of their own — the
        #: journal key.
        self.params = self.key_params = campaign_params(golden, self.config,
                                                        executor)

    def plan(self, items: Sequence, parts: int, workers: int) \
            -> tuple[list[list], list[int], list[int]]:
        """:func:`plan_shards` of ``items`` by :meth:`cost`."""
        return plan_shards(items, [self.cost(item) for item in items],
                           parts, workers)

    def keep(self, key, run):
        """What :meth:`result` needs of one unit's run.  The campaign
        holds only this once the run is journaled — a paper-scale scan
        has 10⁵ experiments whose end cycles and traps assembly never
        reads unless records were asked for."""
        return run

    def trusted(self, handle, report, stored: dict) -> dict:
        """``key →`` :meth:`keep` value of the journaled units
        ``stored`` (``key → run`` as a journal reader returns it) whose
        run passes :meth:`valid_run`.

        Never trust resumed units blindly: a salvaged journal can hold
        partial units (page loss truncates committed rows) and any file
        can hold a value no build wrote, or a key the campaign does not
        have.  Those are discarded — counted in ``discarded_results``,
        one ``salvage-prune`` event — and re-executed.
        """
        kept, bad = {}, []
        for key, run in stored.items():
            if key in self.units and self.valid_run(key, run):
                kept[key] = self.keep(key, run)
            else:
                bad.append(key)
        if bad:
            self.discard(handle, bad)
            report.discarded_results += len(bad)
            handle.record_event(
                "salvage-prune", at=time.time(),
                detail=f"{len(bad)} resumed units failed validation "
                       f"and were discarded")
        return kept


# -- the driver ---------------------------------------------------------------


class CampaignRun:
    """One campaign between prologue and assembly (module docstring).

    Constructing it *is* the prologue; a transport then shards
    :attr:`todo` and feeds :meth:`accept`; :meth:`assemble` finishes.
    ``handle`` is the open journal campaign or ``None``.
    """

    def __init__(self, style: CampaignStyle, handle, resume: bool,
                 progress: ProgressCallback | None):
        self.style = style
        self.handle = handle
        self.progress = progress
        self.report = report = ExecutionReport()
        #: Units trusted before any transport ran (resumed or composed),
        #: as ``key →`` :meth:`CampaignStyle.keep` values.
        self.completed: dict = {}
        self.composer = None
        if handle is not None:
            if not resume:
                handle.clear()
            self.completed = style.load(handle, report)
            if len(self.completed) < len(style.units):
                # Compose units another campaign already executed for
                # an identical program section: beside the loaded ones
                # they take the exact route resumed units do.  A
                # campaign the journal holds whole has nothing left to
                # compose or store, and its section links were written
                # when it ran (``clear()`` is the only way to drop
                # them, and a cleared campaign always composes).
                self.composer = SectionComposer(handle, style.golden,
                                                style.domain, style.params)
                style.compose(self.composer, self.completed, handle,
                              report)
        #: Work items still to execute, in canonical order.
        self.todo = [item for key, item in style.units.items()
                     if key not in self.completed]
        #: ``key → kept`` of the units accepted from the transport.
        self.fresh: dict = {}
        report.total_units = len(style.units)
        report.resumed = self.done = report.total_units - len(self.todo)
        if self.done:
            self.heartbeat()

    def accept(self, batch: Sequence[tuple[tuple, tuple]]) -> None:
        """The sink: journal, section store, then :meth:`count`."""
        if self.handle is not None:
            self.style.journal(self.handle, self.composer, batch)
        keep = self.style.keep
        self.count([(key, keep(key, run)) for key, run in batch])

    def count(self, kept: Sequence[tuple[object, object]]) -> None:
        """Account units journaled fresh, given as ``(key, kept)``
        pairs (:meth:`CampaignStyle.keep` values): report, progress.
        Each key once — the transport decides what is fresh (in
        process, every unit; on the fabric, the lease board)."""
        self.fresh.update(kept)
        self.report.executed += len(kept)
        self.done += len(kept)
        self.heartbeat()

    def heartbeat(self) -> None:
        """Report the current counts (again, if nothing changed — how a
        caller tells a slow campaign from a dead one)."""
        if self.progress is not None:
            self.progress(self.done, self.report.total_units)

    def idle(self) -> None:
        """The transport is about to wait: commit what was accepted."""
        if self.handle is not None:
            self.handle.flush()

    def assemble(self):
        """Merge resumed and fresh units in canonical order."""
        kept = {**self.completed, **self.fresh}
        report = self.report
        report.missing = tuple(key for key in self.style.units
                               if key not in kept)
        if self.handle is not None and report.complete:
            self.handle.mark_complete()
        return self.style.result(kept, report)


def run_campaign(style: CampaignStyle, transport: Callable[[CampaignRun],
                                                           None],
                 journal, resume: bool,
                 progress: ProgressCallback | None):
    """Open the journal campaign, prologue → ``transport(run)`` →
    assembly, for every transport.

    The handle commits (and closes a journal it owns) on every way out
    of the block, so an exception — ^C, or a transport's simulated
    crash — keeps every unit accepted so far and assembles nothing;
    ``journal=None`` keeps nothing durable.
    """
    handle = open_campaign(journal, style.golden, style.domain, style.kind,
                           style.key_params)
    with handle or nullcontext():
        run = CampaignRun(style, handle, resume, progress)
        transport(run)
        return run.assemble()


def in_process(run: CampaignRun) -> None:
    """The in-process transport: one shard, this process, streamed.

    ``jobs=None`` and ``jobs=1`` are both this: the whole to-do list is
    one shard executed by one executor — the style's injected one, or
    built from its config when there is work — and every unit reaches
    the sink as soon as the generator yields it, so an interrupt loses
    only the unit in flight.
    """
    if not run.todo:
        return
    style = run.style
    executor = style.executor or style.config.build(style.golden)
    counters = ExecutorCounters(executor)
    for unit in style.execute(executor, run.todo):
        run.accept((unit,))
    run.report.count(counters.take())
