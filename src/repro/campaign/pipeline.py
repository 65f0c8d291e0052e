"""The campaign pipeline: plan → shard → execute → merge, written once.

Every campaign — full scan or sampling; in-process or on fabric
workers — is the same five steps (DESIGN.md §3b has the long
form and the transport table):

1. **Prologue** (:class:`CampaignRun`).  Open the journal campaign
   and clear it (``resume=False``); link it to its sections in the
   cross-campaign section store when it has no links; read every run
   those sections hold — its own and other campaigns' — in one
   ``SELECT``; then one walk of the units in canonical order
   (:meth:`CampaignStyle.trusted`; no rows without a journal) keeps
   each stored run that is *valid* (each distinct run checked once; a
   malformed run is discarded, counted in ``discarded_results`` and
   re-executed) and lists the units still to do.
2. **Shard** (:meth:`CampaignStyle.plan`).  Split the unit list into
   cost-balanced shards, each in canonical order: a full scan deals
   whole fault-space cells (:func:`plan_class_shards`), sampling cuts
   contiguous runs.  The per-unit cost list is computed once; shard
   costs derive from it.
3. **Execute** (:meth:`CampaignStyle.execute`).  A worker-side
   generator turns work items into ``(key, run)`` pairs, each run the
   unit's result in the one form every later step handles — the
   journal's and the wire's; it is the only code that calls an
   executor.
4. **Merge** (:meth:`CampaignRun.accept`).  The one sink: stores each
   batch in the section store (``style.journal``), then keeps what
   ``style.keep`` takes of each unit and updates the
   :class:`ExecutionReport` and progress.  In process every unit is
   fresh; the fabric passes only the units its lease board took fresh
   (its one duplicate filter).  A transport calls
   :meth:`CampaignRun.idle` before it waits, so nothing sits in the
   journal's commit window idle.
5. **Assembly** (:meth:`CampaignRun.assemble`).  One walk of the units
   in canonical order over the kept ones, so results — dictionary
   order, record lists and sample sequences included — are bit-for-bit
   identical however the runs arrived; a full scan counts its tally
   (and with it the ΔF attribution) in it.

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
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from itertools import groupby, islice
from math import ceil
from typing import Callable, Sequence

from ..faultspace.domain import FaultDomain
from .compose import SectionComposer, link_sections
from .experiment import ExecutorConfig, ExperimentExecutor
from .golden import GoldenRun
from .journal import open_campaign

ProgressCallback = Callable[[int, int], None]

#: Re-grants a fabric shard is allowed after a failed attempt (its
#: worker died), unless the campaign says otherwise (``--max-retries``).
DEFAULT_MAX_RETRIES = 2


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
    #: Units trusted at the prologue — read back from the campaign's
    #: linked sections — instead of executed.
    resumed: int = 0
    #: Lease re-grants after a failed attempt (its worker hung up, or
    #: units of it were rejected).
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
    #: Experiments trusted at a prologue that (re)linked the campaign to
    #: its sections (its first run on a journal, or ``resume=False``):
    #: rows another campaign, or this one's cleared run, stored.  Their
    #: units are *also* :attr:`resumed`; a plain resume composes 0.
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
    #: Stored runs discarded at the prologue, deleted and their units
    #: re-executed: runs at a unit of this campaign malformed for their
    #: own length (a salvaged journal's torn rows), or longer than their
    #: class.  A shorter run (a sampled campaign's bit 0) is kept until
    #: the class's whole run replaces it.
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
        self._last = executor.convergence_hits, executor.slice_hits

    def take(self) -> tuple[int, int]:
        executor, (hits, skips) = self._executor, self._last
        self._last = executor.convergence_hits, executor.slice_hits
        return self._last[0] - hits, self._last[1] - skips


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
#: as *small*: per-lease protocol round-trips dominate the simulated
#: work (ROADMAP's 0.18× single-worker dist overhead), so the planners
#: collapse the lease granularity to one shard per expected worker
#: instead of optimizing for rebalance-after-node-loss.
SMALL_CAMPAIGN_CYCLES = 1_000_000


def plan_shards(items: Sequence, costs: Sequence[int], parts: int,
                workers: int) -> tuple[list[list], list[int], list[int]]:
    """``(shards, shard_costs, costs)``: :func:`shard_by_cost` plus each
    shard's summed cost, read off the same per-item cost list.

    ``workers`` is the fabric's expected worker count.  Fine shards
    only pay off when there is enough work to rebalance after a worker
    is lost; a campaign estimated below
    :data:`SMALL_CAMPAIGN_CYCLES` collapses to one shard per expected
    worker, which removes the extra lease round-trips.
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
    per-class :func:`class_cost` list.

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
    :meth:`plan` below, a style provides:

    ``match(rows)``
        maps the runs of the campaign's linked sections (rows
        ``(section_id, slot, axis, first_bit, *run)``, what
        :meth:`~.journal.CampaignJournal.stored_runs` returns) onto its
        units in one walk over them: ``(kept, todo, bad,
        experiments)`` — ``key →`` ``keep`` value of every unit a
        stored run holds whole and valid, and the work items of the
        others, both in canonical order; the keys ``(section_id, slot,
        axis, first_bit)`` of malformed runs at its units
        (:meth:`trusted` discards those); and the experiments trusted;
    ``keep(key, run)``
        what ``result`` needs of a unit's run, all the campaign holds
        of it once stored (a scan: outcomes; the run if records are);
    ``cost(item)``
        estimated post-injection cycles of one work item (styles that
        keep the default :meth:`plan`);
    ``execute(executor, items)``
        the worker-side generator, work items → ``(key, run)``;
    ``journal(composer, batch)``
        stores a batch of ``(key, run)`` in the section store as one
        unit (:meth:`~.compose.SectionComposer.store_runs`) — every
        unit given is fresh: the transport took it once;
    ``valid_run(key, run)``
        the shape check a fabric worker's run passes before it is
        trusted;
    ``result(kept, report)``
        canonical-order assembly of ``key →`` ``keep`` values into
        the style's result type; the units absent from ``kept`` are
        ``report.missing``.
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

    def trusted(self, handle, report, rows, relinked: bool = False) \
            -> tuple[dict, list]:
        """``(kept, todo)`` of :meth:`match` over the stored runs
        ``rows`` (none without a journal); ``relinked`` (the prologue
        has just linked the campaign) counts the experiments trusted in
        ``composed_hits``.

        Never trust stored runs blindly: a salvaged journal can hold
        partial runs and any file a value no build wrote.  A malformed
        run at one of the campaign's units is deleted (counted in
        ``discarded_results``, one ``salvage-prune`` event) and its unit
        re-executed; rows where no unit is are left alone.
        """
        kept, todo, bad, experiments = self.match(rows)
        if bad:
            discarded = handle.journal.discard_section_runs(bad)
            report.discarded_results += discarded
            handle.record_event(
                "salvage-prune",
                detail=f"{discarded} stored runs failed validation and "
                       f"were discarded")
        if relinked:
            report.composed_hits = experiments
        return kept, todo


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
        rows, relinked = (), False
        if handle is not None:
            if not resume:
                handle.clear()
            sections = handle.linked_sections()
            relinked = not sections
            if relinked:
                sections = link_sections(handle, style.golden, style.domain,
                                         style.params)
            rows = handle.stored_runs()
        #: ``key → keep`` value of the units trusted, in canonical order,
        #: then of those accepted; the work items left, in that order.
        self.kept, self.todo = style.trusted(handle, report, rows, relinked)
        #: Where fresh runs are stored: a journaled campaign's
        #: :class:`~.compose.SectionComposer` while it has work left.
        self.composer = (SectionComposer(handle, sections)
                         if handle is not None and self.todo else None)
        report.total_units = len(style.units)
        report.resumed = self.done = report.total_units - len(self.todo)
        if self.done:
            self._report_progress()

    def accept(self, batch: Sequence[tuple[tuple, tuple]]) -> None:
        """The sink of units run fresh, each key once (the transport
        decides what is fresh: in process, every unit; on the fabric,
        the lease board): the section store, then the ``keep``
        values, report and progress."""
        if self.composer is not None:
            self.style.journal(self.composer, batch)
        keep = self.style.keep
        self.kept.update([(key, keep(key, run)) for key, run in batch])
        self.report.executed += len(batch)
        self.done += len(batch)
        self._report_progress()

    def _report_progress(self) -> None:
        """Report the current counts to the progress callback."""
        if self.progress is not None:
            self.progress(self.done, self.report.total_units)

    def idle(self) -> None:
        """The transport is about to wait: commit what was accepted."""
        if self.handle is not None:
            self.handle.flush()

    def assemble(self):
        """The style's result of the units kept, in canonical order."""
        result = self.style.result(self.kept, self.report)
        if self.handle is not None and self.report.complete:
            self.handle.mark_complete()
        return result


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
