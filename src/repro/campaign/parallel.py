"""Parallel campaign engine: multi-process FI with slot-sharded snapshot reuse.

Fault-injection experiments are embarrassingly parallel — each one is a
deterministic function of the golden run and a fault coordinate — so
campaigns shard across a pool of worker processes.  Two design rules
keep the parallel engine exactly as exact as the serial one:

* **One executor per worker.**  :class:`~.experiment.ExperimentExecutor`
  is documented as not thread-safe; every worker process builds its own
  from a pickled :class:`~.experiment.ExecutorConfig` in the pool
  initializer.  The golden run — including its checkpoint-digest ladder
  for the convergence early-exit — crosses the process boundary exactly
  once per worker, via the initializer args, never per shard or per
  experiment; each worker expands the ladder into its digest → cycle
  lookup table locally.
* **Contiguous slot shards.**  The executor's snapshot fast-forward
  (:meth:`ExperimentExecutor._state_at`) only pays off when experiments
  arrive in ascending injection-slot order.  Work is therefore split into
  *contiguous slot ranges*: worker *k* fast-forwards its pristine machine
  once to the start of its range and then advances monotonically, instead
  of rewinding on every interleaved experiment that round-robin dispatch
  would cause.

Shards are balanced by estimated cost, not class count: an experiment
injected at slot *t* replays roughly ``Δt − t + 1`` post-injection cycles,
so early-slot classes are far more expensive than late ones (see
:func:`class_cost`).

The engine is generic over :class:`~repro.faultspace.domain.FaultDomain`:
the domain provides the partition builder, the class keys, the per-class
bit width used by the cost model, and the injector the per-worker
executors apply.  Memory and register campaigns therefore share every
line of this module.

Results are merged in canonical (serial) iteration order, which makes
``class_outcomes`` dictionaries, record lists, sample sequences and all
derived counts bit-for-bit identical to the serial path regardless of
worker count or OS scheduling.

Robustness (campaigns are long; machines are not reliable):

* **Wall-clock shard deadlines.**  Each shard gets a deadline derived
  from its estimated cycle cost (or :attr:`RetryPolicy.shard_timeout`).
  A shard that exceeds it — a wedged worker, a pathological injection
  the simulator's own cycle budget cannot catch — is killed and its
  experiments are *classified* :data:`~.outcomes.Outcome.TIMEOUT`
  instead of stalling the whole pool.
* **Retry with backoff.**  If a worker process dies (OOM killer,
  segfault, ``kill -9``), the pool is rebuilt and the unfinished shards
  are resubmitted with exponential backoff, up to
  :attr:`RetryPolicy.max_retries` attempts per shard.
* **Graceful degradation.**  Shards that exhaust their retry budget are
  abandoned; the campaign returns a partial result whose
  ``result.execution`` report lists the missing work, rather than
  raising away everything that did complete.
* **Heartbeat progress.**  During long waits the existing ``progress``
  callback is re-invoked with unchanged counts at
  :attr:`RetryPolicy.heartbeat` intervals, so callers can tell a slow
  campaign from a dead one.
* **Journaling.**  ``journal=`` / ``resume=`` work exactly as in the
  serial runner (see :mod:`repro.campaign.journal`): the parent journals
  and commits each shard's results as it arrives, so a crash of the
  *driver* loses at most the shards in flight.

Failure injection into the engine itself — needed to test the above
deterministically — is provided by the ``REPRO_CHAOS`` environment
variable (see :func:`_chaos`); it only ever fires inside pool worker
processes.

Pickling constraints (fork *and* spawn start methods are supported):
everything crossing the process boundary must be picklable.  That is
``GoldenRun`` (thus ``Program``, ``Instruction``, ``MemoryTrace``),
``ExecutorConfig`` (which names its fault domain; workers resolve the
singleton), the interval and coordinate types of both domains and
``Outcome`` — all plain dataclasses or enums.  Executors and ``Machine``
instances never cross the boundary; they are rebuilt per worker.
"""

from __future__ import annotations

import concurrent.futures as cfutures
import contextlib
import dataclasses
import json
import multiprocessing
import os
import random
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

from ..faultspace.defuse import LIVE
from ..faultspace.domain import FaultDomain, MEMORY, get_domain
from .compose import build_composer, compose_into_completed
from .experiment import ExecutorConfig, ExperimentExecutor, ExperimentRecord
from .golden import GoldenRun
from .journal import ExecutionReport, open_campaign
from .outcomes import Outcome

ProgressCallback = Callable[[int, int], None]


def resolve_jobs(jobs: int | None) -> int | None:
    """Normalize a ``jobs`` parameter.

    ``None`` means "serial path" and is returned unchanged; ``0`` means
    "one worker per CPU"; any positive value is taken literally.
    """
    if jobs is None:
        return None
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Timeout, retry and heartbeat policy for the parallel engine.

    The default shard deadline is *derived from the golden run*: a shard
    estimated at ``c`` post-injection cycles is allowed
    ``c / cycles_per_second`` wall-clock seconds (floored at
    :attr:`min_shard_timeout` so tiny test programs are never starved).
    ``shard_timeout`` overrides the derivation with a fixed number of
    seconds — campaign results must *not* depend on the policy, only on
    whether work finished at all, which is why expired shards are
    classified as timeouts rather than re-executed.
    """

    #: Resubmissions allowed per shard after its worker process died.
    max_retries: int = 2
    #: Initial delay before resubmitting after a pool break, seconds.
    backoff: float = 0.25
    #: Multiplier applied to the delay after each successive break.
    backoff_factor: float = 2.0
    #: Random jitter fraction added to each retry delay (a delay of
    #: ``d`` sleeps ``d * (1 + U[0, backoff_jitter])``), so campaigns
    #: sharing a machine do not resubmit in lockstep after a common
    #: cause (OOM sweep, suspend/resume) broke all their pools at once.
    backoff_jitter: float = 0.25
    #: Fixed per-shard wall-clock deadline in seconds; ``None`` derives
    #: it from the shard's estimated cycle cost.
    shard_timeout: float | None = None
    #: Simulated cycles per wall-clock second assumed by the derivation.
    cycles_per_second: float = 50_000.0
    #: Floor for derived deadlines, seconds.
    min_shard_timeout: float = 5.0
    #: How often the dispatcher wakes to check deadlines, seconds.
    poll_interval: float = 0.05
    #: Interval between heartbeat re-emissions of ``progress``, seconds.
    heartbeat: float = 5.0

    def deadline_for(self, cost_cycles: int) -> float:
        """Wall-clock seconds granted to a shard of ``cost_cycles``."""
        if self.shard_timeout is not None:
            return self.shard_timeout
        return max(self.min_shard_timeout,
                   cost_cycles / self.cycles_per_second)


# -- load balancing -----------------------------------------------------------


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

    ``items`` must already be in execution order (ascending injection
    slot); contiguity is what preserves the per-worker snapshot
    fast-forward.  The *k*-th cut is placed where the cumulative cost
    first reaches ``k/jobs`` of the total.
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
#: overhead), so shard planning collapses the lease granularity
#: instead of optimizing for rebalance-after-node-loss.
SMALL_CAMPAIGN_CYCLES = 1_000_000


def tune_shard_count(total_cost_cycles: int, requested: int,
                     workers: int | None = None) -> int:
    """Lease-granularity heuristic for small campaigns.

    Fine shards only pay off when there is enough work to rebalance
    after a worker is lost; on a campaign whose estimated cost is below
    :data:`SMALL_CAMPAIGN_CYCLES` they just multiply lease round-trips.
    Collapsing to one shard per expected worker removes those
    round-trips, and — because no extra pending shards exist to hand
    out — the lease board never needs to down-tune its re-poll wait
    below the default heartbeat interval for waiting workers.

    ``workers`` is the expected worker count (``None`` means unknown,
    e.g. a hand-started ``repro coordinator``: the requested shard
    count is kept untouched).  Deterministic, so a coordinator restart
    with the same arguments re-derives the same plan and journaled
    per-shard lease state stays valid.
    """
    if workers is None or total_cost_cycles >= SMALL_CAMPAIGN_CYCLES:
        return requested
    return max(1, min(requested, workers))


def plan_class_shards(intervals: Sequence, total_cycles: int, *,
                      bits: int, parts: int) -> tuple[list, list[int]]:
    """Plan contiguous, cost-balanced shards of live classes.

    The single shard-planning step shared by every engine that
    distributes a full scan: the in-process pool
    (:class:`ParallelCampaign`) and the multi-host coordinator
    (:mod:`repro.campaign.dist`) both split the same slot-sorted class
    list with the same cost model, so a campaign journaled under one
    engine resumes under any other and the distributed fabric inherits
    the pool's load balance.  Returns ``(shards, costs)`` where each
    shard is a list of intervals and ``costs[i]`` is shard *i*'s summed
    cycle estimate (the input to
    :meth:`RetryPolicy.deadline_for`).
    """
    costs = [class_cost(interval, total_cycles, bits=bits)
             for interval in intervals]
    shards = shard_by_cost(intervals, costs, parts)
    shard_costs = [sum(class_cost(interval, total_cycles, bits=bits)
                       for interval in shard) for shard in shards]
    return shards, shard_costs


# -- worker side --------------------------------------------------------------

#: Per-worker executor, built once by :func:`_init_worker`.  Module-level
#: because pool workers can only share state through globals.
_WORKER_EXECUTOR: ExperimentExecutor | None = None


def _init_worker(golden: GoldenRun, config: ExecutorConfig) -> None:
    """Pool initializer: build this worker's private executor."""
    global _WORKER_EXECUTOR
    _WORKER_EXECUTOR = config.build(golden)


def _chaos(index: int, attempt: int) -> None:
    """Deterministic failure injection into the engine itself (tests only).

    Activated by the ``REPRO_CHAOS`` environment variable holding JSON::

        {"die":  [[shard, attempt], ...],   # os._exit(13), simulating a
                                            # SIGKILLed / OOM-killed worker
         "hang": [[shard, attempt], ...],   # sleep, simulating a wedged one
         "die_delay": 0.0, "hang_seconds": 600.0}

    Keyed by ``(shard index, attempt number)`` so a shard can be made to
    die on its first attempt and succeed on retry.  Only ever fires
    inside pool worker processes — the inline (``jobs=1``) path and the
    parent are immune, so chaos cannot take down the test process.
    """
    spec = os.environ.get("REPRO_CHAOS")
    if not spec or multiprocessing.parent_process() is None:
        return
    data = json.loads(spec)
    if [index, attempt] in data.get("die", []):
        time.sleep(data.get("die_delay", 0.0))
        os._exit(13)
    if [index, attempt] in data.get("hang", []):
        time.sleep(data.get("hang_seconds", 600.0))


def _scan_shard(task):
    """Run one contiguous shard of live classes (full-scan worker).

    The trailing elements of the result are the shard's convergence-hit,
    slice-hit and scalar-tail counts, reported as deltas because the
    worker's executor (and its counters) persists across the shards the
    pool hands this process.
    """
    index, attempt, payload = task
    _chaos(index, attempt)
    intervals, keep_records = payload
    executor = _WORKER_EXECUTOR
    hits_base = executor.convergence_hits
    slice_base = executor.slice_hits
    tail_base = executor.scalar_tail_experiments
    class_key = executor.domain.class_key
    pairs = []
    records: list[ExperimentRecord] = []
    start = 0
    while start < len(intervals):
        # Same-slot runs of classes go to the executor together so a
        # batch engine can fuse them into lockstep lanes; the scalar
        # executor's run_many just iterates, preserving old behaviour.
        end = start + 1
        slot = intervals[start].injection_slot
        while (end < len(intervals)
               and intervals[end].injection_slot == slot):
            end += 1
        group = intervals[start:end]
        results = executor.run_many(
            [coord for member in group for coord in member.experiments()])
        consumed = 0
        for member in group:
            width = len(member.experiments())
            member_records = results[consumed:consumed + width]
            consumed += width
            pairs.append((class_key(member),
                          tuple(record.outcome
                                for record in member_records)))
            if keep_records:
                records.extend(member_records)
        start = end
    return (pairs, records, executor.convergence_hits - hits_base,
            executor.slice_hits - slice_base,
            executor.scalar_tail_experiments - tail_base)


def _brute_shard(task):
    """Run every raw coordinate of the shard's injection slots.

    The slot list is explicit (not a contiguous range) because a resumed
    campaign shards only the *unjournaled* slots, which may have gaps;
    ascending order still preserves the snapshot fast-forward.
    """
    index, attempt, slots = task
    _chaos(index, attempt)
    executor = _WORKER_EXECUTOR
    hits_base = executor.convergence_hits
    slice_base = executor.slice_hits
    tail_base = executor.scalar_tail_experiments
    domain = executor.domain
    space = domain.fault_space(executor.golden)
    out = []
    for slot in slots:
        coords = list(domain.slot_coordinates(space, slot))
        out.append((slot, [(domain.coordinate_axis(coord), coord.bit,
                            record.outcome)
                           for coord, record
                           in zip(coords, executor.run_many(coords))]))
    return (out, executor.convergence_hits - hits_base,
            executor.slice_hits - slice_base,
            executor.scalar_tail_experiments - tail_base)


def _sampling_shard(task):
    """Run one shard of distinct (class, bit) representative experiments.

    Rows carry the full ``(key, outcome, end_cycle, trap)`` record — the
    sampling result itself only needs the outcome, but the section store
    composes these rows into *full-scan* campaigns later, and those need
    end cycles and traps bit-for-bit.
    """
    index, attempt, keyed = task
    _chaos(index, attempt)
    executor = _WORKER_EXECUTOR
    hits_base = executor.convergence_hits
    slice_base = executor.slice_hits
    tail_base = executor.scalar_tail_experiments
    rows = []
    for key, coord in keyed:
        record = executor.run(coord)
        rows.append((key, record.outcome, record.end_cycle, record.trap))
    return (rows, executor.convergence_hits - hits_base,
            executor.slice_hits - slice_base,
            executor.scalar_tail_experiments - tail_base)


# -- driver -------------------------------------------------------------------


class ParallelCampaign:
    """Multi-process campaign driver over one golden run.

    Dispatches contiguous slot-range shards to a worker pool and merges
    the results into the same result types — and the same iteration
    order — as the serial runner.  ``jobs=1`` executes the sharded code
    path inline in the current process (useful for debugging and for
    equivalence tests without pool overhead); ``jobs=0`` uses one worker
    per CPU.  ``domain`` selects the fault model the campaign scans;
    ``policy`` the timeout/retry/heartbeat behaviour (see
    :class:`RetryPolicy`).
    """

    def __init__(self, golden: GoldenRun, jobs: int = 0, *,
                 executor_config: ExecutorConfig | None = None,
                 domain: FaultDomain | str = MEMORY,
                 policy: RetryPolicy | None = None):
        resolved = resolve_jobs(jobs)
        if resolved is None:
            raise ValueError("ParallelCampaign needs a concrete job count; "
                             "use the serial runner for jobs=None")
        self.golden = golden
        self.jobs = resolved
        self.domain = get_domain(domain)
        self.policy = policy or RetryPolicy()
        config = executor_config or ExecutorConfig()
        # The config crosses the process boundary; pin its domain to the
        # campaign's so every worker rebuilds the right injector.
        self.config = dataclasses.replace(config, domain=self.domain.name)

    def _journal_params(self) -> dict:
        """Journal campaign key — must match the serial runner's, so a
        campaign journaled serially resumes under any job count."""
        return {
            "timeout_cycles": self.config.timeout_cycles(self.golden.cycles),
            "early_stop": self.config.early_stop,
        }

    # -- dispatch ------------------------------------------------------------

    def _run_shards(self, worker: Callable, tasks: list, *,
                    costs: dict, report: ExecutionReport,
                    on_result: Callable,
                    timeout_result: Callable | None = None,
                    heartbeat: Callable | None = None) -> None:
        """Execute ``tasks`` (``(index, payload)`` pairs), robustly.

        ``on_result(index, result)`` is called in completion order; the
        caller merges into canonical order afterwards.  Shards whose
        wall-clock deadline (``costs[index]`` cycles through the policy)
        expires are killed and replaced by ``timeout_result(payload)``.
        Shards interrupted by a worker death are retried with backoff;
        after :attr:`RetryPolicy.max_retries` extra attempts they are
        dropped and counted in ``report.failed_shards`` — the caller
        detects the gap and reports the missing units.

        With one job (or one task) everything runs inline — no
        processes, no pickling, no timeouts — through the exact same
        shard functions.
        """
        if not tasks:
            return
        processes = min(self.jobs, len(tasks))
        if processes <= 1:
            _init_worker(self.golden, self.config)
            for index, payload in tasks:
                on_result(index, worker((index, 0, payload)))
            return
        policy = self.policy
        ctx = multiprocessing.get_context()
        pending = dict(tasks)
        attempts = {index: 0 for index in pending}
        backoff = policy.backoff
        while pending:
            workers_n = min(processes, len(pending))
            executor = cfutures.ProcessPoolExecutor(
                max_workers=workers_n, mp_context=ctx,
                initializer=_init_worker,
                initargs=(self.golden, self.config))
            futures = {
                executor.submit(worker, (index, attempts[index], payload)):
                    index
                for index, payload in sorted(pending.items())}
            started: dict[int, float] = {}
            timed_out: list[int] = []
            broke = False
            last_beat = time.monotonic()
            try:
                while futures:
                    done, _ = cfutures.wait(
                        list(futures), timeout=policy.poll_interval,
                        return_when=cfutures.FIRST_COMPLETED)
                    for future in done:
                        index = futures.pop(future)
                        result = future.result()  # raises on a dead worker
                        del pending[index]
                        started.pop(index, None)
                        on_result(index, result)
                    now = time.monotonic()
                    for future, index in futures.items():
                        if index not in started and future.running():
                            started[index] = now
                    timed_out = [
                        index for index in started
                        if now - started[index]
                        >= policy.deadline_for(costs.get(index, 0))]
                    if timed_out:
                        break
                    if (heartbeat is not None
                            and now - last_beat >= policy.heartbeat):
                        heartbeat()
                        last_beat = now
            except BrokenProcessPool:
                broke = True
            finally:
                if timed_out or broke:
                    # Non-daemonic pool workers would survive shutdown()
                    # and block interpreter exit; a wedged or orphaned
                    # worker must be killed outright.
                    procs = getattr(executor, "_processes", None) or {}
                    for proc in list(procs.values()):
                        proc.kill()
                executor.shutdown(wait=True, cancel_futures=True)
            for index in timed_out:
                payload = pending.pop(index)
                report.timed_out_shards += 1
                if timeout_result is not None:
                    on_result(index, timeout_result(payload))
            if broke:
                # Blame cannot be attributed: the executor fails every
                # in-flight future once the pool breaks.  All unfinished
                # shards are charged an attempt; innocent ones have
                # max_retries of headroom.
                retried = []
                for index in list(pending):
                    attempts[index] += 1
                    if attempts[index] > policy.max_retries:
                        report.failed_shards += 1
                        del pending[index]
                    else:
                        retried.append(index)
                if retried:
                    report.shard_retries += len(retried)
                    time.sleep(backoff
                               * (1.0 + policy.backoff_jitter
                                  * random.random()))
                    backoff *= policy.backoff_factor

    # -- campaign styles -----------------------------------------------------

    def run_full_scan(self, *, partition=None,
                      keep_records: bool = False,
                      progress: ProgressCallback | None = None,
                      journal=None, resume: bool = True):
        """Def/use-pruned full scan, sharded across the pool."""
        from .runner import CampaignResult

        golden = self.golden
        domain = self.domain
        if partition is None:
            partition = domain.build_partition(golden)
        handle = open_campaign(journal, golden, domain, "full-scan",
                               self._journal_params())
        with handle or contextlib.nullcontext():
            completed = {}
            if handle is not None:
                if not resume:
                    handle.clear()
                completed = handle.completed_classes()
            live = partition.live_classes()  # sorted by injection slot
            report = ExecutionReport(total_units=len(live))
            # Compose store-known classes into ``completed`` before planning:
            # composed classes never reach a shard, exactly like resumed ones.
            composer = build_composer(handle, golden, domain,
                                      self._journal_params())
            compose_into_completed(composer, live, completed, handle, report)
            todo = [interval for interval in live
                    if domain.class_key(interval) not in completed]
            report.resumed = len(live) - len(todo)
            by_key = {domain.class_key(interval): interval for interval in todo}
            synthesized_keys: set[tuple[int, int]] = set()
            # Journaling needs end_cycle/trap, so workers must ship records
            # back even when the caller does not keep them.
            want_records = keep_records or handle is not None
            shards, shard_costs = plan_class_shards(
                todo, golden.cycles, bits=domain.bits, parts=self.jobs)
            costs = dict(enumerate(shard_costs))
            tasks = [(index, (tuple(shard), want_records))
                     for index, shard in enumerate(shards)]
            timeout_cycles = self.config.timeout_cycles(golden.cycles)
            fresh: dict[tuple[int, int], tuple] = {}
            done = report.resumed

            def on_result(index, result):
                nonlocal done
                pairs, shard_records, hits, skips, tails = result
                report.convergence_hits += hits
                report.slice_hits += skips
                report.scalar_tail_experiments += tails
                record_iter = iter(shard_records)
                for key, outcomes in pairs:
                    class_records = ([next(record_iter) for _ in outcomes]
                                     if shard_records else [])
                    fresh[key] = (outcomes, class_records)
                    if handle is not None:
                        handle.record_class(key[0], key[1], [
                            (bit, record.outcome.value, record.end_cycle,
                             record.trap)
                            for bit, record in enumerate(class_records)])
                        if key not in synthesized_keys:
                            # Wall-clock-synthesized timeouts are scheduling
                            # artifacts of this run; only simulator-produced
                            # results enter the cross-campaign store.
                            composer.store_class(by_key[key], [
                                (bit, record.outcome, record.end_cycle,
                                 record.trap)
                                for bit, record in enumerate(class_records)])
                if handle is not None:
                    handle.flush()  # the parent now idles until a shard ends
                report.executed += len(pairs)
                done += len(pairs)
                if progress is not None:
                    progress(done, len(live))

            def timeout_result(payload):
                intervals, _ = payload
                pairs = []
                records: list[ExperimentRecord] = []
                for interval in intervals:
                    synthesized_keys.add(domain.class_key(interval))
                    coords = interval.experiments()
                    pairs.append((domain.class_key(interval),
                                  tuple([Outcome.TIMEOUT] * len(coords))))
                    if want_records:
                        records.extend(
                            ExperimentRecord(coordinate=coord,
                                             outcome=Outcome.TIMEOUT,
                                             end_cycle=timeout_cycles)
                            for coord in coords)
                    report.synthesized_timeouts += len(coords)
                return pairs, records, 0, 0, 0

            self._run_shards(
                _scan_shard, tasks, costs=costs, report=report,
                on_result=on_result, timeout_result=timeout_result,
                heartbeat=(lambda: progress(done, len(live)))
                if progress is not None else None)

            class_outcomes: dict[tuple[int, int], tuple[Outcome, ...]] = {}
            records: list[ExperimentRecord] = []
            missing = []
            for interval in live:
                key = domain.class_key(interval)
                if key in fresh:
                    outcomes, class_records = fresh[key]
                    class_outcomes[key] = outcomes
                    if keep_records:
                        records.extend(class_records)
                elif key in completed:
                    rows = completed[key]
                    class_outcomes[key] = tuple(outcome for _, outcome, _, _
                                                in rows)
                    if keep_records:
                        coords = interval.experiments()
                        records.extend(
                            ExperimentRecord(coordinate=coords[bit],
                                             outcome=outcome,
                                             end_cycle=end_cycle, trap=trap)
                            for bit, outcome, end_cycle, trap in rows)
                else:
                    missing.append(key)
            report.missing = tuple(missing)
            if handle is not None and report.complete:
                handle.mark_complete()
        return CampaignResult(golden=golden, partition=partition,
                              class_outcomes=class_outcomes, records=records,
                              domain=domain, execution=report)

    def run_brute_force(self, *, progress: ProgressCallback | None = None,
                        journal=None, resume: bool = True):
        """One experiment per raw coordinate, sharded by slot range."""
        from .runner import BruteForceResult

        golden = self.golden
        domain = self.domain
        handle = open_campaign(journal, golden, domain, "brute-force",
                               self._journal_params())
        with handle or contextlib.nullcontext():
            completed = {}
            if handle is not None:
                if not resume:
                    handle.clear()
                completed = handle.completed_slots()
            all_slots = list(range(1, golden.cycles + 1))
            todo = [slot for slot in all_slots if slot not in completed]
            report = ExecutionReport(total_units=golden.cycles,
                                     resumed=golden.cycles - len(todo))
            slot_costs = [golden.cycles - slot + 1 or 1 for slot in todo]
            shards = shard_by_cost(todo, slot_costs, self.jobs)
            costs = {index: sum(golden.cycles - slot + 1 or 1 for slot in shard)
                     for index, shard in enumerate(shards)}
            tasks = [(index, tuple(shard)) for index, shard in enumerate(shards)]
            space = domain.fault_space(golden)
            fresh: dict[int, list] = {}
            done = report.resumed

            def on_result(index, result):
                nonlocal done
                slot_rows, hits, skips, tails = result
                report.convergence_hits += hits
                report.slice_hits += skips
                report.scalar_tail_experiments += tails
                for slot, rows in slot_rows:
                    fresh[slot] = rows
                    if handle is not None:
                        handle.record_slot(slot, [(axis, bit, outcome.value)
                                                  for axis, bit, outcome in rows])
                if handle is not None:
                    handle.flush()
                report.executed += len(slot_rows)
                done += len(slot_rows)
                if progress is not None:
                    progress(done, golden.cycles)

            def timeout_result(slots):
                out = []
                for slot in slots:
                    rows = [(domain.coordinate_axis(coord), coord.bit,
                             Outcome.TIMEOUT)
                            for coord in domain.slot_coordinates(space, slot)]
                    report.synthesized_timeouts += len(rows)
                    out.append((slot, rows))
                return out, 0, 0, 0

            self._run_shards(
                _brute_shard, tasks, costs=costs, report=report,
                on_result=on_result, timeout_result=timeout_result,
                heartbeat=(lambda: progress(done, golden.cycles))
                if progress is not None else None)

            outcomes: dict = {}
            missing = []
            for slot in all_slots:
                if slot in fresh:
                    rows = fresh[slot]
                elif slot in completed:
                    rows = completed[slot]
                else:
                    missing.append(slot)
                    continue
                for axis, bit, outcome in rows:
                    outcomes[domain.coordinate(slot, axis, bit)] = outcome
            report.missing = tuple(missing)
            if handle is not None and report.complete:
                handle.mark_complete()
        return BruteForceResult(golden=golden, outcomes=outcomes,
                                domain=domain, execution=report)

    def run_sampling(self, n_samples: int, *, seed: int = 0,
                     sampler: str = "uniform",
                     partition=None,
                     progress: ProgressCallback | None = None,
                     journal=None, resume: bool = True):
        """Sampled campaign: shard the distinct (class, bit) experiments.

        Samples are drawn (deterministically, from the seed) in the
        parent; only the distinct representative experiments go to the
        pool.  The resulting outcome cache is then replayed over the
        drawn samples, exactly like the serial runner's cache.  On
        resume the journal's RNG-position check proves the re-drawn
        sequence is the journaled one before any cache is reused.
        """
        from .runner import SamplingResult, _draw_classified

        golden = self.golden
        domain = self.domain
        if partition is None:
            partition = domain.build_partition(golden)
        handle = open_campaign(
            journal, golden, domain, "sampling",
            dict(self._journal_params(), seed=seed, sampler=sampler,
                 n_samples=n_samples))
        with handle or contextlib.nullcontext():
            if handle is not None and not resume:
                handle.clear()
            drawn, population, rng_state = _draw_classified(
                golden, n_samples, seed, sampler, partition, domain)
            journaled: dict[tuple[int, int, int], Outcome] = {}
            if handle is not None:
                handle.verify_sampler_state(len(drawn), rng_state)
                journaled = handle.completed_experiments()
            keyed: dict[tuple[int, int, int], object] = {}
            for sample in drawn:
                if sample.class_kind != LIVE:
                    continue
                interval = partition.locate(sample.coordinate)
                key = (domain.class_key(interval)
                       + (domain.experiment_index(interval, sample.coordinate),))
                if key not in keyed:
                    keyed[key] = domain.experiment_coordinate(interval, key[2])
            items = sorted(keyed.items(),
                           key=lambda kv: (kv[1].slot,
                                           domain.coordinate_axis(kv[1]),
                                           kv[1].bit))
            cache: dict[tuple[int, int, int], Outcome] = {
                key: journaled[key] for key, _ in items if key in journaled}
            report = ExecutionReport(total_units=len(items), resumed=len(cache))
            # Sections are keyed by executor parameters alone, so sampled
            # campaigns compose from (and feed) the same store full scans use.
            composer = build_composer(handle, golden, domain,
                                      self._journal_params())
            if composer is not None:
                for key, coord in items:
                    if key in cache:
                        continue
                    hit = composer.compose_experiment(coord.slot, key[0],
                                                      key[2])
                    if hit is None:
                        continue
                    cache[key] = hit[0]
                    handle.record_experiments(
                        [(key[0], key[1], key[2], hit[0].value)])
                    report.resumed += 1
                    report.composed_hits += 1
            todo = [(key, coord) for key, coord in items if key not in cache]
            synthesized_keys: set = set()
            item_costs = [max(1, golden.cycles - coord.slot + 1)
                          for _, coord in todo]
            shards = shard_by_cost(todo, item_costs, self.jobs)
            costs = {index: sum(max(1, golden.cycles - coord.slot + 1)
                                for _, coord in shard)
                     for index, shard in enumerate(shards)}
            tasks = [(index, tuple(shard)) for index, shard in enumerate(shards)]
            done = len(cache)

            def on_result(index, result):
                nonlocal done
                rows, hits, skips, tails = result
                report.convergence_hits += hits
                report.slice_hits += skips
                report.scalar_tail_experiments += tails
                if handle is not None:
                    handle.record_experiments(
                        [(key[0], key[1], key[2], outcome.value)
                         for key, outcome, _, _ in rows])
                    for key, outcome, end_cycle, trap in rows:
                        if key not in synthesized_keys:
                            composer.store_experiment(
                                keyed[key].slot, key[0], key[2], outcome,
                                end_cycle, trap)
                    handle.flush()
                for key, outcome, _, _ in rows:
                    cache[key] = outcome
                report.executed += len(rows)
                done += len(rows)
                if progress is not None:
                    progress(done, len(items))

            def timeout_result(shard):
                report.synthesized_timeouts += len(shard)
                synthesized_keys.update(key for key, _ in shard)
                return ([(key, Outcome.TIMEOUT, 0, "") for key, _ in shard],
                        0, 0, 0)

            self._run_shards(
                _sampling_shard, tasks, costs=costs, report=report,
                on_result=on_result, timeout_result=timeout_result,
                heartbeat=(lambda: progress(done, len(items)))
                if progress is not None else None)

            samples: list[tuple] = []
            missing: list = []
            missing_seen: set = set()
            for sample in drawn:
                if sample.class_kind != LIVE:
                    samples.append((sample, Outcome.NO_EFFECT))
                    continue
                interval = partition.locate(sample.coordinate)
                key = (domain.class_key(interval)
                       + (domain.experiment_index(interval, sample.coordinate),))
                if key in cache:
                    samples.append((sample, cache[key]))
                elif key not in missing_seen:
                    # Degraded campaign: the shard owning this experiment was
                    # abandoned, so its samples cannot be classified and are
                    # omitted from the (partial) result.
                    missing_seen.add(key)
                    missing.append(key)
            report.missing = tuple(missing)
            if handle is not None and report.complete:
                handle.mark_complete()
        return SamplingResult(golden=golden, partition=partition,
                              samples=samples, population=population,
                              experiments_conducted=len(cache),
                              sampler=sampler, domain=domain,
                              execution=report)
