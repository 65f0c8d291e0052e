"""The process-pool transport: slot-sharded multi-process campaigns.

Fault-injection experiments are embarrassingly parallel — each one is a
deterministic function of the golden run and a fault coordinate — so a
campaign's shards can run in a pool of worker processes.  What a
campaign *is* (prologue, shard plan, worker-side generator, sink,
canonical-order assembly) is :mod:`repro.campaign.pipeline`; this
module is only how a shard reaches a pool worker's executor and how its
rows come back (:meth:`ParallelCampaign._run_shards`), plus the failure
handling that boundary needs.  ``jobs=1`` is not a pool of one: it *is*
the in-process transport (:class:`~.pipeline.InProcess`) and streams
unit by unit exactly as ``jobs=None`` does.

**One executor per worker.**  :class:`~.experiment.ExperimentExecutor`
is not thread-safe; every worker process builds its own from a pickled
:class:`~.experiment.ExecutorConfig` in the pool initializer.  The
golden run — including its checkpoint-digest ladder for the convergence
early-exit — crosses the process boundary exactly once per worker, via
the initializer args, never per shard or per experiment.  Shards are
the pipeline's contiguous slot ranges, so each worker fast-forwards its
pristine machine once to the start of its range and then advances
monotonically.

Robustness (campaigns are long; machines are not reliable) is what
this transport adds to the pipeline, tuned by :class:`RetryPolicy`: a
shard that outlives its wall-clock deadline (a wedged worker, an
overloaded host) or whose worker process dies (OOM killer, segfault,
``kill -9``) is a *failed attempt* — the pool is killed and rebuilt and
the shard resubmitted with exponential backoff, exactly as the fabric
re-leases an expired lease; no experiment can outlive the simulator's
cycle budget, so a wall-clock overrun says nothing about the program
and never becomes a result.  Shards that exhaust their retry budget are
abandoned and the campaign returns a partial result whose
``result.execution`` lists the missing work; during long waits
``progress`` is re-invoked with unchanged counts, so callers can tell a
slow campaign from a dead one; and the parent commits the journal
before it waits again, so a crash of the *driver* loses at most the
shards in flight.

Failure injection into the pool itself — needed to test the above
deterministically — is the ``REPRO_CHAOS`` environment variable (see
:func:`_chaos`); it only ever fires inside pool worker processes.

Everything crossing the process boundary must pickle (fork *and* spawn
start methods are supported): ``GoldenRun`` (thus ``Program``,
``Instruction``, ``MemoryTrace``), ``ExecutorConfig`` (which names its
fault domain; workers resolve the singleton), the styles' work items
(intervals, slots, ``(key, coordinate)`` pairs), the style's
``execute`` function (by import path) and ``Outcome`` — plain
dataclasses, enums or module-level names.  Executors and ``Machine``
instances never cross the boundary; they are rebuilt per worker.
"""

from __future__ import annotations

import concurrent.futures as cfutures
import dataclasses
import json
import multiprocessing
import os
import random
import time
from concurrent.futures.process import BrokenProcessPool

from ..faultspace.domain import FaultDomain, MEMORY, get_domain
from .experiment import ExecutorConfig, ExperimentExecutor
from .golden import GoldenRun
from .pipeline import (
    CampaignRun,
    ExecutorCounters,
    InProcess,
    ProgressCallback,
    campaign_params,
    class_cost,
    plan_class_shards,
    run_campaign,
    shard_by_cost,
)
from .runner import BruteStyle, SamplingStyle, ScanStyle

__all__ = [
    "ParallelCampaign",
    "RetryPolicy",
    "class_cost",
    "plan_class_shards",
    "resolve_jobs",
    "shard_by_cost",
]

#: The deadline loop's clock and the sleeper of the retry backoff and
#: the ``REPRO_CHAOS`` hooks (module-level so tests can substitute
#: virtual ones).
_clock = time.monotonic
_sleep = time.sleep


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
    """Timeout, retry and heartbeat policy of the pool and the fabric.

    The default shard deadline is *derived from the golden run*: a shard
    estimated at ``c`` post-injection cycles is allowed
    ``c / cycles_per_second`` wall-clock seconds (floored at
    :attr:`min_shard_timeout` so tiny test programs are never starved).
    ``shard_timeout`` overrides the derivation with a fixed number of
    seconds.  Campaign results do *not* depend on the policy, only on
    whether work finished at all: a shard (pool) or lease (fabric) past
    its deadline is a failed attempt, retried and — once
    :attr:`max_retries` is spent — reported in
    ``ExecutionReport.missing``, never turned into outcomes.
    """

    #: Resubmissions allowed per shard after a failed attempt (its
    #: worker died, or its deadline expired).
    max_retries: int = 2
    #: Initial delay before resubmitting after a pool break, seconds.
    backoff: float = 0.25
    #: Multiplier applied to the delay after each successive break.
    backoff_factor: float = 2.0
    #: Random jitter fraction added to each retry delay (a delay of
    #: ``d`` sleeps ``d * (1 + U[0, backoff_jitter])``), so campaigns
    #: sharing a machine do not resubmit in step after a common
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


# -- worker side --------------------------------------------------------------

#: Per-worker executor, built once by :func:`_init_worker`.  Module-level
#: because pool workers can only share state through globals; the parent
#: process never sets or reads it.
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
    inside pool worker processes — the in-process transport and the
    parent are immune, so chaos cannot take down the test process.
    """
    spec = os.environ.get("REPRO_CHAOS")
    if not spec or multiprocessing.parent_process() is None:
        return
    data = json.loads(spec)
    if [index, attempt] in data.get("die", []):
        _sleep(data.get("die_delay", 0.0))
        os._exit(13)
    if [index, attempt] in data.get("hang", []):
        _sleep(data.get("hang_seconds", 600.0))


def _pool_shard(task):
    """Run one shard in a pool worker: ``(batch, counter deltas)``.

    ``execute`` is the campaign style's worker-side generator; the
    counters are deltas because the worker's executor persists across
    the shards the pool hands this process.
    """
    index, attempt, (execute, items) = task
    _chaos(index, attempt)
    counters = ExecutorCounters(_WORKER_EXECUTOR)
    return list(execute(_WORKER_EXECUTOR, items)), counters.take()


# -- driver -------------------------------------------------------------------


class ParallelCampaign:
    """Multi-process campaign driver over one golden run.

    Runs the three campaign styles with ``jobs`` worker processes and
    returns the same result types — and the same iteration order — as
    the serial runner.  ``jobs=1`` is the in-process transport;
    ``jobs=0`` uses one worker per CPU.  ``domain`` selects the fault
    model the campaign scans; ``policy`` the timeout/retry/heartbeat
    behaviour (see :class:`RetryPolicy`).
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
        #: Journal campaign key — the same under every transport, so a
        #: campaign journaled serially resumes under any job count.
        self.params = campaign_params(golden, self.config)

    @property
    def transport(self):
        """How this campaign's shards run: a pool, unless one job."""
        if self.jobs == 1:
            return InProcess(self.golden, self.domain, config=self.config)
        return self._run_shards

    # -- the pool transport --------------------------------------------------

    def _run_shards(self, run: CampaignRun) -> None:
        """Execute the run's to-do list on the pool, robustly.

        Shards reach the sink in completion order (assembly restores
        canonical order).  A shard whose wall-clock deadline (its cost
        estimate through the policy) expires, or whose worker died, has
        failed an attempt: the pool is killed and the shard retried
        with backoff; after :attr:`RetryPolicy.max_retries` extra
        attempts it is dropped and counted in ``report.failed_shards``
        — assembly detects the gap and reports the missing units.
        """
        shards, costs = run.style.plan(run.todo, self.jobs)
        if not shards:
            return
        report, policy = run.report, self.policy
        pending = {index: (run.style.execute, tuple(shard))
                   for index, shard in enumerate(shards)}
        ctx = multiprocessing.get_context()
        attempts = {index: 0 for index in pending}
        backoff = policy.backoff
        while pending:
            executor = cfutures.ProcessPoolExecutor(
                max_workers=min(self.jobs, len(pending)), mp_context=ctx,
                initializer=_init_worker,
                initargs=(self.golden, self.config))
            futures = {
                executor.submit(_pool_shard,
                                (index, attempts[index], payload)): index
                for index, payload in sorted(pending.items())}
            started: dict[int, float] = {}
            overdue: list[int] = []
            broke = False
            last_beat = _clock()
            try:
                while futures:
                    done, _ = cfutures.wait(
                        list(futures), timeout=policy.poll_interval,
                        return_when=cfutures.FIRST_COMPLETED)
                    for future in done:
                        index = futures.pop(future)
                        # result() raises on a dead worker
                        batch, counters = future.result()
                        del pending[index]
                        started.pop(index, None)
                        report.count(counters)
                        run.accept(batch)
                        run.idle()  # the parent now waits for a shard
                    now = _clock()
                    for future, index in futures.items():
                        if index not in started and future.running():
                            started[index] = now
                    overdue = [
                        index for index in started
                        if now - started[index]
                        >= policy.deadline_for(costs[index])]
                    if overdue:
                        break
                    if now - last_beat >= policy.heartbeat:
                        run.heartbeat()
                        last_beat = now
            except BrokenProcessPool:
                broke = True
            finally:
                if overdue or broke:
                    # Non-daemonic pool workers would survive shutdown()
                    # and block interpreter exit; a wedged or orphaned
                    # worker must be killed outright.
                    procs = getattr(executor, "_processes", None) or {}
                    for proc in list(procs.values()):
                        proc.kill()
                executor.shutdown(wait=True, cancel_futures=True)
            report.timed_out_shards += len(overdue)
            # A broken pool fails every in-flight future, so blame
            # cannot be attributed: all unfinished shards are charged
            # an attempt (innocent ones have max_retries of headroom).
            # An expired deadline names its shards; the rest of the
            # killed pool resubmits uncharged.
            retried = 0
            for index in (list(pending) if broke else overdue):
                attempts[index] += 1
                if attempts[index] > policy.max_retries:
                    report.failed_shards += 1
                    del pending[index]
                else:
                    retried += 1
            if retried:
                report.shard_retries += retried
                _sleep(backoff * (1.0 + policy.backoff_jitter
                                  * random.random()))
                backoff *= policy.backoff_factor

    # -- campaign styles -----------------------------------------------------

    def run_full_scan(self, *, partition=None,
                      keep_records: bool = False,
                      progress: ProgressCallback | None = None,
                      journal=None, resume: bool = True):
        """Def/use-pruned full scan, sharded by class cost."""
        return run_campaign(
            ScanStyle(self.golden, self.domain, self.params, partition,
                      keep_records),
            self.transport, journal, resume, progress)

    def run_brute_force(self, *, progress: ProgressCallback | None = None,
                        journal=None, resume: bool = True):
        """One experiment per raw coordinate, sharded by slot range."""
        return run_campaign(
            BruteStyle(self.golden, self.domain, self.params),
            self.transport, journal, resume, progress)

    def run_sampling(self, n_samples: int, *, seed: int = 0,
                     sampler: str = "uniform",
                     partition=None,
                     progress: ProgressCallback | None = None,
                     journal=None, resume: bool = True):
        """Sampled campaign: shard the distinct (class, bit) experiments."""
        return run_campaign(
            SamplingStyle(self.golden, self.domain, self.params, n_samples,
                          seed, sampler, partition),
            self.transport, journal, resume, progress)
