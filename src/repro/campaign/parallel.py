"""``jobs=N``: a campaign on N forked local fabric workers.

What a campaign *is* — prologue, shard plan, worker-side generator,
sink, canonical-order assembly — is :mod:`repro.campaign.pipeline`;
how its shards reach other processes is the lease/frame fabric's
(:class:`~repro.campaign.dist.coordinator.LocalFabric`): the workers are
forks of this process, each re-verifies the campaign and builds its own
executor, leases run under one :class:`RetryPolicy` (a dead, wedged or
rejected lease is a failed attempt, retried, then ``missing``), and
results merge first copy wins.  ``jobs=1`` is not a fleet of one: it
*is* the in-process transport and streams unit by unit as ``jobs=None``
does.
"""

from __future__ import annotations

import dataclasses
import os

from ..faultspace.domain import FaultDomain, MEMORY, get_domain
from .dist.coordinator import LocalFabric
from .dist.leases import RetryPolicy
from .experiment import ExecutorConfig
from .golden import GoldenRun
from .pipeline import (InProcess, campaign_params, class_cost,
                       plan_class_shards, run_campaign, shard_by_cost)
from .runner import BruteStyle, SamplingStyle, ScanStyle

__all__ = ["ParallelCampaign", "RetryPolicy", "class_cost",
           "plan_class_shards", "resolve_jobs", "shard_by_cost"]


def resolve_jobs(jobs: int | None) -> int | None:
    """``None`` (the serial path) unchanged, ``0`` as one worker per
    CPU, any positive count literally."""
    if jobs is None:
        return None
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs or os.cpu_count() or 1


class ParallelCampaign:
    """The three campaign styles over ``jobs`` workers, with the serial
    runner's result types and iteration order.  ``jobs=1`` is the
    in-process transport, ``jobs=0`` one worker per CPU; ``policy`` is
    the lease deadline, retry and heartbeat policy."""

    def __init__(self, golden: GoldenRun, jobs: int = 0, *,
                 executor_config: ExecutorConfig | None = None,
                 domain: FaultDomain | str = MEMORY,
                 policy: RetryPolicy | None = None):
        self.jobs = resolve_jobs(jobs)
        if self.jobs is None:
            raise ValueError("ParallelCampaign needs a concrete job count; "
                             "use the serial runner for jobs=None")
        self.golden = golden
        self.domain = get_domain(domain)
        self.policy = policy or RetryPolicy()
        # Pinned to the campaign's domain: workers rebuild from it.
        self.config = dataclasses.replace(executor_config or ExecutorConfig(),
                                          domain=self.domain.name)
        #: Journal campaign key, the same under every transport.
        self.params = campaign_params(golden, self.config)

    @property
    def transport(self):
        """In-process for one job, else the forked fabric workers."""
        if self.jobs == 1:
            return InProcess(self.golden, self.domain, config=self.config)
        return LocalFabric(self.golden, self.jobs, domain=self.domain,
                           config=self.config, policy=self.policy,
                           attribute=False)

    def _run(self, style, journal, resume, progress):
        if self.jobs > 1 and journal is None:
            journal = ":memory:"  # the fabric merges through a journal
        return run_campaign(style, self.transport, journal, resume, progress)

    def run_full_scan(self, *, partition=None, keep_records=False,
                      progress=None, journal=None, resume=True):
        return self._run(ScanStyle(self.golden, self.domain, self.params,
                                   partition, keep_records),
                         journal, resume, progress)

    def run_brute_force(self, *, progress=None, journal=None, resume=True):
        return self._run(BruteStyle(self.golden, self.domain, self.params),
                         journal, resume, progress)

    def run_sampling(self, n_samples: int, *, seed: int = 0,
                     sampler: str = "uniform", partition=None,
                     progress=None, journal=None, resume=True):
        return self._run(SamplingStyle(self.golden, self.domain,
                                       self.params, n_samples, seed,
                                       sampler, partition),
                         journal, resume, progress)
