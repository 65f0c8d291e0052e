"""``jobs=N``: the names a campaign on N forked fabric workers had.

The runners pick that transport from ``jobs=`` themselves
(:func:`~repro.campaign.runner.resolve_jobs`); what is left here is
:class:`ParallelCampaign`, a full scan with its job count fixed.
"""

from __future__ import annotations

from ..faultspace.domain import FaultDomain, MEMORY
from .dist.leases import RetryPolicy
from .experiment import ExecutorConfig
from .golden import GoldenRun
from .pipeline import class_cost, plan_class_shards, shard_by_cost
from .runner import resolve_jobs, run_full_scan

__all__ = ["ParallelCampaign", "RetryPolicy", "class_cost",
           "plan_class_shards", "resolve_jobs", "shard_by_cost"]


class ParallelCampaign:
    """:func:`~repro.campaign.runner.run_full_scan` on ``jobs`` workers
    (``0``: one per usable CPU; ``1``: in-process)."""

    def __init__(self, golden: GoldenRun, jobs: int = 0, *,
                 executor_config: ExecutorConfig | None = None,
                 domain: FaultDomain | str = MEMORY,
                 policy: RetryPolicy | None = None):
        self.jobs = resolve_jobs(jobs)
        if self.jobs is None:
            raise ValueError("ParallelCampaign needs a concrete job count; "
                             "use the serial runner for jobs=None")
        self.golden, self.domain = golden, domain
        self.config, self.policy = executor_config, policy

    def run_full_scan(self, **campaign):
        return run_full_scan(self.golden, jobs=self.jobs, domain=self.domain,
                             config=self.config, policy=self.policy,
                             **campaign)
