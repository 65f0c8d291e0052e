"""The ``auto`` engine's one decision: interpret or compile.

``compiled`` pays milliseconds of codegen once per machine and then
retires cycles an order of magnitude faster than ``interp``, so it is
the right engine unless the whole campaign is smaller than that
one-time cost — and a campaign's size is known before it starts: the
def/use partition says how many experiments inject at each slot.

Engine choice is outcome-invariant (the equivalence suites prove it),
so the plan only moves wall-clock; it depends on the golden run and the
domain alone, so fabric workers re-plan and agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..faultspace import get_domain

#: Estimated total campaign cycles below which the template JIT's
#: one-time codegen cost dominates and the plain interpreter wins.
INTERP_WORK_CUTOFF = 25_000


@dataclass(frozen=True)
class TierPlan:
    """The engine a campaign should run under (registry name), and why."""

    engine: str
    reason: str


# benchmarks/e2e/trace.py names this function as its ``engine.plan``
# target, so the name and signature stay until a [benchmark] PR moves it.
def plan_tiers(golden, domain, *, partition=None) -> TierPlan:
    """The engine for a campaign over ``golden`` in ``domain``.

    ``partition`` reuses a caller-built def/use partition; otherwise one
    is built and cached per domain on the golden run, so resolving
    ``auto`` per executor costs one partition build per campaign.
    """
    domain = get_domain(domain)
    if domain.control_hazard:
        # Never sized; doing so would interpret the 12 smallest programs.
        return TierPlan("compiled", f"domain '{domain.name}' is not sized")
    if partition is None:
        # GoldenRun is a frozen dataclass; caches go through __dict__.
        cache = golden.__dict__.setdefault("_planner_partitions", {})
        partition = cache.get(domain.name)
        if partition is None:
            partition = cache[domain.name] = domain.build_partition(golden)
    # Every experiment may run its whole post-injection tail.
    work = sum(domain.experiment_count(interval)
               * (golden.cycles - interval.injection_slot + 1)
               for interval in partition.live_classes())
    if work + golden.cycles < INTERP_WORK_CUTOFF:
        return TierPlan("interp", f"~{work} post-injection cycles: JIT "
                        "codegen would cost more than interpreting them")
    return TierPlan("compiled", f"~{work} post-injection cycles amortize "
                    "JIT codegen")
