"""No engine plan: every campaign runs ``compiled`` unless its config
names ``interp`` (see :mod:`repro.engine`)."""


# Pinned by benchmarks/e2e/trace.py TARGETS; goes with ROADMAP item 4.
def plan_tiers(golden, domain, *, partition=None) -> str:
    return "compiled"
