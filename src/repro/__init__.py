"""repro — reproduction of "Avoiding Pitfalls in Fault-Injection Based
Comparison of Program Susceptibility to Soft Errors" (DSN 2015).

The package builds, from scratch, everything the paper's methodology
needs:

* :mod:`repro.isa` — a deterministic RISC machine (the paper's machine
  model) with an assembler, tracing and snapshots;
* :mod:`repro.faultspace` — the cycles × bits fault-space model, def/use
  pruning and samplers;
* :mod:`repro.campaign` — the FAIL*-style fault-injection campaign
  engine (full scans, brute force, sampling, outcome taxonomy);
* :mod:`repro.engine` — pluggable execution engines: the interpreter
  oracle and a template JIT, with ``auto`` choosing per campaign;
* :mod:`repro.metrics` — fault coverage (and why it is unsound),
  extrapolated absolute failure counts, the comparison ratio r, the
  Poisson fault model, confidence intervals, MWTF;
* :mod:`repro.hardening` — SUM+DMR, TMR and the "Dilution Fault
  Tolerance" cheat of Section IV;
* :mod:`repro.kernel` / :mod:`repro.programs` — a cooperative threading
  kernel and the bin_sem2/sync2 eCos-test analogs, plus the "Hi"
  benchmark of Figure 3;
* :mod:`repro.analysis` — data and text reports for every table/figure.

Quickstart::

    from repro.programs import hi
    from repro.campaign import record_golden, run_full_scan
    from repro.metrics import compare, weighted_coverage

    base = run_full_scan(record_golden(hi.baseline()))
    dft = run_full_scan(record_golden(hi.dft_variant(4)))
    print(weighted_coverage(base), weighted_coverage(dft))  # 0.625 0.75
    print(compare(base, dft).ratio)                         # 1.0
"""

__version__ = "1.0.0"

from . import analysis, campaign, engine, faultspace, hardening, isa, \
    kernel, metrics, programs

__all__ = [
    "__version__",
    "analysis",
    "campaign",
    "engine",
    "faultspace",
    "hardening",
    "isa",
    "kernel",
    "metrics",
    "programs",
]
