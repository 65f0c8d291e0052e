"""Campaign-engine wall-clock: parallel scaling and convergence A/B.

Three experiments over def/use-pruned full scans of the Figure 2
benchmarks, with a human-readable report in
``output/parallel_scan.txt`` and a machine-readable perf trajectory in
repo-root ``BENCH_parallel_scan.json`` (uploaded by CI as an artifact):

* **Parallel scaling** — the largest baseline variant executed
  serially and with the slot-sharded multiprocessing engine over a
  range of worker counts.
* **Convergence A/B** — the SUM+DMR-hardened variant scanned with the
  convergence early-exit system (checkpoint-digest ladder, cost-aware
  probe schedule, criticality pre-skip) enabled and disabled, under
  the interpreter and the compiled engine.  The enabled scan must be
  at least 2× (compiled: 1.2×) faster *and* bit-for-bit identical:
  same ``CampaignResult``, same exported CSV bytes — speed must never
  buy back exactness.
* **State memo A/B** — a compiled ``chain-sumdmr`` scan with the
  faulty-state memo's probe grid at its constant and forced past the
  cycle budget: records identical, on at least 1.3× faster.  Asserts
  only.
* **Mid-block entry gate** — counts, instead of timing, the
  instructions the compiled scan's faulty machine still interprets:
  fewer than one per executed experiment.  Asserts only.
* **Fast-forward gate** — counts the post-injection cycles the compiled
  scan's faulty machine executes with the golden fast-forward at its
  constants and with its jump floor forced past the cycle budget: at
  most three quarters.  Asserts only.

Scale knobs (environment):

``REPRO_BENCH_PARALLEL_SCALE=full``
    Paper-scale sync2 (items=10) instead of the quick default (items=4).
``REPRO_BENCH_PARALLEL_JOBS``
    Comma-separated worker counts (default: ``1,2,4`` plus the CPU count
    when larger).

The ≥2× parallel-speedup assertion at 4 workers only applies on
machines with at least 4 usable CPUs — a container pinned to one core
cannot exhibit multi-core scaling, but still exercises (and verifies)
the engine.  Worker counts above the usable CPUs are marked
``oversubscribed: true`` in the JSON so trajectory consumers skip
them instead of reading scheduler contention as a scaling regression.  The convergence-speedup assertions have no such caveat:
they are single-process properties of the executor.
"""

import json
import os
import time

from _bench_json import write_bench_json

from repro.campaign import (
    ExecutorConfig,
    experiment,
    export_class_results_csv,
    record_golden,
    run_full_scan,
)
from repro.programs import chain, sync2


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _worker_counts() -> list[int]:
    raw = os.environ.get("REPRO_BENCH_PARALLEL_JOBS")
    if raw:
        return [int(part) for part in raw.split(",") if part.strip()]
    counts = [1, 2, 4]
    cpus = _usable_cpus()
    if cpus > 4:
        counts.append(cpus)
    return counts


def _full_scale() -> bool:
    return os.environ.get("REPRO_BENCH_PARALLEL_SCALE") == "full"


def _merge_bench_json(section: str, payload: dict) -> None:
    """Update one section of BENCH_parallel_scan.json, keeping the other."""
    from _bench_json import REPO_ROOT
    path = REPO_ROOT / "BENCH_parallel_scan.json"
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            data = {}
    data[section] = payload
    write_bench_json("parallel_scan", data)


def test_parallel_scan_scaling(output_dir):
    program = sync2.baseline() if _full_scale() else sync2.baseline(4)
    golden = record_golden(program)
    partition = golden.partition()

    start = time.perf_counter()
    serial = run_full_scan(golden, partition=partition)
    t_serial = time.perf_counter() - start

    cpus = _usable_cpus()
    rows = [("serial", 1, t_serial, 1.0, False)]
    speedups = {}
    for jobs in _worker_counts():
        # A worker count above the usable CPUs cannot scale — it only
        # measures scheduler contention.  Still run it once (the
        # bit-identity assertion is engine coverage either way) but
        # mark the record so the JSON trajectory and the CI A/B job
        # don't read a pinned-to-one-core container as a regression.
        oversubscribed = jobs > cpus
        start = time.perf_counter()
        parallel = run_full_scan(golden, partition=partition, jobs=jobs)
        t_parallel = time.perf_counter() - start
        assert list(parallel.class_outcomes.items()) \
            == list(serial.class_outcomes.items()), jobs
        assert parallel.weighted_counts() == serial.weighted_counts(), jobs
        if not oversubscribed:
            speedups[jobs] = t_serial / t_parallel
        rows.append((f"jobs={jobs}", jobs, t_parallel,
                     t_serial / t_parallel, oversubscribed))

    experiments = partition.experiment_count
    lines = [
        f"parallel full scan of {program.name} "
        f"({'paper' if _full_scale() else 'quick'} scale)",
        f"Δt={golden.cycles} cycles, Δm={program.ram_size} bytes, "
        f"{len(partition.live_classes())} live classes, "
        f"{experiments} experiments",
        f"usable CPUs: {cpus}",
        "",
        f"{'engine':10s} {'workers':>7s} {'wall-clock':>11s} "
        f"{'speedup':>8s}",
        "-" * 40,
    ]
    for label, jobs, elapsed, speedup, oversubscribed in rows:
        suffix = "  (oversubscribed)" if oversubscribed else ""
        lines.append(f"{label:10s} {jobs:7d} {elapsed:10.3f}s "
                     f"{speedup:7.2f}x{suffix}")
    report = "\n".join(lines) + "\n"
    (output_dir / "parallel_scan.txt").write_text(report)
    print()
    print(report)

    _merge_bench_json("scaling", {
        "program": program.name,
        "golden_cycles": golden.cycles,
        "experiments": experiments,
        "usable_cpus": cpus,
        "serial_seconds": round(t_serial, 3),
        "runs": [
            {"workers": jobs, "wall_clock_seconds": round(elapsed, 3),
             "speedup": round(speedup, 2),
             "oversubscribed": oversubscribed}
            for _, jobs, elapsed, speedup, oversubscribed in rows
        ],
    })

    if cpus >= 4 and 4 in speedups:
        assert speedups[4] >= 2.0, (
            f"expected >= 2x speedup at 4 workers on a {cpus}-CPU "
            f"machine, measured {speedups[4]:.2f}x")


def test_convergence_ab(output_dir, tmp_path):
    """Convergence on/off: faster on both engines, bit-for-bit identical.

    Two ratios, each inside one run so host speed cancels.  On the
    interpreter a saved tail cycle is expensive and the schedule probes
    from the first cycle after the injection: on must beat off ≥2×
    (≥1.5× at quick scale).  Under the compiled engine a tail cycle is
    ~15× cheaper than that while a digest is not, so the schedule
    starts at the digest's price in JIT cycles
    (``CompiledEngine.probe_gap``) and stops on basic-block boundaries;
    on must still beat off ≥1.2× — the floor that keeps the default
    (``--engine auto`` + convergence) from ever again being the slower
    configuration.  Exactness is asserted for both engines.
    """
    program = sync2.hardened() if _full_scale() else sync2.hardened(2)
    golden = record_golden(program)
    partition = golden.partition()

    start = time.perf_counter()
    on = run_full_scan(golden, partition=partition,
                       config=ExecutorConfig(use_convergence=True,
                                             engine="interp"))
    t_on = time.perf_counter() - start
    start = time.perf_counter()
    off = run_full_scan(golden, partition=partition,
                        config=ExecutorConfig(use_convergence=False,
                                              engine="interp"))
    t_off = time.perf_counter() - start

    start = time.perf_counter()
    on_jit = run_full_scan(golden, partition=partition,
                           config=ExecutorConfig(use_convergence=True,
                                                 engine="compiled"))
    t_on_jit = time.perf_counter() - start
    start = time.perf_counter()
    off_jit = run_full_scan(golden, partition=partition,
                            config=ExecutorConfig(use_convergence=False,
                                                  engine="compiled"))
    t_off_jit = time.perf_counter() - start
    assert on_jit == on and off_jit == off, \
        "compiled engine changed campaign outcomes"

    # Exactness first: the optimized scan must be indistinguishable.
    assert on == off, "convergence early-exit changed campaign outcomes"
    on_csv, off_csv = tmp_path / "on.csv", tmp_path / "off.csv"
    export_class_results_csv(on, on_csv)
    export_class_results_csv(off, off_csv)
    assert on_csv.read_bytes() == off_csv.read_bytes(), \
        "convergence early-exit changed exported CSV bytes"

    experiments = partition.experiment_count
    conv = on.execution.convergence_hits
    skips = on.execution.slice_hits
    speedup = t_off / t_on
    hit_rate = (conv + skips) / experiments

    lines = [
        f"convergence A/B on {program.name} "
        f"({'paper' if _full_scale() else 'quick'} scale)",
        f"Δt={golden.cycles} cycles, {experiments} experiments",
        f"  convergence on : {t_on:8.3f}s "
        f"({experiments / t_on:8.0f} experiments/s)",
        f"  convergence off: {t_off:8.3f}s "
        f"({experiments / t_off:8.0f} experiments/s)",
        f"  speedup: {speedup:.2f}x",
        f"  ladder hits: {conv} ({conv / experiments:.1%}), "
        f"criticality pre-skips: {skips} ({skips / experiments:.1%})",
        f"  combined hit rate: {hit_rate:.1%}",
        f"  compiled engine  : on {t_on_jit:.3f}s / off {t_off_jit:.3f}s "
        f"({t_off_jit / t_on_jit:.2f}x)",
    ]
    report = "\n".join(lines) + "\n"
    with (output_dir / "parallel_scan.txt").open("a") as fh:
        fh.write("\n" + report)
    print()
    print(report)

    _merge_bench_json("convergence_ab", {
        "program": program.name,
        "golden_cycles": golden.cycles,
        "experiments": experiments,
        "wall_clock_on_seconds": round(t_on, 3),
        "wall_clock_off_seconds": round(t_off, 3),
        "experiments_per_second_on": round(experiments / t_on, 1),
        "experiments_per_second_off": round(experiments / t_off, 1),
        "speedup": round(speedup, 2),
        "convergence_hits": conv,
        "slice_hits": skips,
        "hit_rate": round(hit_rate, 4),
        "compiled_wall_clock_on_seconds": round(t_on_jit, 3),
        "compiled_wall_clock_off_seconds": round(t_off_jit, 3),
        "compiled_speedup": round(t_off_jit / t_on_jit, 2),
    })

    # Floor: full scale has a long post-injection tail and comfortably
    # clears 2x; quick scale (Δt ~ 2k cycles) hovers around 1.8-2.3x
    # depending on host load, so its floor is set where only a genuine
    # convergence regression (ratio ~ 1.0) can land.
    floor = 2.0 if _full_scale() else 1.5
    assert speedup >= floor, (
        f"expected the convergence early-exit to cut the scan at least "
        f"{floor}x, measured {speedup:.2f}x")
    assert t_off_jit / t_on_jit >= 1.2, (
        f"expected the convergence early-exit to cut the compiled scan "
        f"at least 1.2x, measured {t_off_jit / t_on_jit:.2f}x")


def test_state_memo_ab(monkeypatch):
    """State memo on/off under the JIT: >= 1.3x, records identical.

    Convergence on both times; "off" forces the memo's probe grid past
    the cycle budget, so the ladder alone cuts tails.  The memo pays
    for the cycles between a grid stop and a run's end, so its ratio
    grows with Δt: 1.2-1.3× on the quick-scale ``sync2`` scan above
    (Δt 2 068), too close to carry a floor; this is the e2e
    benchmark's ``scan_serial_mem`` campaign (Δt 6 998, measured
    1.8×, ~20 s for both sides).  A ratio gate only: asserts, writes
    no ``BENCH_*.json`` (the trajectory lives in ``benchmarks/e2e``).
    """
    program = chain.hardened()
    golden = record_golden(program)
    partition = golden.partition()
    config = ExecutorConfig(engine="compiled")

    def timed():
        executor = config.build(golden)
        start = time.perf_counter()
        result = run_full_scan(golden, partition=partition,
                               executor=executor, keep_records=True)
        return time.perf_counter() - start, result, executor.memo_hits

    t_on, on, memo_hits = timed()
    monkeypatch.setattr(experiment, "MEMO_GRID",
                        config.timeout_cycles(golden.cycles))
    t_off, off, no_hits = timed()
    assert on == off, "state memo changed campaign records"
    assert memo_hits > 0 and no_hits == 0
    print(f"\nstate memo A/B on {program.name}: on {t_on:.3f}s / "
          f"off {t_off:.3f}s ({t_off / t_on:.2f}x), "
          f"{memo_hits} memo hits")
    assert t_off / t_on >= 1.3, (
        f"expected the state memo to cut the compiled scan at least "
        f"1.3x, measured {t_off / t_on:.2f}x")


def test_midblock_entry_gate():
    """Restored machines enter the JIT where they land: < 1 interpreted
    instruction per executed experiment, records identical to ``interp``.

    Every experiment resumes from a snapshot at slot − 1, almost never
    a block leader.  Without the entrant twins the rest of that block
    goes through the interpreter's handlers (≈ 24 instructions an
    experiment on ``chain-sumdmr``, ≈ 0.05 with them); what remains is
    budget tails of timed-out runs.  A count, so it repeats exactly
    and needs no ratio floor; writes no ``BENCH_*.json``.
    """
    program = sync2.hardened() if _full_scale() else sync2.hardened(2)
    golden = record_golden(program)
    partition = golden.partition()
    executor = ExecutorConfig(engine="compiled").build(golden)
    interpreted = []

    def counted(handler):
        def call(instr):
            interpreted.append(instr)
            handler(instr)
        return call

    faulty = executor._machine
    faulty._exec = [(counted(handler), instr)
                    for handler, instr in faulty._exec]
    compiled = run_full_scan(golden, partition=partition,
                             executor=executor, keep_records=True)
    interp = run_full_scan(golden, partition=partition,
                           config=ExecutorConfig(engine="interp"),
                           keep_records=True)
    assert compiled == interp, "entrant twins changed campaign records"
    executed = partition.experiment_count - executor.slice_hits
    print(f"\nmid-block entry on {program.name}: {len(interpreted)} "
          f"interpreted instructions over {executed} executed "
          f"experiments ({len(interpreted) / executed:.3f} each)")
    assert len(interpreted) < executed


def test_fast_forward_gate():
    """Golden fast-forward: <= 0.75 of the post-injection cycles, records
    identical to ``interp``.

    Cycles the faulty machine really executes — what its cycle counter
    advanced by, less what the jumps skipped — over the whole scan,
    against the same scan with the jump floor past the cycle budget
    (no jump is ever worth it: the PR 21 executor).  A count, so it
    repeats exactly and needs no ratio floor; writes no
    ``BENCH_*.json``.
    """
    program = sync2.hardened() if _full_scale() else sync2.hardened(2)
    golden = record_golden(program)
    partition = golden.partition()
    config = ExecutorConfig(engine="compiled")

    def scan(jump_floor=None):
        executor = config.build(golden)
        if jump_floor is not None:
            executor._jump_floor = jump_floor
        finish = executor._finish
        advanced = 0

        def counted(machine, coordinate):
            nonlocal advanced
            start = machine.cycle
            record = finish(machine, coordinate)
            advanced += machine.cycle - start
            return record

        executor._finish = counted
        result = run_full_scan(golden, partition=partition,
                               executor=executor, keep_records=True)
        return advanced - executor.cycles_skipped, executor, result

    jumping, executor, on = scan()
    plain, unmoved, off = scan(config.timeout_cycles(golden.cycles))
    interp = run_full_scan(golden, partition=partition,
                           config=ExecutorConfig(engine="interp"),
                           keep_records=True)
    assert on == interp and off == interp, \
        "the golden fast-forward changed campaign records"
    assert executor.jumps > 0 and unmoved.jumps == 0
    print(f"\nfast-forward on {program.name}: {jumping} post-injection "
          f"cycles executed, {plain} without jumps "
          f"({jumping / plain:.3f}); {executor.jumps} jumps skipped "
          f"{executor.cycles_skipped} cycles")
    assert jumping <= 0.75 * plain
