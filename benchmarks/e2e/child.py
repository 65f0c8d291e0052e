"""One benchmark child: a fresh interpreter that sets a workload up
and, in ``--mode run``, executes and times it once.

Spawned by ``run.py``; prints one JSON object as its last stdout line.
Drives only the public API the CLI drives.  See README.md.
"""

import sys
import time

T_PYTHON = time.perf_counter()  # interpreter start-up ends here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

from repro.campaign import (  # noqa: E402
    ExecutorConfig,
    export_class_results_csv,
    record_golden,
    run_distributed_scan,
    run_full_scan,
)
from repro.faultspace import get_domain  # noqa: E402
from repro.metrics import (  # noqa: E402
    comparison_report,
    export_comparison_csv,
    weighted_failure_count,
)
from repro.programs import all_programs  # noqa: E402

T_IMPORTED = time.perf_counter()

#: name -> (programs, domain, transport).  Sizes are fixed and do not
#: depend on ``--seconds``; README.md says why each workload exists.
WORKLOADS = {
    "scan_serial_mem": (("chain-sumdmr",), "memory", "serial"),
    "scan_pool_reg_journal": (("bin_sem2-sumdmr",), "register", "pool"),
    "scan_dist_mem": (("msgq-sumdmr",), "memory", "dist"),
    "sweep_warm_journal": (("bin_sem2", "bin_sem2-sumdmr"), "memory",
                           "sweep"),
}
POOL_JOBS = 2
#: Re-sweeps of each kind (plain resume / ``resume=False``) on the
#: warm sweep.
RESWEEPS = 8
RAW_RUNS = 25
#: ``--mode pins`` refuses to write pins unless this documented result
#: (EXPERIMENTS.md) still comes out: the sanity anchor of all pins.
ANCHOR = ("sync2", "memory", 942712)


def children_cpu():
    times = os.times()
    return times.children_user + times.children_system


class Region:
    """One timed region: wall, own CPU and waited-for descendants' CPU."""

    def __enter__(self):
        self.children = children_cpu()
        self.cpu = time.process_time()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *_exc):
        self.end = time.perf_counter()
        self.wall = self.end - self.start
        self.cpu = time.process_time() - self.cpu
        self.children = children_cpu() - self.children


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def scan_pin(scan):
    return {"experiments": scan.experiments_conducted,
            "F": int(weighted_failure_count(scan).total),
            "complete": scan.execution.complete}


class Workload:
    """State shared by both kinds of workload."""

    def __init__(self, names, domain, transport, work_dir):
        self.names = names
        self.domain = get_domain(domain)
        self.transport = transport
        self.dir = work_dir
        self.journal = None
        self.build_seconds = []    # one entry per program built
        self.golden_cycles = self.live_classes = 0

    def build_program(self, name):
        start = time.perf_counter()
        program = all_programs()[name]()
        self.build_seconds.append(time.perf_counter() - start)
        return program

    def journal_mb(self):
        """The journal and its WAL sidecars; 0 without a journal."""
        if self.journal is None:
            return 0.0
        return sum(path.stat().st_size
                   for path in self.dir.glob(self.journal.name + "*")) / 1e6


class Scan(Workload):
    """W1-W3: one program x domain full scan over one transport."""

    def setup(self):
        """Ready-to-inject: program, golden run, partition, executor."""
        self.program = self.build_program(self.names[0])
        self.golden = record_golden(self.program)
        self.partition = self.domain.build_partition(self.golden)
        # What run_full_scan(config=None) builds on the serial path.
        self.executor = replace(ExecutorConfig(), domain=self.domain.name) \
            .build(self.golden, partition=self.partition)
        self.golden_cycles = self.golden.cycles
        self.live_classes = len(self.partition.live_classes())

    def run(self):
        """The timed region: campaign call -> CSV written and closed."""
        self.csv = self.dir / "classes.csv"
        if self.transport != "serial":
            self.journal = self.dir / "journal.sqlite"
        with Region() as region:
            if self.transport == "serial":
                scan = run_full_scan(self.golden, partition=self.partition,
                                     executor=self.executor,
                                     domain=self.domain)
            elif self.transport == "pool":
                scan = run_full_scan(self.golden, partition=self.partition,
                                     jobs=POOL_JOBS, domain=self.domain,
                                     journal=self.journal)
            else:
                scan = run_distributed_scan(self.golden, workers=1,
                                            domain=self.domain,
                                            journal=self.journal)
            export_class_results_csv(scan, self.csv)
        self.scans = [scan]
        return [region]

    def pins(self):
        return dict(scan_pin(self.scans[0]), csv_sha256=sha256_file(self.csv))

    def verify(self, pins):
        """``(attempted, failed)`` operations, one per live class; any
        pin mismatch fails them all."""
        failed = len(self.scans[0].execution.missing)
        if self.pins() != pins:
            failed = self.live_classes
        return self.live_classes, failed


class Sweep(Workload):
    """W4: warm re-sweeps of a baseline/variant pair against the
    journal that a cold sweep (part of set-up) filled."""

    def __init__(self, *args, seed):
        super().__init__(*args)
        self.journal = self.dir / "sweep.sqlite"
        self.csv = self.dir / "comparison.csv"
        # Plain resumes and resume=False re-sweeps (composed from the
        # section store), order drawn from --seed.
        self.order = [True, False] * RESWEEPS
        random.Random(seed).shuffle(self.order)

    def sweep(self, resume):
        """What ``repro compare --journal --csv`` does."""
        scans = []
        for name in self.names:
            golden = record_golden(self.build_program(name))
            scans.append(run_full_scan(
                golden, partition=self.domain.build_partition(golden),
                domain=self.domain, journal=self.journal, resume=resume))
        reports = [comparison_report(name, scans[0], scan)
                   for name, scan in zip(self.names[1:], scans[1:])]
        export_comparison_csv(reports, self.csv)
        return scans

    def setup(self):
        """The cold sweep: serial, journaled, a transaction a class."""
        scans = self.sweep(True)
        self.cold = [scan.class_outcomes for scan in scans]
        self.golden_cycles = sum(scan.golden.cycles for scan in scans)
        self.live_classes = sum(len(scan.class_outcomes) for scan in scans)

    def run(self):
        """The timed regions: one per re-sweep, checked in between."""
        regions = []
        self.checks = []  # per re-sweep: (per-variant warm-and-equal, pins)
        for resume in self.order:
            with Region() as region:
                self.scans = self.sweep(resume)
            regions.append(region)
            self.checks.append((
                [scan.execution.executed == 0 and scan.class_outcomes == cold
                 for scan, cold in zip(self.scans, self.cold)],
                {"scans": [scan_pin(scan) for scan in self.scans],
                 "csv_sha256": sha256_file(self.csv)}))
        return regions

    def pins(self):
        return self.checks[-1][1]

    def verify(self, pins):
        """One operation per variant per re-sweep: nothing executed,
        outcomes equal to the cold sweep's, results as pinned."""
        failed = sum(
            not (ok and found["csv_sha256"] == pins["csv_sha256"]
                 and found["scans"][index] == pins["scans"][index])
            for warm, found in self.checks for index, ok in enumerate(warm))
        return len(self.checks) * len(self.names), failed


def check_anchor():
    name, domain, expected = ANCHOR
    scan = run_full_scan(record_golden(all_programs()[name]()),
                         domain=domain)
    found = int(weighted_failure_count(scan).total)
    if found != expected:
        raise SystemExit(f"sanity anchor: {name} x {domain} gives F = "
                         f"{found}, documented {expected}; pins not written")


def raw_cycles_per_s(workload):
    """Plain execution speed of the resolved engine: the golden program
    re-run with no injector around it (ZOFI's denominator)."""
    machine = workload.executor.engine.create_machine(workload.program)
    best = float("inf")
    for _ in range(RAW_RUNS):
        machine.reset()
        start = time.perf_counter()
        machine.run(workload.golden.cycles + 1)
        best = min(best, time.perf_counter() - start)
    return workload.golden.cycles / best


def layer_metrics(tracer, workload, regions):
    """Reduce the spans to the per-layer metrics of BENCHMARK.json.

    Seconds and counts are totals over the timed regions; set-up layers
    are means per call over the whole child.  A layer the workload does
    not exercise in this process reports 0.  Times are as the clock
    read them; the parent scales them to reference speed.
    """
    from trace import COUNT, NAME, START

    windows = [(region.start, region.end) for region in regions]
    timed = tracer.totals(windows)
    whole = tracer.totals()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0}

    def timed_s(name, field="total_s"):
        return timed.get(name, zero)[field]

    def per_call(name):
        entry = whole.get(name, zero)
        return entry["total_s"] / entry["calls"] if entry["calls"] else 0.0

    wall = sum(region.wall for region in regions)
    cpu_self = sum(region.cpu for region in regions)
    cpu_children = sum(region.children for region in regions)
    busy = timed_s("executor.run_many")
    experiments = timed_s("executor.run_many", "count")
    reports = [scan.execution for scan in workload.scans]
    pool = workload.transport == "pool"
    dist = workload.transport == "dist"
    # Campaign call -> first journal write that carries rows, i.e. the
    # first result a worker delivered.
    first_result = next(
        (span[START] - windows[0][0] for span in tracer.spans
         if span[NAME] == "journal.write" and span[COUNT]
         and span[START] >= windows[0][0]), 0.0)
    if workload.transport == "sweep":
        raw = effective = 0.0  # a warm sweep executes no experiment
    else:
        raw = raw_cycles_per_s(workload)
        effective = (experiments * workload.golden_cycles / busy
                     if busy else 0.0)
    spans = sum(entry["spans"] for entry in timed.values())
    return {
        "programs.build_s":
            sum(workload.build_seconds) / len(workload.build_seconds),
        "golden.record_s": per_call("golden.record"),
        "golden.cycles": workload.golden_cycles,
        "faultspace.partition_s": per_call("faultspace.partition"),
        "faultspace.live_classes": workload.live_classes,
        "faultspace.slice_s": timed_s("faultspace.slice"),
        "faultspace.sections_s": timed_s("faultspace.sections"),
        "engine.plan_s": per_call("engine.plan"),
        "engine.compile_s": per_call("engine.compile"),
        "engine.raw_cycles_per_s": raw,
        "executor.build_s": per_call("executor.build"),
        "executor.busy_s": busy,
        "executor.calls": timed_s("executor.run_many", "calls"),
        "executor.experiments": experiments,
        # The last campaign's merged ExecutionReport (workers included).
        "executor.convergence_hits": sum(r.convergence_hits for r in reports),
        "executor.slice_hits": sum(r.slice_hits for r in reports),
        "executor.us_per_experiment":
            1e6 * busy / experiments if experiments else 0.0,
        "executor.effective_cycles_per_s": effective,
        "executor.cycle_efficiency": effective / raw if raw else 0.0,
        "runner.self_s": timed_s("runner.scan", "self_s"),
        "journal.open_s": timed_s("journal.open"),
        "journal.write_s": timed_s("journal.write"),
        "journal.write_calls": timed_s("journal.write", "calls"),
        "journal.rows": timed_s("journal.write", "count"),
        "journal.read_s": timed_s("journal.read"),
        "journal.close_s": timed_s("journal.close"),
        "journal.file_mb": workload.journal_mb(),
        "compose.lookup_s": timed_s("compose.lookup"),
        "compose.store_s": timed_s("compose.store"),
        "compose.hits": timed_s("compose.lookup", "count"),
        "parallel.plan_s": timed_s("parallel.plan") if pool else 0.0,
        "parallel.shards":
            timed_s("parallel.plan", "count") if pool else 0.0,
        "parallel.first_result_s": first_result if pool else 0.0,
        "parallel.wait_s": timed_s("parallel.scan", "self_s"),
        "parallel.worker_cpu_s": cpu_children if pool else 0.0,
        "parallel.parent_cpu_s": cpu_self if pool else 0.0,
        # Share of the run's one vCPU (run.py pins the process tree)
        # that went to the workers; the rest is the parent's.
        "parallel.utilisation": cpu_children / wall if pool else 0.0,
        "dist.first_result_s": first_result if dist else 0.0,
        "dist.encode_s": timed_s("dist.encode"),
        "dist.decode_s": timed_s("dist.decode"),
        "dist.frames": (timed_s("dist.encode", "calls")
                        + timed_s("dist.decode", "calls")),
        "dist.frame_mb": (timed_s("dist.encode", "count")
                          + timed_s("dist.decode", "count")) / 1e6,
        "dist.leases": timed_s("dist.lease", "calls"),
        "dist.coordinator_cpu_s": cpu_self if dist else 0.0,
        "dist.worker_cpu_s": cpu_children if dist else 0.0,
        "database.csv_s": timed_s("database.csv"),
        "database.csv_mb": workload.csv.stat().st_size / 1e6,
        "metrics.report_s": timed_s("metrics.report"),
        "trace.coverage_frac":
            sum(tracer.covered(*window) for window in windows) / wall,
        "trace.overhead_frac": spans * tracer.span_cost() / wall,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--mode", choices=("setup", "run", "pins"),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--t0", type=float, default=T_PYTHON,
                        help="the spawning process's time.perf_counter()")
    args = parser.parse_args(argv)
    names, domain, transport = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from trace import Tracer

        tracer = Tracer()
        tracer.install()
    if transport == "sweep":
        workload = Sweep(names, domain, transport, args.dir, seed=args.seed)
    else:
        # Pins are generated from serial scans, so every run of the pool
        # and the fabric checks transport equivalence against them.
        workload = Scan(names, domain,
                        "serial" if args.mode == "pins" else transport,
                        args.dir)
    workload.setup()
    # Clock readings, not durations: the parent holds the host-speed
    # samples and scales every interval by the speed it ran at.
    out = {"spawned": args.t0, "ready": time.perf_counter(),
           "imports": [T_PYTHON, T_IMPORTED]}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    regions = workload.run()
    if args.mode == "pins":
        check_anchor()
        print(json.dumps({args.workload: workload.pins()}))
        return 0
    pins = json.loads((HERE / "pins.json").read_text())[args.workload]
    attempted, failed = workload.verify(pins)
    usage = (resource.getrusage(resource.RUSAGE_SELF),
             resource.getrusage(resource.RUSAGE_CHILDREN))
    # One campaign on W1-W3; on W4 the 16 re-sweeps, the checks between
    # them left out.  Every re-sweep classifies what the last one did.
    out.update(
        attempted=attempted, failed=failed,
        regions=[[region.start, region.end, region.cpu + region.children]
                 for region in regions],
        experiments=len(regions) * sum(scan.experiments_conducted
                                       for scan in workload.scans),
        peak_rss_mb=max(u.ru_maxrss for u in usage) / 1024.0)
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = layer_metrics(tracer, workload, regions)
        tracer.write_jsonl(args.dir / "spans.jsonl")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
