"""End-to-end campaign benchmark: one command, four workloads.

    python3 benchmarks/e2e/run.py --workload NAME --seed S \
        --seconds N --trace 0|1
    python3 benchmarks/e2e/run.py --aa N      # A/A noise check

All load is generated from this process.  Every measurement runs in a
fresh child interpreter (``child.py``) that drives the public campaign
API the CLI drives; this parent spawns the children, samples the speed
of the vCPU they share with it while they run, scales their clock
readings to reference speed, aggregates and prints.
See README.md for what each metric and workload means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CHILD = HERE / "child.py"
WORK = HERE / ".run"  # per-run temp dirs live here (inside the checkout)

#: The contract: workload names, metric names and units, bounds.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(entry["name"] for entry in SPEC["workloads"])
UNITS = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
#: Set-up-only children per run, besides the timed child's own set-up.
#: Half run before the timed child and half after.
SETUP_SAMPLES = 4
CHILD_TIMEOUT = 170.0
#: A reference second is the CPU time in which the host runs this many
#: calibration cells, whatever it takes the host to run them.
CELLS_PER_REFERENCE_SECOND = 1000
CELL_CYCLES = 5000    # ~1 ms a cell on the host this was built on
SAMPLE_PERIOD = 0.1   # seconds between host-speed samples
SAMPLE_CELLS = 3      # cells per sample


class Cell:
    """The calibration cell: a miniature register machine in the shape
    of the repo's interpreters (a ROM of bound methods over list
    registers and bytearray RAM), running a fixed pseudo-random
    program.  It lives here so that nothing under ``src/`` can change
    its speed; measured next to a slice of a real campaign it tracked
    the campaign's slow-downs best of the cells tried (README.md)."""

    ROM_SIZE = 97

    def __init__(self):
        ops = (self.add, self.xor, self.load, self.store, self.branch,
               self.out)
        rng = random.Random(7)
        self.rom = [(ops[rng.randrange(len(ops))], rng.randrange(16),
                     rng.randrange(16), rng.randrange(1024))
                    for _ in range(self.ROM_SIZE)]

    def add(self, a, b, imm):
        self.regs[a] = (self.regs[b] + imm) & 0xFFFFFFFF

    def xor(self, a, b, imm):
        self.regs[a] ^= self.regs[b] | imm

    def load(self, a, b, imm):
        self.regs[a] = self.ram[(self.regs[b] + imm) & 1023]

    def store(self, a, b, imm):
        self.ram[(self.regs[b] + imm) & 1023] = self.regs[a] & 255

    def branch(self, a, _b, imm):
        if self.regs[a] & 1:
            self.pc = imm % self.ROM_SIZE

    def out(self, a, _b, _imm):
        if len(self.serial) < 64:
            self.serial.append(self.regs[a] & 255)

    def run(self) -> int:
        self.regs, self.ram = [0] * 16, bytearray(1024)
        self.serial, self.pc = bytearray(), 0
        rom, size = self.rom, self.ROM_SIZE
        for _ in range(CELL_CYCLES):
            op, a, b, imm = rom[self.pc]
            self.pc = (self.pc + 1) % size
            op(a, b, imm)
        return hash((tuple(self.regs), bytes(self.ram), bytes(self.serial)))


class HostSpeed:
    """Speed of the vCPU a run is pinned to, sampled while it runs.

    The host slows a vCPU by up to 1.8x for seconds to minutes at a
    time (README.md); a cell run on the same vCPU slows with it.  Each
    sample is ``(clock reading, seconds per cell)`` and stands for the
    time up to half-way to its neighbours.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.cell = Cell()
        self.samples: list[tuple[float, float]] = []

    def cell_seconds(self, cells: int = SAMPLE_CELLS) -> float:
        """Mean CPU seconds per cell: CPU time, so that being pre-empted
        by the child's processes on the same vCPU is not read as speed."""
        start = time.thread_time()
        for _ in range(cells):
            self.cell.run()
        return (time.thread_time() - start) / cells

    def sample(self) -> None:
        start = time.perf_counter()
        seconds = self.cell_seconds()
        self.samples.append(((start + time.perf_counter()) / 2, seconds))

    def pin_to_fastest(self) -> None:
        """Pin this process, and every child it spawns from now on, to
        the allowed vCPU that is fastest at the moment."""
        speeds = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speeds.append((self.cell_seconds(2 * SAMPLE_CELLS), cpu))
        os.sched_setaffinity(0, {min(speeds)[1]})

    def reference_seconds(self, since: float, until: float) -> float:
        """``[since, until]`` in reference seconds: every stretch of it
        divided by what a reference second's cells took at the time."""
        total = 0.0
        last = len(self.samples) - 1
        for index, (at, seconds) in enumerate(self.samples):
            lower = (float("-inf") if index == 0
                     else (self.samples[index - 1][0] + at) / 2)
            upper = (float("inf") if index == last
                     else (at + self.samples[index + 1][0]) / 2)
            overlap = min(upper, until) - max(lower, since)
            if overlap > 0:
                total += overlap / (seconds * CELLS_PER_REFERENCE_SECOND)
        return total

    def median_cell(self, since: float, until: float) -> float:
        return statistics.median(seconds for at, seconds in self.samples
                                 if since <= at <= until)


def host_block(seed: int) -> dict:
    def version(module):
        try:
            return __import__(module).__version__
        except ImportError:
            return "absent"

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    fstype = "unknown"
    try:
        best = ""
        for line in Path("/proc/mounts").read_text().splitlines():
            _dev, mount, kind = line.split()[:3]
            if str(HERE).startswith(mount) and len(mount) > len(best):
                best, fstype = mount, kind
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        sha = "none"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "tmp_fs": fstype, "git_sha": sha, "seed": seed}


def run_child(host: HostSpeed, run_dir: Path, workload: str, mode: str, *,
              seed: int, trace: int = 0) -> dict:
    """Run ``child.py`` in a fresh interpreter on the vCPU that is
    fastest now, sampling that vCPU's speed until the child ends;
    return the child's JSON report.

    The child leads its own process group, which is killed afterwards
    so pool or fabric workers of a failed campaign cannot outlive the
    run.  ``--t0`` carries this process's clock (``perf_counter`` is
    system-wide) so set-up time includes interpreter start-up.
    """
    work = Path(tempfile.mkdtemp(prefix=mode + "-", dir=run_dir))
    # A fixed hash seed: set and dict orders, and so the work done, are
    # the same in every child and every pool or fabric worker.
    env = dict(os.environ, TMPDIR=str(work), PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    # Set-up is measured as users pay it, with the byte code cached:
    # only the first child in a checkout compiles the package.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    host.pin_to_fastest()
    host.sample()
    command = [sys.executable, str(CHILD), "--workload", workload,
               "--mode", mode, "--seed", str(seed), "--trace", str(trace),
               "--dir", str(work), "--t0", repr(time.perf_counter())]
    deadline = time.monotonic() + CHILD_TIMEOUT
    with open(work / "report.json", "w") as out:
        proc = subprocess.Popen(command, stdout=out, env=env, cwd=work,
                                start_new_session=True)
    try:
        while proc.poll() is None and time.monotonic() < deadline:
            time.sleep(SAMPLE_PERIOD)
            host.sample()
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: {mode} child exited with status "
                         f"{proc.returncode}")
    report = json.loads(
        (work / "report.json").read_text().strip().splitlines()[-1])
    report["dir"] = work
    return report


def run_workload(workload: str, *, seed: int, trace: int) -> dict:
    """One run: set-up samples around one timed (or traced) child."""
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    host = HostSpeed()
    # The warm sweep's set-up is its cold sweep: one long sample taken
    # by the timed child itself, no set-up-only children.
    extra = 0 if workload == "sweep_warm_journal" else SETUP_SAMPLES
    try:
        setups = [run_child(host, run_dir, workload, "setup", seed=seed)
                  for _ in range(extra // 2)]
        timed = run_child(host, run_dir, workload, "run", seed=seed,
                          trace=trace)
        if trace:
            shutil.move(timed["dir"] / "spans.jsonl",
                        WORK / f"{workload}.spans.jsonl")
        setups += [run_child(host, run_dir, workload, "setup", seed=seed)
                   for _ in range(extra - extra // 2)]
    finally:
        os.sched_setaffinity(0, host.cpus)
        shutil.rmtree(run_dir, ignore_errors=True)
    samples = setups + [timed]
    regions = timed["regions"]
    raw_wall = sum(end - start for start, end, _cpu in regions)
    wall = sum(host.reference_seconds(start, end)
               for start, end, _cpu in regions)
    # Reference seconds per clock second over the timed region(s).
    scale = wall / raw_wall
    cell = host.median_cell(regions[0][0], regions[-1][1])
    result = {"correct": timed["failed"] == 0,
              "attempted": timed["attempted"], "failed": timed["failed"],
              "clock": f"wall {raw_wall:.3f} s, calibration cell "
                       f"{1e3 * cell:.3f} ms"}
    if trace:
        # End-to-end numbers never come from a wrapped process.
        values = {
            name: value * {"s": scale, "us": scale, "1/s": 1 / scale}.get(
                UNITS[name], 1.0)
            for name, value in timed["layers"].items()}
        values.update({
            "host.spin_s": cell,
            "wall.raw_s": raw_wall,
            "setup.import_s": statistics.median(
                host.reference_seconds(*s["imports"]) for s in samples),
            "setup.raw_s": statistics.median(
                s["ready"] - s["spawned"] for s in samples),
            "setup.samples": len(samples)})
    else:
        values = {
            "wall_s": wall,
            "cpu_s": scale * sum(cpu for _start, _end, cpu in regions),
            "experiments_per_s": timed["experiments"] / wall,
            "setup_s": statistics.median(
                host.reference_seconds(s["spawned"], s["ready"])
                for s in samples),
            "peak_rss_mb": timed["peak_rss_mb"]}
    result["metrics"] = {
        metric["name"]: {"value": values[metric["name"]],
                         "unit": metric["unit"]}
        for metric in SPEC["per_layer" if trace else "end_to_end"]}
    return result


def report(workload: str, host: dict, result: dict) -> None:
    """Every metric by name with its unit, then the one-line JSON."""
    print(f"# {workload}  host: " + "  ".join(
        f"{key}={value}" for key, value in host.items()))
    for name, metric in result["metrics"].items():
        print(f"{workload:24s} {name:34s} {metric['value']:14.6g} "
              f"{metric['unit']}")
    print(f"{workload:24s} operations attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}  "
          f"clock: {result.pop('clock')}")
    print(json.dumps(result), flush=True)


def aa_check(rounds: int, workloads, *, seed: int) -> int:
    """Run the suite 2N times labelled A, B, A, B...; compare the sides.

    Identical code on both sides, so any gap is the benchmark's own
    noise: the check the driver applies to a new benchmark.
    """
    bounds = {metric["name"]: metric["bound"]
              for metric in SPEC["end_to_end"]}
    sides: dict = {"A": {}, "B": {}}
    for index in range(2 * rounds):
        side = "AB"[index % 2]
        for workload in workloads:
            result = run_workload(workload, seed=seed + index, trace=0)
            if not result["correct"]:
                raise SystemExit(f"{workload}: incorrect output in A/A run")
            for name, metric in result["metrics"].items():
                sides[side].setdefault((workload, name), []).append(
                    metric["value"])
            print(f"# A/A run {index + 1}/{2 * rounds} side {side} "
                  f"{workload} done", file=sys.stderr, flush=True)
    bad = 0
    print(f"{'workload':24s} {'metric':18s} {'A med [q1..q3]':>34s} "
          f"{'B med [q1..q3]':>34s} {'spread':>7s} {'gap':>7s} {'bound':>6s}")
    for (workload, name), a_values in sides["A"].items():
        b_values = sides["B"][(workload, name)]
        bound = bounds[name]
        cells, spread = [], 0.0
        for values in (a_values, b_values):
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (values[0],) * 3)
            median = statistics.median(values)
            cells.append(f"{median:12.5g} [{q1:.5g}..{q3:.5g}]")
            spread = max(spread, (q3 - q1) / median)
        a_med, b_med = statistics.median(a_values), statistics.median(b_values)
        gap = abs(b_med - a_med) / a_med
        # A side that spreads wider than the bound cannot resolve a
        # change of the size of the bound on this host at this time.
        flag = ("  EXCEEDS" if gap > bound
                else "  UNRESOLVED" if spread > bound else "")
        bad += bool(flag)
        print(f"{workload:24s} {name:18s} {cells[0]:>34s} {cells[1]:>34s} "
              f"{spread:7.4f} {gap:7.4f} {bound:6.2f}{flag}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"],
                        help="accepted for the driver; sizes are fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", type=int, metavar="N", default=0,
                        help="A/A check: run the suite 2N times")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}: run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    workloads = (args.workload,) if args.workload else WORKLOADS
    if args.aa:
        return aa_check(args.aa, workloads, seed=args.seed)
    host = host_block(args.seed)
    status = 0
    for workload in workloads:
        result = run_workload(workload, seed=args.seed, trace=args.trace)
        report(workload, host, result)
        status = status or (0 if result["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
