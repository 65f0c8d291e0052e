"""Distributed-fabric wall-clock: worker scaling and node-loss overhead.

Full def/use-pruned scans of the sync2 baseline run through the
fabric's forked local workers over loopback (``run_distributed_scan``),
at 1, 2 and 4 workers, each checked bit-for-bit against the serial
ground truth (same ``CampaignResult``, same CSV bytes).  A final chaos
run SIGKILLs one of two forked worker processes mid-campaign and
asserts the surviving fabric still converges to the identical result —
the robustness the fabric exists for, measured rather than assumed.

Human-readable report in ``output/dist_scan.txt``; machine-readable
perf trajectory in repo-root ``BENCH_dist_scan.json`` (uploaded by CI
as an artifact, stamped with git SHA + timestamp by the shared
``_bench_json`` writer).

Scale knobs (environment):

``REPRO_BENCH_DIST_SCALE=full``
    Paper-scale sync2 (items=10) instead of the quick default (items=2).
``REPRO_BENCH_DIST_WORKERS``
    Comma-separated worker counts (default: ``1,2,4``).

On a single-core container the fabric cannot exhibit scaling — worker
processes time-share one CPU — but the equality and chaos
assertions hold regardless, which is the point: correctness properties
must not depend on the machine being generous.
"""

import json
import multiprocessing
import os
import signal
import socket
import threading
import time

from _bench_json import write_bench_json

from repro.campaign import (
    RetryPolicy,
    export_class_results_csv,
    record_golden,
    run_full_scan,
)
from repro.campaign.dist import run_distributed_scan
from repro.campaign.dist import DistWorker
from repro.campaign.dist.coordinator import DistCoordinator, serve_in_thread
from repro.programs import micro, sync2

#: Snappy failure detection for loopback chaos runs.
POLICY = RetryPolicy(heartbeat=0.5, poll_interval=0.05, backoff=0.1)


def _full_scale() -> bool:
    return os.environ.get("REPRO_BENCH_DIST_SCALE") == "full"


def _worker_counts() -> list[int]:
    raw = os.environ.get("REPRO_BENCH_DIST_WORKERS")
    if raw:
        return [int(part) for part in raw.split(",") if part.strip()]
    return [1, 2, 4]


def test_dist_scan_scaling(output_dir, tmp_path):
    program = sync2.baseline() if _full_scale() else sync2.baseline(2)
    golden = record_golden(program)

    start = time.perf_counter()
    serial = run_full_scan(golden, keep_records=True)
    t_serial = time.perf_counter() - start
    serial_csv = tmp_path / "serial.csv"
    export_class_results_csv(serial, serial_csv)

    rows = [("serial", 1, t_serial, 1.0)]
    for workers in _worker_counts():
        start = time.perf_counter()
        dist = run_distributed_scan(golden, workers=workers,
                                    keep_records=True, policy=POLICY)
        elapsed = time.perf_counter() - start
        assert dist == serial, workers
        assert dist.records == serial.records, workers
        dist_csv = tmp_path / f"dist{workers}.csv"
        export_class_results_csv(dist, dist_csv)
        assert dist_csv.read_bytes() == serial_csv.read_bytes(), workers
        rows.append((f"workers={workers}", workers, elapsed,
                     t_serial / elapsed))

    live = len(serial.class_outcomes)
    lines = [
        f"distributed full scan of {program.name} "
        f"({'paper' if _full_scale() else 'quick'} scale)",
        f"Δt={golden.cycles} cycles, {live} live classes; every run "
        f"verified bit-for-bit against serial (result + CSV bytes)",
        "",
        f"{'engine':12s} {'workers':>7s} {'wall-clock':>11s} "
        f"{'speedup':>8s}",
        "-" * 42,
    ]
    for label, workers, elapsed, speedup in rows:
        lines.append(f"{label:12s} {workers:7d} {elapsed:10.3f}s "
                     f"{speedup:7.2f}x")
    report = "\n".join(lines) + "\n"
    (output_dir / "dist_scan.txt").write_text(report)
    print()
    print(report)

    write_bench_json("dist_scan", {
        "program": program.name,
        "golden_cycles": golden.cycles,
        "live_classes": live,
        "serial_seconds": round(t_serial, 3),
        "runs": [
            {"workers": workers,
             "wall_clock_seconds": round(elapsed, 3),
             "speedup": round(speedup, 2)}
            for _, workers, elapsed, speedup in rows[1:]
        ],
    })


def test_send_window_gate(monkeypatch):
    """Result frames are paid per send window, not per class:
    ``results`` frames ≤ classes / 8 + 2 × leases on a ``memcopy`` ×
    register scan (66 classes; a frame per class would be 66).

    A count, so it repeats exactly and needs no ratio floor; writes no
    ``BENCH_*.json``.  The lease term is what flushing before every
    ``lease_done`` costs — a window never spans two leases.
    """
    import repro.campaign.dist.coordinator as coordinator_mod

    golden = record_golden(micro.memcopy(6))
    serial = run_full_scan(golden, domain="register", keep_records=True)
    frames = {"results": 0, "lease_done": 0}
    real_read = coordinator_mod.read_frame

    async def counted(reader):
        frame = await real_read(reader)
        if frame is not None and frame.get("type") in frames:
            frames[frame["type"]] += 1
        return frame

    monkeypatch.setattr(coordinator_mod, "read_frame", counted)
    sock = socket.create_server(("127.0.0.1", 0))
    coordinator = DistCoordinator(sock=sock, shards=4, policy=POLICY)
    thread = serve_in_thread(coordinator, golden, domain="register",
                             keep_records=True)
    worker = DistWorker("127.0.0.1", sock.getsockname()[1], name="w0")
    assert worker.run() == len(serial.class_outcomes)
    result = thread.join_result(120)
    assert result == serial
    assert result.records == serial.records
    classes, leases = len(serial.class_outcomes), frames["lease_done"]
    print(f"\nsend window on {golden.program.name} × register: "
          f"{frames['results']} results frames for {classes} classes "
          f"over {leases} leases")
    assert frames["results"] <= classes / 8 + 2 * leases


def test_merge_window_gate(monkeypatch, tmp_path):
    """The lease board is the coordinator's one duplicate filter: on a
    ``memcopy`` × register scan (66 classes), serving asks the journal
    no existence ``SELECT`` on ``class_results`` (one per window, or per
    class, would be a second filter), while the trace does see the
    classes written (the positive control), and ``result_digest`` runs
    once per class on each side — the worker stamps it, the coordinator
    re-derives it, nothing else does.

    Counts, from the journal connection's ``set_trace_callback``; writes
    no ``BENCH_*.json``.
    """
    import repro.campaign.dist.coordinator as coordinator_mod
    import repro.campaign.dist.worker as worker_mod
    from repro.campaign.journal import ExperimentJournal

    golden = record_golden(micro.memcopy(6))
    serial = run_full_scan(golden, domain="register", keep_records=True)
    statements: list[str] = []
    connect = ExperimentJournal._connect

    def traced(journal):
        conn = connect(journal)
        conn.set_trace_callback(statements.append)
        return conn

    monkeypatch.setattr(ExperimentJournal, "_connect", traced)
    frames = {"results": 0}
    real_read = coordinator_mod.read_frame

    async def counted(reader):
        frame = await real_read(reader)
        if frame is not None and frame.get("type") in frames:
            frames[frame["type"]] += 1
        return frame

    monkeypatch.setattr(coordinator_mod, "read_frame", counted)
    digests = {"worker": 0, "coordinator": 0}
    for side, module in (("worker", worker_mod),
                         ("coordinator", coordinator_mod)):
        def digest(key, run, side=side, real=module.result_digest):
            digests[side] += 1
            return real(key, run)

        monkeypatch.setattr(module, "result_digest", digest)
    sock = socket.create_server(("127.0.0.1", 0))
    coordinator = DistCoordinator(sock=sock, shards=4, policy=POLICY)
    thread = serve_in_thread(coordinator, golden, domain="register",
                             journal=tmp_path / "gate.sqlite",
                             keep_records=True)
    worker = DistWorker("127.0.0.1", sock.getsockname()[1], name="w0")
    assert worker.run() == len(serial.class_outcomes)
    result = thread.join_result(120)
    assert result == serial
    assert result.records == serial.records
    classes = len(serial.class_outcomes)
    selects = [sql for sql in statements
               if sql.lstrip().upper().startswith("SELECT")
               and "class_results" in sql and "outcome" not in sql]
    writes = [sql for sql in statements
              if sql.lstrip().upper().startswith("INSERT")
              and "class_results" in sql]
    print(f"\nmerge window on {golden.program.name} × register: "
          f"{len(selects)} existence SELECTs and {len(writes)} class "
          f"writes for {frames['results']} results frames, {classes} "
          f"classes; result_digest calls {digests}")
    assert writes  # the trace sees the journal's statements
    assert selects == []
    assert digests == {"worker": classes, "coordinator": classes}


def test_dist_scan_survives_sigkill(output_dir, tmp_path):
    """Two workers, one SIGKILLed mid-campaign: identical CSV anyway."""
    program = sync2.baseline() if _full_scale() else sync2.baseline(2)
    golden = record_golden(program)
    serial = run_full_scan(golden, keep_records=True)
    serial_csv = tmp_path / "serial.csv"
    export_class_results_csv(serial, serial_csv)

    sock = socket.create_server(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    progressed = threading.Event()
    coordinator = DistCoordinator(sock=sock, policy=POLICY)
    thread = serve_in_thread(
        coordinator, golden, keep_records=True,
        progress=lambda done, total: progressed.set() if done >= 2
        else None)

    def spawn(name):
        proc = multiprocessing.get_context().Process(
            target=DistWorker("127.0.0.1", port, name=name).run)
        proc.start()
        return proc

    start = time.perf_counter()
    victim, survivor = spawn("victim"), spawn("survivor")
    try:
        assert progressed.wait(120), "no progress before the kill"
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(10)
        result = thread.join_result(600)
    finally:
        for proc in (victim, survivor):
            proc.join(10)
            if proc.exitcode is None:
                proc.kill()
                proc.join()
    elapsed = time.perf_counter() - start

    assert victim.exitcode == -signal.SIGKILL
    assert result == serial
    assert result.execution.complete
    chaos_csv = tmp_path / "chaos.csv"
    export_class_results_csv(result, chaos_csv)
    assert chaos_csv.read_bytes() == serial_csv.read_bytes()

    report = (
        f"node-loss chaos on {program.name}: one of two workers "
        f"SIGKILLed mid-campaign\n"
        f"  wall-clock {elapsed:.3f}s, "
        f"{result.execution.shard_retries} shard retries, "
        f"workers={dict(result.execution.workers)}\n"
        f"  final CSV byte-identical to serial: yes\n")
    with (output_dir / "dist_scan.txt").open("a") as fh:
        fh.write("\n" + report)
    print()
    print(report)

    from _bench_json import REPO_ROOT

    artifact = REPO_ROOT / "BENCH_dist_scan.json"
    data = {}
    if artifact.exists():
        try:
            data = json.loads(artifact.read_text())
        except json.JSONDecodeError:
            data = {}
    data["chaos"] = {
        "wall_clock_seconds": round(elapsed, 3),
        "shard_retries": result.execution.shard_retries,
        "csv_byte_identical": True,
    }
    write_bench_json("dist_scan", data)
