"""Chaos-soak telemetry: the fabric under deterministic fault injection.

A seeded :class:`ChaosPlan` (the test fixture in
``tests/campaign/chaos.py``) drops, duplicates, corrupts and delays
result frames on every worker while a full memcopy scan runs through
the real coordinator/worker TCP stack over loopback.  Each soak is
checked bit-for-bit against the serial ground truth — the invariant the
chaos layer exists to defend — and its telemetry (events fired per
worker, integrity rejections, shard retries, wall-clock) is written to
repo-root ``BENCH_chaos_soak.json`` so CI can track how much abuse a
converging campaign absorbed, not just that it converged.

Seeds are fixed (7, 11, 13 on the memory domain, 7 on register) so the
artifact is comparable across commits: same seeds, same schedule, same
event counts — any drift in the telemetry is a code change, not noise.
"""

import socket
import threading
import time

from _bench_json import write_bench_json

from repro.campaign import RetryPolicy, record_golden, run_full_scan
from repro.campaign.dist import DistCoordinator
from repro.campaign.dist.coordinator import serve_in_thread
from repro.programs import micro
from tests.campaign.chaos import ChaosPlan, ChaosWorker

#: Snappy failure detection for loopback soaks.
POLICY = RetryPolicy(heartbeat=0.3, poll_interval=0.02, backoff=0.05,
                     max_retries=12)

#: Per-frame event probabilities — every worker misbehaves constantly.
RATES = dict(drop_rate=0.12, dup_rate=0.15, corrupt_rate=0.08,
             delay_rate=0.10, delay_seconds=0.005)

MEMORY_SEEDS = (7, 11, 13)
REGISTER_SEEDS = (7,)
WORKERS = 3
CROSSCHECK = 0.25


def _soak(golden, baseline, *, seed, domain):
    """One chaos soak; returns (telemetry row, wall-clock seconds)."""
    plan = ChaosPlan(seed=seed, **RATES)
    sock = socket.create_server(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    coordinator = DistCoordinator(
        golden, sock=sock, domain=domain, policy=POLICY, shards=4,
        crosscheck=CROSSCHECK)
    thread = serve_in_thread(coordinator, keep_records=True)

    spawned = []
    start = time.perf_counter()
    for index in range(WORKERS):
        worker = ChaosWorker("127.0.0.1", port, plan, name=f"w{index}",
                             reconnect_delay=0.05, max_reconnect_delay=0.3)
        worker_thread = threading.Thread(target=worker.run, daemon=True)
        worker_thread.start()
        spawned.append((worker, worker_thread))
    result = thread.join_result(300)
    elapsed = time.perf_counter() - start
    for _, worker_thread in spawned:
        worker_thread.join(10)

    # The soak invariant: complete and bit-for-bit identical to serial.
    execution = result.execution
    assert execution.complete, (domain, seed, execution.missing)
    assert result == baseline, (domain, seed)
    assert result.records == baseline.records, (domain, seed)

    fired: dict[str, int] = {}
    for worker, _ in spawned:
        for event, count in worker._chaos.fired.items():
            fired[event] = fired.get(event, 0) + count
    row = {
        "domain": domain,
        "seed": seed,
        "wall_clock_seconds": round(elapsed, 3),
        "total_units": execution.total_units,
        "chaos_events": dict(sorted(fired.items())),
        "integrity_rejected": execution.integrity_rejected,
        "crosschecked": execution.crosschecked,
        "crosscheck_mismatches": execution.crosscheck_mismatches,
        "shard_retries": execution.shard_retries,
        "workers": dict(execution.workers),
        "bit_identical_to_serial": True,
    }
    return row, elapsed


def test_chaos_soak_telemetry(output_dir):
    runs = []
    lines = [
        "chaos soak: deterministic fault injection over the dist fabric",
        f"rates={RATES}  crosscheck={CROSSCHECK}  workers={WORKERS}",
        "",
        f"{'domain':10s} {'seed':>4s} {'wall':>8s} {'events':>7s} "
        f"{'rejected':>8s} {'xchk':>5s} {'retries':>7s}",
        "-" * 54,
    ]
    for domain, seeds, program in (
            ("memory", MEMORY_SEEDS, micro.memcopy(6)),
            ("register", REGISTER_SEEDS, micro.memcopy(6))):
        golden = record_golden(program)
        baseline = run_full_scan(golden, keep_records=True,
                                 domain=domain)
        for seed in seeds:
            row, elapsed = _soak(golden, baseline, seed=seed,
                                 domain=domain)
            runs.append(row)
            lines.append(
                f"{domain:10s} {seed:4d} {elapsed:7.3f}s "
                f"{sum(row['chaos_events'].values()):7d} "
                f"{row['integrity_rejected']:8d} "
                f"{row['crosschecked']:5d} "
                f"{row['shard_retries']:7d}")

    lines += ["", "every run complete and bit-for-bit identical to "
                  "serial despite the abuse"]
    report = "\n".join(lines) + "\n"
    (output_dir / "chaos_soak.txt").write_text(report)
    print()
    print(report)

    write_bench_json("chaos_soak", {
        "rates": RATES,
        "crosscheck_fraction": CROSSCHECK,
        "workers": WORKERS,
        "runs": runs,
    })
