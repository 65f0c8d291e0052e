"""Chaos soak: the fabric under deterministic fault injection.

A seeded :class:`ChaosPlan` (the test fixture in
``tests/campaign/chaos.py``) drops, duplicates, corrupts and delays
result frames on every worker while a full memcopy scan runs through
the real coordinator/worker TCP stack over loopback: three workers on
four shards.  Each soak must complete bit-for-bit identical to the
serial ground truth — the invariant the chaos layer exists to defend.

Seeds are fixed (7, 11, 13 on the memory domain, 7 on register), so
every run replays the same schedule.
"""

import socket
import threading

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


def _soak(golden, baseline, *, seed, domain):
    """One chaos soak: complete and bit-for-bit identical to serial."""
    plan = ChaosPlan(seed=seed, **RATES)
    sock = socket.create_server(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    coordinator = DistCoordinator(sock=sock, policy=POLICY, shards=4)
    thread = serve_in_thread(coordinator, golden, domain=domain,
                             keep_records=True)

    workers = []
    for index in range(WORKERS):
        worker = ChaosWorker("127.0.0.1", port, plan, name=f"w{index}",
                             reconnect_delay=0.05, max_reconnect_delay=0.3)
        worker_thread = threading.Thread(target=worker.run, daemon=True)
        worker_thread.start()
        workers.append(worker_thread)
    result = thread.join_result(300)
    for worker_thread in workers:
        worker_thread.join(10)

    execution = result.execution
    assert execution.complete, (domain, seed, execution.missing)
    assert result == baseline, (domain, seed)
    assert result.records == baseline.records, (domain, seed)


def test_chaos_soak_bit_identical():
    golden = record_golden(micro.memcopy(6))
    for domain, seeds in (("memory", MEMORY_SEEDS),
                          ("register", REGISTER_SEEDS)):
        baseline = run_full_scan(golden, keep_records=True,
                                 domain=domain)
        for seed in seeds:
            _soak(golden, baseline, seed=seed, domain=domain)
