"""Chaos soak: the fabric under deterministic fault injection.

A seeded :class:`ChaosPlan` (the test fixture in
``tests/campaign/chaos.py``) drops, duplicates, corrupts and delays
result frames on every worker while a full memcopy scan runs through
the real coordinator/worker stack, each worker a thread on its own
socket pair (``tests/campaign/fabric.py``): three workers, one shard
each (a campaign this small is planned a shard per worker).  A worker
a drop ends is re-served with its chaos state.
Each soak must complete bit-for-bit identical to the serial ground
truth — the invariant the chaos layer exists to defend.

Seeds are fixed (7, 11, 13 on the memory domain, 7 on register), so
every run replays the same schedule.
"""

from repro.campaign import RetryPolicy, record_golden, run_full_scan
from repro.campaign.dist import DistCoordinator
from repro.programs import micro
from tests.campaign.chaos import ChaosPlan
from tests.campaign.fabric import ThreadFleet, serve_in_thread

#: Snappy failure detection for soaks.
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
    fleet = ThreadFleet()
    for index in range(WORKERS):
        fleet.add(f"w{index}", plan)
    coordinator = DistCoordinator(fleet, policy=POLICY, shards=4)
    result = serve_in_thread(coordinator, golden, domain=domain,
                             keep_records=True).join_result(300)
    fleet.join()
    assert not fleet.errors, (domain, seed, fleet.errors)

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
