"""Chaos soak: the fabric under deterministic worker deaths.

A seeded :class:`ChaosPlan` (the test fixture in
``tests/campaign/chaos.py``) kills every worker again and again, as it
executes units, while a full memcopy scan runs through the real
coordinator/worker stack, each worker a thread on its own socket pair
(``tests/campaign/fabric.py``): three workers, one shard each (a
campaign this small is planned a shard per worker), sending a window
every two units.  A worker a death ends is re-served with its chaos
state, and its lease goes back to pending at its hang-up.  Each soak
must complete bit-for-bit identical to the serial ground truth — the
invariant the chaos layer exists to defend.

Seeds are fixed (7, 11, 13 on the memory domain, 7 on register), so
every run replays the same schedule.
"""

import repro.campaign.dist.worker as worker_mod
from repro.campaign import record_golden, run_full_scan
from repro.campaign.dist import DistCoordinator
from repro.programs import micro
from tests.campaign.chaos import ChaosPlan
from tests.campaign.fabric import ThreadFleet, serve_in_thread

#: Re-grants per shard: far past the default, since the soak *wants* to
#: burn attempts.
MAX_RETRIES = 12

#: Per-unit death rates by domain — every worker dies constantly.
RATES = {"memory": 0.2, "register": 0.05}

MEMORY_SEEDS = (7, 11, 13)
REGISTER_SEEDS = (7,)
WORKERS = 3


def _soak(golden, baseline, *, seed, domain):
    """One chaos soak: complete and bit-for-bit identical to serial."""
    plan = ChaosPlan(seed=seed, kill_rate=RATES[domain])
    fleet = ThreadFleet()
    for index in range(WORKERS):
        fleet.add(f"w{index}", plan)
    coordinator = DistCoordinator(fleet, max_retries=MAX_RETRIES, shards=4)
    result = serve_in_thread(coordinator, golden, domain=domain,
                             keep_records=True).join_result(300)
    fleet.join()
    assert not fleet.errors, (domain, seed, fleet.errors)
    assert fleet.deaths, (domain, seed)

    execution = result.execution
    assert execution.complete, (domain, seed, execution.missing)
    assert result == baseline, (domain, seed)
    assert result.records == baseline.records, (domain, seed)


def test_chaos_soak_bit_identical(monkeypatch):
    monkeypatch.setattr(worker_mod, "WINDOW_CLASSES", 2)
    golden = record_golden(micro.memcopy(6))
    for domain, seeds in (("memory", MEMORY_SEEDS),
                          ("register", REGISTER_SEEDS)):
        baseline = run_full_scan(golden, keep_records=True,
                                 domain=domain)
        for seed in seeds:
            _soak(golden, baseline, seed=seed, domain=domain)
