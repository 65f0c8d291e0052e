"""Ablation: SUM+DMR guard granularity ("access" vs. "op").

The hardened kernel re-checks protected objects before every member
access group by default (GOP style).  The cheaper alternative checks
once per operation, leaving larger unguarded windows.  This ablation
measures both the runtime cost and the protection quality difference on
a reduced bin_sem2 campaign.
"""

import pytest

from repro.campaign import record_golden, run_full_scan
from repro.kernel import KernelBuilder
from repro.metrics import weighted_failure_count


def build_pingpong(granularity):
    kb = KernelBuilder(n_threads=2, protect=True,
                       guard_granularity=granularity)
    kb.add_semaphore("go", initial=0)
    kb.add_semaphore("done", initial=0)
    kb.set_thread_body(0, [
        "addi r3, zero, 3",
        "m_loop:",
        "call go_post",
        "call done_wait",
        "li   r4, 'a'",
        "out  r4",
        "addi r3, r3, -1",
        "bnez r3, m_loop",
        "halt",
    ])
    kb.set_thread_body(1, [
        "w_loop:",
        "call go_wait",
        "call done_post",
        "j    w_loop",
    ])
    return kb.build(f"pingpong-{granularity}")


@pytest.fixture(scope="module")
def campaigns():
    return {gran: run_full_scan(record_golden(build_pingpong(gran)))
            for gran in ("access", "op")}


def test_ablation_guard_granularity_tradeoff(campaigns, output_dir):
    access = campaigns["access"]
    op = campaigns["op"]
    # Both granularities run the same ping-pong to the same output...
    assert access.golden.output == op.golden.output == b"aaa"
    # Per-access guarding costs cycles...
    assert access.golden.cycles > op.golden.cycles
    # ...but the failure *rate* per fault-space coordinate is lower
    # (tighter windows); compare F normalized by fault-space size.
    access_rate = weighted_failure_count(access).total \
        / access.fault_space_size
    op_rate = weighted_failure_count(op).total / op.fault_space_size
    assert access_rate < op_rate
    (output_dir / "ablation_guards.txt").write_text(
        "Guard granularity ablation (protected ping-pong)\n"
        f"per-access: Δt={access.golden.cycles}, "
        f"F={weighted_failure_count(access).total:.0f}, "
        f"failure rate {access_rate:.4f}\n"
        f"per-op:     Δt={op.golden.cycles}, "
        f"F={weighted_failure_count(op).total:.0f}, "
        f"failure rate {op_rate:.4f}\n")
