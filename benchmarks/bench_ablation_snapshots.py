"""Ablation: snapshot fast-forward vs. naive re-execution in campaigns.

DESIGN.md calls this design choice out: executing experiments in
ascending injection-slot order and forking the pristine machine from
snapshots turns the pre-injection cost from O(experiments × Δt) into
O(Δt).  This bench runs both paths on the same campaign and checks
that they conduct every experiment and agree exactly.
"""

import pytest

from repro.campaign import (
    ExperimentExecutor,
    record_golden,
    run_full_scan,
)
from repro.programs import micro


@pytest.fixture(scope="module")
def golden():
    return record_golden(micro.memcopy(12))


@pytest.fixture(scope="module")
def partition(golden):
    return golden.partition()


def _scan(golden, partition, use_snapshots):
    executor = ExperimentExecutor(golden, use_snapshots=use_snapshots)
    return run_full_scan(golden, partition=partition, executor=executor)


def test_ablation_paths_agree_exactly(golden, partition):
    fast = _scan(golden, partition, True)
    slow = _scan(golden, partition, False)
    assert fast.experiments_conducted == partition.experiment_count
    assert slow.experiments_conducted == partition.experiment_count
    assert fast.class_outcomes == slow.class_outcomes
