"""The paper's weight identities, exactly, in every fault domain.

Pitfall 1 is avoided only if every raw fault-space coordinate is
counted once: each live class stands for its data lifetime times its
experiments' slot weights, the dead classes for the rest.  These grid
properties hold that over all six domains and several micro programs:

* the live classes' weights plus the known-benign weight are
  ``w = fault_space.size``;
* a complete scan's weighted counts sum to ``w``;
* the failure attribution by location sums to the failure count ``F``,
  and with no ``top`` it lists every failing location.

Every sum is of integers, so every comparison is exact.
"""

import pytest

from repro.analysis.report import failure_attribution
from repro.campaign import record_golden, run_full_scan
from repro.faultspace import DOMAINS
from repro.metrics import weighted_failure_count
from repro.programs import micro

PROGRAMS = {
    "counter": lambda: micro.counter(2),
    "memcopy": lambda: micro.memcopy(2),
    "checksum": lambda: micro.checksum_loop(1),
}

_SCANS: dict = {}


def _scan(program: str, domain: str):
    """The complete scan of one grid cell, computed once per module."""
    key = (program, domain)
    if key not in _SCANS:
        _SCANS[key] = run_full_scan(record_golden(PROGRAMS[program]()),
                                    domain=domain)
    return _SCANS[key]


grid = pytest.mark.parametrize(
    "program, domain",
    [(program, domain) for domain in sorted(DOMAINS)
     for program in sorted(PROGRAMS)])


@grid
def test_live_class_weights_and_the_dead_weight_are_w(program, domain):
    result = _scan(program, domain)
    domain = result.domain
    partition = result.partition
    live = sum(interval.length
               * sum(domain.experiment_slot_weights(interval))
               for interval in partition.live_classes())
    assert live + partition.known_no_effect_weight \
        == domain.fault_space(result.golden).size \
        == result.fault_space_size


@grid
def test_weighted_counts_of_a_complete_scan_are_w(program, domain):
    result = _scan(program, domain)
    assert result.execution.complete
    assert sum(result.weighted_counts().values()) == result.fault_space_size


@grid
def test_the_failure_attribution_sums_to_f(program, domain):
    result = _scan(program, domain)
    attribution = failure_attribution(result, top=None)
    failures = result.weighted_failure_count()
    assert sum(weight for _, weight in attribution) == failures
    assert weighted_failure_count(result).total == failures
    # Every failing location is listed, once, and none that never fails.
    label = result.domain.location_label(result.golden)
    failing = {label(result.domain.axis_of(interval))
               for interval, outcomes in result.class_records()
               if any(outcome.is_failure for outcome in outcomes)}
    assert sorted(name for name, _ in attribution) == sorted(failing)
    assert all(weight > 0 for _, weight in attribution)


def test_the_grid_holds_failures_in_every_domain():
    """The attribution identity is vacuous where ``F = 0``: each domain
    has a grid program that fails."""
    for domain in DOMAINS:
        assert any(_scan(program, domain).weighted_failure_count()
                   for program in PROGRAMS), domain
