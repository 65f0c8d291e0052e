"""The paper's weight identities, exactly, in every fault domain.

Pitfall 1 is avoided only if every raw fault-space coordinate is
counted once: each live class stands for its data lifetime times its
experiments' slot weights, the dead classes for the rest.  These grid
properties hold that over all six domains and several micro programs,
each scanned in process, and one program per domain also scanned by
two forked fabric workers into a journal and then resumed from that
journal's sections (both equal to the in-process scan):

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

#: The routes a scan takes: in process; on two forked fabric workers
#: into a journal; and resumed from that journal, nothing executed.
ROUTES = ("in-process", "fabric", "resumed")

_SCANS: dict = {}


@pytest.fixture(scope="module")
def journals(tmp_path_factory):
    return tmp_path_factory.mktemp("journals")


def _scan(program: str, domain: str, route: str, journals):
    """The complete scan of one grid cell, computed once per module; a
    fabric or resumed scan is checked against the in-process one."""
    key = (program, domain, route)
    if key in _SCANS:
        return _SCANS[key]
    golden = record_golden(PROGRAMS[program]())
    if route == "in-process":
        result = run_full_scan(golden, domain=domain)
    else:
        journal = journals / f"{program}-{domain}.sqlite"
        if route == "resumed":
            _scan(program, domain, "fabric", journals)
        result = run_full_scan(golden, domain=domain, jobs=2,
                               journal=journal)
        report = result.execution
        assert result == _scan(program, domain, "in-process", journals)
        assert (report.executed, report.resumed) == (
            (0, report.total_units) if route == "resumed"
            else (report.total_units, 0))
    _SCANS[key] = result
    return result


#: The program each domain's fabric and resumed scans run.
FABRIC = dict(zip(sorted(DOMAINS), sorted(PROGRAMS) * 2))

grid = pytest.mark.parametrize(
    "program, domain, route",
    [pytest.param(program, domain, "in-process", id=f"{program}-{domain}")
     for domain in sorted(DOMAINS) for program in sorted(PROGRAMS)]
    + [pytest.param(program, domain, route,
                    id=f"{program}-{domain}-{route}")
       for domain, program in FABRIC.items() for route in ROUTES[1:]])


@grid
def test_live_class_weights_and_the_dead_weight_are_w(program, domain, route,
                                                      journals):
    result = _scan(program, domain, route, journals)
    domain = result.domain
    partition = result.partition
    live = sum(interval.length
               * sum(domain.experiment_slot_weights(interval))
               for interval in partition.live_classes())
    assert live + partition.known_no_effect_weight \
        == domain.fault_space(result.golden).size \
        == result.fault_space_size


@grid
def test_weighted_counts_of_a_complete_scan_are_w(program, domain, route,
                                                  journals):
    result = _scan(program, domain, route, journals)
    assert result.execution.complete
    assert sum(result.weighted_counts().values()) == result.fault_space_size


@grid
def test_the_failure_attribution_sums_to_f(program, domain, route,
                                           journals):
    result = _scan(program, domain, route, journals)
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


def test_the_grid_holds_failures_in_every_domain(journals):
    """The attribution identity is vacuous where ``F = 0``: each domain
    has a grid program that fails, and so does its fabric program."""
    for domain in DOMAINS:
        assert any(_scan(program, domain, "in-process",
                         journals).weighted_failure_count()
                   for program in PROGRAMS), domain
        assert _scan(FABRIC[domain], domain, "in-process",
                     journals).weighted_failure_count(), domain
