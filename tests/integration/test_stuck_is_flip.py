"""Stuck-at-until-write is the memory flip model plus a benign half.

At a memory coordinate ``(slot, byte, bit)`` the stuck-at domain runs
two experiments: the bit forced to 0 and the bit forced to 1, each
until the byte's next write.  One of the two forces the value the bit
already holds, which changes nothing; the other flips it, and the
flipped bit then stays as it is until that same write — what a flip
does.  So, coordinate by coordinate, the two stuck outcomes are the
memory outcome and "No Effect", on every engine; and over a pruned
scan every outcome but "No Effect" weighs the same in both domains,
while stuck's "No Effect" is memory's plus one memory fault space.

These tests compare outcomes only, so they hold however the stuck-at
domain is implemented.
"""

from collections import Counter

import pytest

from repro.campaign import ExecutorConfig, record_golden, run_brute_force
from repro.campaign import run_full_scan
from repro.campaign.outcomes import Outcome
from repro.programs import all_programs

#: Small enough to brute-force every coordinate in both domains.
BRUTE_PROGRAMS = ("hi", "counter", "guarded", "checksum", "memcopy")
#: Pruned scans, one hardened and one kernel program.
SCAN_PROGRAMS = ("guarded-sumdmr", "bin_sem2")


@pytest.fixture(scope="module")
def goldens():
    programs = all_programs()
    return {name: record_golden(programs[name]())
            for name in BRUTE_PROGRAMS + SCAN_PROGRAMS}


@pytest.mark.parametrize("engine", ["interp", "compiled"])
@pytest.mark.parametrize("name", BRUTE_PROGRAMS)
def test_each_coordinate_is_a_flip_and_a_no_effect(goldens, name, engine):
    golden = goldens[name]
    config = ExecutorConfig(engine=engine)
    flips = run_brute_force(golden, config=config, domain="memory").outcomes
    stuck = run_brute_force(golden, config=config, domain="stuck").outcomes
    assert len(stuck) == 2 * len(flips)
    pairs: dict = {}
    for coordinate, outcome in stuck.items():
        pairs.setdefault((coordinate.slot, coordinate.addr,
                          coordinate.bit & 7), []).append(outcome)
    for coordinate, outcome in flips.items():
        assert Counter(pairs[coordinate.slot, coordinate.addr,
                             coordinate.bit]) \
            == Counter([outcome, Outcome.NO_EFFECT]), (coordinate, engine)


@pytest.mark.parametrize("name", SCAN_PROGRAMS)
def test_each_outcome_weighs_the_same_in_a_pruned_scan(goldens, name):
    golden = goldens[name]
    flips = run_full_scan(golden, domain="memory")
    stuck = run_full_scan(golden, domain="stuck")
    flip_counts = flips.weighted_counts()
    stuck_counts = stuck.weighted_counts()
    assert stuck.fault_space_size == 2 * flips.fault_space_size
    assert stuck_counts.pop(Outcome.NO_EFFECT) \
        == flip_counts.pop(Outcome.NO_EFFECT) + flips.fault_space_size
    assert stuck_counts == flip_counts
    assert flips.weighted_failure_count() > 0
