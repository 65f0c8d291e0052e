"""Ground-truth parity grid for the new fault-model family.

For every new domain (burst2/burst4 multi-bit, stuck-at-until-write,
pc) and each of two programs, the exhaustive brute-force scan over the
*raw* fault space is the ground truth; the pruned full scan must agree
coordinate for coordinate and in its weighted totals.  This is the
Pitfall-1 soundness proof, executed: equivalence-class pruning may
never change a single outcome, only skip redundant executions.
"""

import pytest

from repro.campaign import (
    record_golden,
    run_brute_force,
    run_full_scan,
    run_sampling,
)
from repro.faultspace import (
    BURST2,
    BURST4,
    DOMAINS,
    PC,
    STUCK,
    BurstFaultSpace,
    PCFaultCoordinate,
    PCFaultSpace,
    StuckAtCoordinate,
    StuckAtFaultSpace,
    burst_positions,
    get_domain,
)
from repro.programs import hi, micro

NEW_DOMAINS = ("burst2", "burst4", "stuck", "pc")
PROGRAMS = {
    "hi": hi.baseline,
    "counter": lambda: micro.counter(2),
}


@pytest.fixture(scope="module")
def goldens():
    return {name: record_golden(thunk())
            for name, thunk in PROGRAMS.items()}


class TestBruteForceParity:
    """Exhaustive ground truth vs. pruned scan, per domain × program."""

    @pytest.mark.parametrize("domain", NEW_DOMAINS)
    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    def test_pruned_scan_matches_ground_truth(self, goldens, domain,
                                              program):
        golden = goldens[program]
        brute = run_brute_force(golden, domain=domain)
        scan = run_full_scan(golden, domain=domain)
        space = get_domain(domain).fault_space(golden)
        assert len(brute.outcomes) == space.size
        for coord, outcome in brute.outcomes.items():
            assert scan.outcome_of(coord) == outcome, coord

    @pytest.mark.parametrize("domain", NEW_DOMAINS)
    @pytest.mark.parametrize("program", sorted(PROGRAMS))
    def test_weighted_counts_match_ground_truth(self, goldens, domain,
                                                program):
        golden = goldens[program]
        brute = run_brute_force(golden, domain=domain)
        scan = run_full_scan(golden, domain=domain)
        assert brute.counts() == scan.weighted_counts()
        assert sum(scan.weighted_counts().values()) \
            == scan.fault_space_size

    @pytest.mark.parametrize("domain", NEW_DOMAINS)
    def test_sampling_outcomes_match_ground_truth(self, goldens, domain):
        golden = goldens["counter"]
        brute = run_brute_force(golden, domain=domain)
        result = run_sampling(golden, 60, seed=11, domain=domain)
        for sample, outcome in result.samples:
            assert brute.outcomes[sample.coordinate] == outcome, sample


class TestBurstGeometry:
    def test_burst_positions(self):
        assert burst_positions(2) == 7
        assert burst_positions(4) == 5
        assert burst_positions(8) == 1
        with pytest.raises(ValueError):
            burst_positions(1)
        with pytest.raises(ValueError):
            burst_positions(9)

    def test_space_size_scales_with_positions(self):
        base = BurstFaultSpace(cycles=5, ram_bytes=3, width=2)
        assert base.size == 5 * 3 * 7
        wide = BurstFaultSpace(cycles=5, ram_bytes=3, width=4)
        assert wide.size == 5 * 3 * 5

    def test_coordinate_roundtrip(self):
        space = BurstFaultSpace(cycles=4, ram_bytes=2, width=2)
        for index in range(space.size):
            coord = space.coordinate(index)
            assert space.contains(coord)
            assert space.index(coord) == index
            assert 0 <= coord.bit <= 8 - 2

    def test_inject_flips_adjacent_bits(self, goldens):
        golden = goldens["counter"]
        from repro.isa.cpu import Machine

        machine = Machine(golden.program)
        machine.run_to_cycle(1)
        before = bytes(machine.ram)
        coord = BURST2.fault_space(golden).coordinate(0)
        BURST2.inject(machine, coord)
        after = bytes(machine.ram)
        diff = [(i, a ^ b) for i, (a, b) in enumerate(zip(before, after))
                if a != b]
        assert len(diff) == 1
        addr, mask = diff[0]
        assert addr == coord.addr
        assert mask == 0b11 << coord.bit

    def test_partition_weights_cover_space(self, goldens):
        for domain in (BURST2, BURST4):
            partition = domain.build_partition(goldens["counter"])
            space = domain.fault_space(goldens["counter"])
            assert partition.total_weight == space.size


class TestStuckAtGeometry:
    def test_space_has_16_experiments_per_byte(self):
        space = StuckAtFaultSpace(cycles=3, ram_bytes=2)
        assert space.size == 3 * 2 * 16

    def test_coordinate_roundtrip_and_value_split(self):
        space = StuckAtFaultSpace(cycles=2, ram_bytes=1)
        for index in range(space.size):
            coord = space.coordinate(index)
            assert space.index(coord) == index
            assert coord.bitpos == coord.bit & 7
            assert coord.value == coord.bit >> 3
            assert coord.value in (0, 1)

    def test_coordinate_validates_bit(self):
        with pytest.raises(ValueError):
            StuckAtCoordinate(slot=1, addr=0, bit=16)

    def test_partition_weights_cover_space(self, goldens):
        partition = STUCK.build_partition(goldens["counter"])
        space = STUCK.fault_space(goldens["counter"])
        assert partition.total_weight == space.size

    def test_domain_flags(self):
        assert STUCK.persistent


class TestPCGeometry:
    def test_space_is_32_bits_per_slot(self):
        space = PCFaultSpace(cycles=3)
        assert space.size == 3 * 32
        for index in range(space.size):
            coord = space.coordinate(index)
            assert space.index(coord) == index

    def test_partition_classes_cover_space_exactly(self, goldens):
        golden = goldens["counter"]
        partition = PC.build_partition(golden)
        space = PC.fault_space(golden)
        assert partition.total_weight == space.size
        assert partition.known_no_effect_weight == 0
        # Every class has exactly one representative experiment.
        for interval in partition.live_classes():
            assert len(interval.experiments()) == 1
            assert PC.experiment_count(interval) == 1
            weights = PC.experiment_slot_weights(interval)
            assert weights == (interval.weight_bits,)

    def test_grouped_illegal_class_members_share_outcome(self, goldens):
        """The grouped class's soundness: every member of a slot's
        illegal-pc class must brute-force to the same outcome."""
        golden = goldens["counter"]
        brute = run_brute_force(golden, domain="pc")
        partition = PC.build_partition(golden)
        for interval in partition.live_classes():
            outcomes = {brute.outcomes[PCFaultCoordinate(interval.slot, b)]
                        for b in interval.members}
            assert len(outcomes) == 1, interval

    def test_domain_flags(self):
        assert PC.control_hazard


class TestDomainRegistryHooks:
    """The experiment-hook contract every registered domain must meet."""

    @pytest.mark.parametrize("name", sorted(DOMAINS))
    def test_slot_weights_sum_to_interval_weight(self, goldens, name):
        domain = DOMAINS[name]
        partition = domain.build_partition(goldens["counter"])
        for interval in partition.live_classes():
            weights = domain.experiment_slot_weights(interval)
            assert len(weights) == domain.experiment_count(interval)
            assert interval.length * sum(weights) == interval.weight_bits

    @pytest.mark.parametrize("name", sorted(DOMAINS))
    def test_experiment_index_roundtrip(self, goldens, name):
        domain = DOMAINS[name]
        partition = domain.build_partition(goldens["counter"])
        for interval in partition.live_classes():
            for idx, coord in enumerate(interval.experiments()):
                assert domain.experiment_index(interval, coord) == idx
                rebuilt = domain.experiment_coordinate(interval, idx)
                assert rebuilt == coord

    @pytest.mark.parametrize("name", sorted(DOMAINS))
    def test_interval_coordinate_enumerates_whole_weight(self, goldens,
                                                         name):
        domain = DOMAINS[name]
        partition = domain.build_partition(goldens["counter"])
        for interval in partition.live_classes()[:6]:
            seen = set()
            for offset in range(interval.weight_bits):
                coord = domain.interval_coordinate(interval, offset)
                assert interval.first_slot <= coord.slot \
                    <= interval.last_slot
                seen.add((coord.slot, coord.bit))
            assert len(seen) == interval.weight_bits
