"""Fault-domain abstraction: resolution, unified engine, parity.

These tests pin the tentpole contract of the unified campaign stack:
one engine, generic over :class:`~repro.faultspace.domain.FaultDomain`,
that reproduces the pre-refactor per-domain results bit-for-bit — for
full scans and all three samplers, serial and sharded, checked against
brute force.
"""

import pickle

import pytest

from repro.campaign import (
    ExecutorConfig,
    ExperimentExecutor,
    record_golden,
    run_brute_force,
    run_full_scan,
    run_sampling,
)
from repro.faultspace import (
    DOMAINS,
    MEMORY,
    REGISTER,
    FaultCoordinate,
    MemoryDomain,
    RegisterDomain,
    get_domain,
)
from repro.faultspace.registers import (
    RegisterFaultCoordinate,
    RegisterFaultSpace,
)
from repro.metrics import weighted_coverage, weighted_failure_count
from repro.programs import micro

JOB_COUNTS = (2, 4)
SAMPLERS = ("uniform", "live-only", "biased-class")


@pytest.fixture(scope="module")
def golden():
    return record_golden(micro.counter(2))


@pytest.fixture(scope="module")
def register_serial(golden):
    return run_full_scan(golden, domain="register")


class TestDomainRegistry:
    def test_registry_has_all_domains(self):
        assert set(DOMAINS) == {"memory", "register", "burst2", "burst4",
                                "stuck", "pc"}
        assert DOMAINS["memory"] is MEMORY
        assert DOMAINS["register"] is REGISTER

    def test_get_domain_by_name(self):
        assert get_domain("memory") is MEMORY
        assert get_domain("register") is REGISTER

    def test_get_domain_passthrough_and_default(self):
        assert get_domain(REGISTER) is REGISTER
        assert get_domain(None) is MEMORY

    def test_unknown_domain_lists_available(self):
        with pytest.raises(ValueError, match="register"):
            get_domain("cache")

    def test_domain_singletons_pickle_to_singletons(self):
        assert isinstance(pickle.loads(pickle.dumps(MEMORY)),
                          MemoryDomain)
        assert isinstance(pickle.loads(pickle.dumps(REGISTER)),
                          RegisterDomain)

    def test_bits_per_location(self):
        assert MEMORY.bits == 8
        assert REGISTER.bits == 32


class TestDomainGeometry:
    def test_memory_coordinate_roundtrip(self, golden):
        space = MEMORY.fault_space(golden)
        for index in (0, 1, space.size // 2, space.size - 1):
            coord = space.coordinate(index)
            assert space.index(coord) == index

    def test_register_coordinate_roundtrip(self, golden):
        space = REGISTER.fault_space(golden)
        for index in (0, 1, space.size // 2, space.size - 1):
            coord = space.coordinate(index)
            assert isinstance(coord, RegisterFaultCoordinate)
            assert space.contains(coord)
            assert space.index(coord) == index

    def test_register_space_row_major_layout(self):
        space = RegisterFaultSpace(cycles=3)
        assert space.slot_bits == 15 * 32
        first = space.coordinate(0)
        assert (first.slot, first.reg, first.bit) == (1, 1, 0)
        last = space.coordinate(space.size - 1)
        assert (last.slot, last.reg, last.bit) == (3, 15, 31)

    def test_slot_coordinates_cover_one_slot(self, golden):
        for domain in (MEMORY, REGISTER):
            space = domain.fault_space(golden)
            coords = list(domain.slot_coordinates(space, 1))
            assert len(coords) == space.size // golden.cycles
            assert all(c.slot == 1 for c in coords)

    def test_coordinate_axis_matches_class_key_axis(self, golden):
        for domain in (MEMORY, REGISTER):
            partition = domain.build_partition(golden)
            for interval in partition.live_classes()[:4]:
                coord = domain.coordinate(interval.injection_slot,
                                          domain.axis_of(interval), 0)
                assert domain.coordinate_axis(coord) \
                    == domain.axis_of(interval)


class TestUnifiedEngineParity:
    def test_register_scan_matches_brute_force_ground_truth(self,
                                                            register_serial):
        brute = run_brute_force(register_serial.golden,
                                domain="register").outcomes
        for coord, outcome in brute.items():
            assert register_serial.outcome_of(coord) == outcome, coord
        assert sum(register_serial.weighted_counts().values()) \
            == register_serial.fault_space_size

    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_register_scan_parallel_identical_to_serial(self, golden,
                                                        register_serial,
                                                        jobs):
        parallel = run_full_scan(golden, domain="register", jobs=jobs)
        assert list(parallel.class_outcomes.items()) \
            == list(register_serial.class_outcomes.items())
        assert parallel.weighted_counts() \
            == register_serial.weighted_counts()
        assert parallel.raw_counts() == register_serial.raw_counts()

    @pytest.mark.parametrize("sampler", SAMPLERS)
    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    def test_register_sampling_parallel_identical(self, golden, sampler,
                                                  jobs):
        serial = run_sampling(golden, 120, seed=9, sampler=sampler,
                              domain="register")
        parallel = run_sampling(golden, 120, seed=9, sampler=sampler,
                                domain="register", jobs=jobs)
        assert parallel.samples == serial.samples
        assert parallel.counts() == serial.counts()
        assert parallel.experiments_conducted \
            == serial.experiments_conducted

    def test_register_sampling_population_is_register_space(self, golden):
        result = run_sampling(golden, 50, seed=3, domain="register")
        assert result.population == REGISTER.fault_space(golden).size
        assert result.domain is REGISTER
        assert all(isinstance(sample.coordinate, RegisterFaultCoordinate)
                   for sample, _ in result.samples)

    def test_memory_default_unchanged(self, golden):
        explicit = run_full_scan(golden, domain="memory")
        implicit = run_full_scan(golden)
        assert implicit.domain is MEMORY
        assert list(implicit.class_outcomes.items()) \
            == list(explicit.class_outcomes.items())

    def test_memory_sampling_seed_stability(self, golden):
        """Domain plumbing must not perturb memory RNG sequences."""
        a = run_sampling(golden, 80, seed=5, sampler="biased-class")
        b = run_sampling(golden, 80, seed=5, sampler="biased-class",
                         domain=MEMORY)
        assert a.samples == b.samples
        assert all(isinstance(sample.coordinate, FaultCoordinate)
                   for sample, _ in a.samples)


class TestInjectedExecutor:
    """An injected executor brings its own fault model: a runner refuses
    one built for another domain instead of filing its outcomes under
    the campaign's domain."""

    @pytest.mark.parametrize("run, built_for, domain", [
        (run_full_scan, "memory", "burst2"),
        (lambda golden, **kw: run_sampling(golden, 40, seed=1, **kw),
         "memory", "stuck"),
        (run_brute_force, "register", "memory"),
    ], ids=["full-scan", "sampling", "brute-force"])
    def test_a_foreign_domain_is_refused(self, golden, run, built_for,
                                         domain):
        executor = ExperimentExecutor(golden, domain=built_for)
        with pytest.raises(ValueError,
                           match=f"'{built_for}'.*'{domain}'"):
            run(golden, executor=executor, domain=domain)

    def test_brute_force_runs_slot_ascending(self, golden):
        """One ``run_many`` a slot, slots ascending: the snapshot
        fast-forward reaches every slot and never rewinds."""
        assert golden.cycles > 1
        executor = ExperimentExecutor(golden, use_convergence=False)
        result = run_brute_force(golden, executor=executor)
        assert len(result.outcomes) == result.fault_space_size
        assert executor.rewinds == 0
        with pytest.raises(ValueError, match="not both"):
            run_brute_force(golden, executor=executor,
                            config=ExecutorConfig())


class TestUnifiedMetrics:
    def test_metrics_accept_register_results(self, register_serial):
        coverage = weighted_coverage(register_serial)
        assert 0.0 <= coverage <= 1.0
        count = weighted_failure_count(register_serial)
        assert count.population \
            == REGISTER.fault_space(register_serial.golden).size
        assert count.total == register_serial.weighted_failure_count()

    def test_result_convenience_matches_metrics(self, register_serial):
        assert register_serial.weighted_coverage() \
            == weighted_coverage(register_serial)
