"""Tests for the single-experiment executor."""

import pytest

from repro.campaign import (
    ExecutorConfig,
    ExperimentExecutor,
    Outcome,
    record_golden,
)
from repro.campaign.runner import ScanStyle
from repro.faultspace import FaultCoordinate
from repro.faultspace.domain import get_domain
from repro.isa import assemble
from repro.programs import bin_sem2, hi, micro

#: A store/load program: corrupting the stored byte between store and
#: load flips the output.
SOURCE = """
        .data
v:      .byte 0
        .text
start:  li   r1, 'A'
        sb   r1, v(zero)
        nop
        lbu  r2, v(zero)
        out  r2
        halt
"""


@pytest.fixture
def golden():
    return record_golden(assemble(SOURCE, ram_size=1))


class TestExperimentExecutor:
    def test_live_window_fault_is_failure(self, golden):
        executor = ExperimentExecutor(golden)
        # Stored at slot 2, read at slot 4: slots 3 and 4 are live.
        for slot in (3, 4):
            record = executor.run(FaultCoordinate(slot=slot, addr=0, bit=0))
            assert record.outcome is Outcome.SDC

    def test_fault_before_store_is_overwritten(self, golden):
        executor = ExperimentExecutor(golden)
        for slot in (1, 2):
            record = executor.run(FaultCoordinate(slot=slot, addr=0, bit=0))
            assert record.outcome is Outcome.NO_EFFECT

    def test_fault_after_last_read_is_dormant(self, golden):
        executor = ExperimentExecutor(golden)
        for slot in (5, 6):
            record = executor.run(FaultCoordinate(slot=slot, addr=0, bit=0))
            assert record.outcome is Outcome.NO_EFFECT

    def test_equivalent_slots_share_outcomes_per_bit(self, golden):
        executor = ExperimentExecutor(golden)
        for bit in range(8):
            outcomes = {
                executor.run(FaultCoordinate(slot=s, addr=0, bit=bit))
                .outcome for s in (3, 4)}
            assert len(outcomes) == 1

    def test_slot_beyond_runtime_rejected(self, golden):
        executor = ExperimentExecutor(golden)
        with pytest.raises(ValueError, match="beyond golden runtime"):
            executor.run(FaultCoordinate(slot=golden.cycles + 1,
                                         addr=0, bit=0))

    def test_snapshot_and_naive_paths_agree(self, golden):
        fast = ExperimentExecutor(golden, use_snapshots=True)
        slow = ExperimentExecutor(golden, use_snapshots=False)
        for slot in range(1, golden.cycles + 1):
            for bit in range(8):
                coord = FaultCoordinate(slot=slot, addr=0, bit=bit)
                assert fast.run(coord).outcome == slow.run(coord).outcome

    def test_out_of_order_slots_force_rewind(self, golden):
        # Convergence off: the criticality pre-skip may classify a
        # coordinate without ever touching the machine, and this test
        # is about the snapshot engine's rewind behaviour.
        executor = ExperimentExecutor(golden, use_convergence=False)
        executor.run(FaultCoordinate(slot=4, addr=0, bit=0))
        executor.run(FaultCoordinate(slot=2, addr=0, bit=0))
        assert executor.rewinds == 1

    def test_sorted_slots_never_rewind(self, golden):
        executor = ExperimentExecutor(golden)
        for slot in range(1, golden.cycles + 1):
            executor.run(FaultCoordinate(slot=slot, addr=0, bit=0))
        assert executor.rewinds == 0

    def test_early_stop_matches_full_run_failure_verdict(self, golden):
        eager = ExperimentExecutor(golden, early_stop=True)
        patient = ExperimentExecutor(golden, early_stop=False)
        for slot in range(1, golden.cycles + 1):
            for bit in range(8):
                coord = FaultCoordinate(slot=slot, addr=0, bit=bit)
                assert (eager.run(coord).outcome.is_failure
                        == patient.run(coord).outcome.is_failure)

    def test_invalid_timeout_factor_rejected(self, golden):
        with pytest.raises(ValueError):
            ExperimentExecutor(golden, timeout_factor=0.5)


DOMAINS = ("memory", "register", "burst2", "burst4", "stuck", "pc")


#: The two smallest programs, and one whose scans take every early
#: exit (pre-skip, ladder and memo hits), so the counters compare.
PROGRAMS = {"hi": hi.baseline, "memcopy6": lambda: micro.memcopy(6),
            "bin_sem2": lambda: bin_sem2.baseline(2)}


@pytest.fixture(scope="module", params=sorted(PROGRAMS))
def program_golden(request):
    return record_golden(PROGRAMS[request.param]())


class TestRunManyFacts:
    """``run_many`` answers one injection slot with ``(outcome,
    end_cycle, trap)`` facts; the scan's stored runs, joined from them,
    are what records from :meth:`ExperimentExecutor.run` would say."""

    @pytest.mark.parametrize("config", [
        {}, {"use_convergence": False}, {"use_snapshots": False}],
        ids=["default", "no-convergence", "no-snapshots"])
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_scan_runs_equal_joined_records(self, program_golden, domain,
                                            config):
        golden = program_golden
        config = ExecutorConfig(domain=domain, **config)
        intervals = get_domain(domain).build_partition(golden) \
            .live_classes()
        scanning = config.build(golden)
        runs = dict(ScanStyle.execute(scanning, intervals))
        recording = config.build(golden)
        expected = {}
        for interval in intervals:
            records = [recording.run(coordinate)
                       for coordinate in interval.experiments()]
            expected[scanning.domain.class_key(interval)] = (
                " ".join(record.outcome.value for record in records),
                " ".join(str(record.end_cycle) for record in records),
                " ".join(record.trap for record in records))
        assert list(runs) == list(expected)
        assert runs == expected

        def counters(executor):
            return (executor.slice_hits, executor.convergence_hits,
                    executor.memo_hits)

        assert counters(scanning) == counters(recording)
        if golden.program.name.startswith("bin_sem2") \
                and config.use_convergence:
            assert scanning.convergence_hits > scanning.memo_hits > 0
            assert scanning.slice_hits > 0 or domain in ("stuck", "pc")

    def test_facts_are_per_coordinate_in_order(self, program_golden):
        executor = ExperimentExecutor(program_golden)
        reference = ExperimentExecutor(program_golden)
        slot = program_golden.cycles // 2
        coordinates = [FaultCoordinate(slot=slot, addr=addr, bit=bit)
                       for addr in (1, 0) for bit in (7, 0, 3)]
        facts = executor.run_many(coordinates)
        records = [reference.run(coordinate) for coordinate in coordinates]
        assert facts == [(record.outcome, record.end_cycle, record.trap)
                         for record in records]
        assert all(type(outcome) is Outcome for outcome, _, _ in facts)
        assert executor.run_many([]) == []

    def test_mixed_slots_are_refused(self, program_golden):
        executor = ExperimentExecutor(program_golden)
        with pytest.raises(ValueError, match="one injection slot"):
            executor.run_many([FaultCoordinate(slot=2, addr=0, bit=0),
                               FaultCoordinate(slot=3, addr=0, bit=0)])
        assert executor.slice_hits == executor.convergence_hits == 0


class TestTimeoutDetection:
    def test_fault_induced_livelock_times_out(self):
        # The loop counter lives in RAM; corrupting it upward makes the
        # loop run far beyond the golden runtime.
        golden = record_golden(assemble("""
            .data
n:      .word 2
            .text
start:  lw   r1, n(zero)
loop:   addi r1, r1, -1
        bnez r1, loop
        li   r2, 'd'
        out  r2
        halt
""", ram_size=4))
        executor = ExperimentExecutor(golden)
        # Flip a high bit of the counter right before it is read.
        record = executor.run(FaultCoordinate(slot=1, addr=3, bit=6))
        assert record.outcome is Outcome.TIMEOUT

    def test_trap_reports_cpu_exception_and_trap_name(self):
        # Corrupt a RAM-held address so the load faults.
        golden = record_golden(assemble("""
            .data
ptr:    .word 8
val:    .word 7
            .text
start:  lw   r1, ptr(zero)
        lw   r2, 0(r1)
        out  r2
        halt
""", ram_size=12))
        executor = ExperimentExecutor(golden)
        record = executor.run(FaultCoordinate(slot=1, addr=1, bit=7))
        assert record.outcome is Outcome.CPU_EXCEPTION
        assert record.trap in ("memory-fault", "alignment-fault")
