"""Unit and property tests for def/use pruning (Section III-C)."""

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.faultspace import (
    BurstInterval,
    ByteInterval,
    DEAD,
    DefUsePartition,
    FaultCoordinate,
    FaultSpace,
    LIVE,
    RegisterInterval,
    StuckAtInterval,
)
from repro.campaign import record_golden
from repro.faultspace import get_domain
from repro.isa import MemoryTrace, READ, WRITE
from repro.programs import micro


def make_trace(total_slots, events_by_addr):
    """events_by_addr: {addr: [(slot, READ|WRITE), ...]}"""
    trace = MemoryTrace()
    for addr, events in events_by_addr.items():
        for slot, kind in events:
            trace.record(slot, addr, 1, kind)
    trace.finish(total_slots)
    return trace


class TestByteInterval:
    def test_weight_is_lifetime_times_bits(self):
        interval = ByteInterval(addr=0, first_slot=3, last_slot=5,
                                kind=LIVE)
        assert interval.length == 3
        assert interval.weight_bits == 24
        assert interval.injection_slot == 5

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            ByteInterval(addr=0, first_slot=5, last_slot=4, kind=LIVE)

    def test_live_interval_yields_eight_experiments(self):
        interval = ByteInterval(addr=2, first_slot=1, last_slot=4,
                                kind=LIVE)
        experiments = interval.experiments()
        assert len(experiments) == 8
        assert all(c.slot == 4 and c.addr == 2 for c in experiments)
        assert sorted(c.bit for c in experiments) == list(range(8))

    def test_dead_interval_has_no_experiments(self):
        interval = ByteInterval(addr=0, first_slot=1, last_slot=2,
                                kind=DEAD)
        with pytest.raises(ValueError):
            interval.experiments()

    @pytest.mark.parametrize("make", [
        ByteInterval, partial(BurstInterval, width=2), StuckAtInterval,
        RegisterInterval], ids=["byte", "burst", "stuck", "register"])
    @pytest.mark.parametrize("first,last,kind,error", [
        (5, 4, LIVE, "empty interval"), (1, 2, "maybe", "bad kind")])
    def test_every_cell_class_is_validated(self, make, first, last, kind,
                                           error):
        """One check for every def/use class type, the register's too."""
        with pytest.raises(ValueError, match=error):
            make(1, first, last, kind)


class TestPartitionConstruction:
    def test_paper_figure_1b_example(self):
        # One byte: written at slot 4, read at slot 11, run of 12 slots.
        # Expect: [1..4] dead (overwritten), [5..11] live (weight 7),
        # [12..12] dead (never read again).
        trace = make_trace(12, {0: [(4, WRITE), (11, READ)]})
        partition = DefUsePartition.from_trace(
            trace, FaultSpace(cycles=12, ram_bytes=1))
        partition.validate()
        intervals = partition.byte_intervals(0)
        assert [(iv.first_slot, iv.last_slot, iv.kind)
                for iv in intervals] == [
            (1, 4, DEAD), (5, 11, LIVE), (12, 12, DEAD)]
        assert intervals[1].length == 7

    def test_untouched_byte_is_one_dead_interval(self):
        trace = make_trace(5, {})
        partition = DefUsePartition.from_trace(
            trace, FaultSpace(cycles=5, ram_bytes=2))
        for addr in (0, 1):
            intervals = partition.byte_intervals(addr)
            assert [(iv.first_slot, iv.last_slot, iv.kind)
                    for iv in intervals] == [(1, 5, DEAD)]

    def test_read_of_initial_data_is_live_from_reset(self):
        # Initialized-at-load data read at slot 3: live window [1..3].
        trace = make_trace(4, {0: [(3, READ)]})
        partition = DefUsePartition.from_trace(
            trace, FaultSpace(cycles=4, ram_bytes=1))
        intervals = partition.byte_intervals(0)
        assert intervals[0].kind == LIVE
        assert (intervals[0].first_slot, intervals[0].last_slot) == (1, 3)

    def test_back_to_back_reads_form_consecutive_live_classes(self):
        trace = make_trace(4, {0: [(2, READ), (3, READ)]})
        partition = DefUsePartition.from_trace(
            trace, FaultSpace(cycles=4, ram_bytes=1))
        kinds = [(iv.first_slot, iv.last_slot, iv.kind)
                 for iv in partition.byte_intervals(0)]
        assert kinds == [(1, 2, LIVE), (3, 3, LIVE), (4, 4, DEAD)]

    def test_write_after_write_is_dead(self):
        trace = make_trace(3, {0: [(1, WRITE), (2, WRITE), (3, READ)]})
        partition = DefUsePartition.from_trace(
            trace, FaultSpace(cycles=3, ram_bytes=1))
        kinds = [iv.kind for iv in partition.byte_intervals(0)]
        assert kinds == [DEAD, DEAD, LIVE]

    def test_mismatched_trace_length_rejected(self):
        trace = make_trace(5, {})
        with pytest.raises(ValueError, match="5 slots"):
            DefUsePartition.from_trace(trace,
                                       FaultSpace(cycles=6, ram_bytes=1))

    def test_access_beyond_run_end_rejected(self):
        trace = make_trace(2, {0: [(3, READ)]})
        with pytest.raises(ValueError, match="beyond run end"):
            DefUsePartition.from_trace(trace,
                                       FaultSpace(cycles=2, ram_bytes=1))


class TestPartitionAccounting:
    def test_weights_partition_the_fault_space(self):
        trace = make_trace(12, {0: [(4, WRITE), (11, READ)]})
        partition = DefUsePartition.from_trace(
            trace, FaultSpace(cycles=12, ram_bytes=3))
        assert partition.total_weight == partition.fault_space.size
        assert (partition.live_weight
                + partition.known_no_effect_weight
                == partition.fault_space.size)

    def test_experiment_count_is_eight_per_live_class(self):
        trace = make_trace(6, {0: [(2, READ), (5, READ)],
                               1: [(3, WRITE)]})
        partition = DefUsePartition.from_trace(
            trace, FaultSpace(cycles=6, ram_bytes=2))
        assert partition.experiment_count == 16

    def test_reduction_factor(self):
        trace = make_trace(100, {0: [(100, READ)]})
        partition = DefUsePartition.from_trace(
            trace, FaultSpace(cycles=100, ram_bytes=1))
        assert partition.experiment_count == 8
        assert partition.reduction_factor() == 100.0

    def test_locate_finds_containing_class(self):
        trace = make_trace(12, {0: [(4, WRITE), (11, READ)]})
        partition = DefUsePartition.from_trace(
            trace, FaultSpace(cycles=12, ram_bytes=1))
        assert partition.locate(
            FaultCoordinate(slot=4, addr=0, bit=0)).kind == DEAD
        live = partition.locate(FaultCoordinate(slot=5, addr=0, bit=3))
        assert live.kind == LIVE
        assert live.covers(5)

    def test_locate_outside_space_rejected(self):
        trace = make_trace(3, {})
        partition = DefUsePartition.from_trace(
            trace, FaultSpace(cycles=3, ram_bytes=1))
        with pytest.raises(IndexError):
            partition.locate(FaultCoordinate(slot=4, addr=0, bit=0))


@st.composite
def random_traces(draw):
    """A random consistent access pattern over a small fault space."""
    cycles = draw(st.integers(min_value=1, max_value=30))
    ram_bytes = draw(st.integers(min_value=1, max_value=4))
    events = {}
    for addr in range(ram_bytes):
        slots = draw(st.lists(st.integers(min_value=1, max_value=cycles),
                              unique=True, max_size=10))
        kinds = draw(st.lists(st.sampled_from([READ, WRITE]),
                              min_size=len(slots), max_size=len(slots)))
        events[addr] = sorted(zip(slots, kinds))
    return cycles, ram_bytes, events


class TestPartitionProperties:
    @given(random_traces())
    @settings(max_examples=200)
    def test_partition_always_tiles_the_space(self, case):
        cycles, ram_bytes, events = case
        trace = make_trace(cycles, events)
        partition = DefUsePartition.from_trace(
            trace, FaultSpace(cycles=cycles, ram_bytes=ram_bytes))
        partition.validate()  # tiling + weight invariants

    @given(random_traces(), st.data())
    @settings(max_examples=200)
    def test_locate_agrees_with_interval_bounds(self, case, data):
        cycles, ram_bytes, events = case
        trace = make_trace(cycles, events)
        space = FaultSpace(cycles=cycles, ram_bytes=ram_bytes)
        partition = DefUsePartition.from_trace(trace, space)
        index = data.draw(st.integers(min_value=0,
                                      max_value=space.size - 1))
        coord = space.coordinate(index)
        interval = partition.locate(coord)
        assert interval.addr == coord.addr
        assert interval.covers(coord.slot)

    @given(random_traces())
    @settings(max_examples=100)
    def test_live_classes_end_in_reads(self, case):
        cycles, ram_bytes, events = case
        trace = make_trace(cycles, events)
        partition = DefUsePartition.from_trace(
            trace, FaultSpace(cycles=cycles, ram_bytes=ram_bytes))
        read_slots = {(addr, e.slot) for addr, evs in events.items()
                      for e in [type("E", (), {"slot": s, "kind": k})()
                                for s, k in evs] if e.kind == READ}
        for interval in partition.live_classes():
            assert (interval.addr, interval.last_slot) in read_slots


class TestLocateStarts:
    """``locate`` bisects start lists cached once per partition; it must
    agree with a linear search over the cell's intervals everywhere."""

    @pytest.fixture(scope="class")
    def golden(self):
        return record_golden(micro.counter(2))

    @pytest.mark.parametrize("domain", ["memory", "burst2", "stuck",
                                        "register"])
    def test_locate_agrees_with_a_linear_search(self, golden, domain):
        domain = get_domain(domain)
        partition = domain.build_partition(golden)
        space = domain.fault_space(golden)
        located = 0
        for coord in space.iter_coordinates():
            cell = coord.reg if domain.name == "register" else coord.addr
            matches = [iv for iv in partition.intervals[cell]
                       if iv.first_slot <= coord.slot <= iv.last_slot]
            assert len(matches) == 1, coord
            assert partition.locate(coord) is matches[0], coord
            located += 1
        assert located == space.size
        # One start list per cell, built on the first locate and kept.
        starts = partition._starts
        assert partition.locate(coord) is matches[0]
        assert partition._starts is starts
        assert starts == {cell: [iv.first_slot for iv in ivs]
                          for cell, ivs in partition.intervals.items()}
