"""Unit and property tests for the fault-space grid model."""

import pytest
from hypothesis import given, strategies as st

from repro.campaign import record_golden
from repro.faultspace import DOMAINS, FaultCoordinate, FaultSpace
from repro.programs import micro


class TestFaultCoordinate:
    def test_valid_coordinate(self):
        coord = FaultCoordinate(slot=3, addr=5, bit=7)
        assert coord.bit_index == 5 * 8 + 7

    @pytest.mark.parametrize("slot,addr,bit", [
        (0, 0, 0),     # slots are 1-based
        (1, -1, 0),
        (1, 0, 8),
        (1, 0, -1),
    ])
    def test_invalid_coordinates_rejected(self, slot, addr, bit):
        with pytest.raises(ValueError):
            FaultCoordinate(slot=slot, addr=addr, bit=bit)

    def test_ordering_is_slot_major(self):
        early = FaultCoordinate(slot=1, addr=9, bit=7)
        late = FaultCoordinate(slot=2, addr=0, bit=0)
        assert early < late


class TestFaultSpace:
    def test_size_is_cycles_times_bits(self):
        space = FaultSpace(cycles=8, ram_bytes=2)
        assert space.memory_bits == 16
        assert space.size == 128

    def test_degenerate_spaces_rejected(self):
        with pytest.raises(ValueError):
            FaultSpace(cycles=0, ram_bytes=1)
        with pytest.raises(ValueError):
            FaultSpace(cycles=1, ram_bytes=0)

    def test_contains(self):
        space = FaultSpace(cycles=4, ram_bytes=2)
        assert space.contains(FaultCoordinate(slot=4, addr=1, bit=7))
        assert not space.contains(FaultCoordinate(slot=5, addr=0, bit=0))
        assert not space.contains(FaultCoordinate(slot=1, addr=2, bit=0))

    def test_iter_covers_every_coordinate_once(self):
        space = FaultSpace(cycles=3, ram_bytes=2)
        coords = list(space.iter_coordinates())
        assert len(coords) == space.size
        assert len(set(coords)) == space.size

    def test_index_out_of_range_rejected(self):
        space = FaultSpace(cycles=2, ram_bytes=1)
        with pytest.raises(IndexError):
            space.coordinate(space.size)
        with pytest.raises(IndexError):
            space.index(FaultCoordinate(slot=3, addr=0, bit=0))

    @given(st.integers(min_value=1, max_value=50),
           st.integers(min_value=1, max_value=50),
           st.data())
    def test_index_coordinate_roundtrip(self, cycles, ram_bytes, data):
        space = FaultSpace(cycles=cycles, ram_bytes=ram_bytes)
        index = data.draw(st.integers(min_value=0,
                                      max_value=space.size - 1))
        coord = space.coordinate(index)
        assert space.contains(coord)
        assert space.index(coord) == index

    @given(st.integers(min_value=1, max_value=20),
           st.integers(min_value=1, max_value=20))
    def test_iteration_matches_flat_indexing(self, cycles, ram_bytes):
        space = FaultSpace(cycles=cycles, ram_bytes=ram_bytes)
        for index, coord in enumerate(space.iter_coordinates()):
            assert space.index(coord) == index
            if index > 64:
                break


@pytest.fixture(scope="module")
def grid_golden():
    return record_golden(micro.counter(2))


class TestEveryDomainGrid:
    """Every domain's space is the same row-major (slot, cell, unit)
    grid; the samplers' RNG-exact draws rest on this layout."""

    @pytest.mark.parametrize("name", sorted(DOMAINS))
    @given(data=st.data())
    def test_index_coordinate_roundtrip(self, grid_golden, name, data):
        space = DOMAINS[name].fault_space(grid_golden)
        index = data.draw(st.integers(min_value=0,
                                      max_value=space.size - 1))
        coord = space.coordinate(index)
        assert space.contains(coord)
        assert space.index(coord) == index

    @pytest.mark.parametrize("name", sorted(DOMAINS))
    def test_iteration_matches_flat_indexing(self, grid_golden, name):
        domain = DOMAINS[name]
        space = domain.fault_space(grid_golden)
        coords = list(space.iter_coordinates())
        assert len(coords) == space.size
        for index, coord in enumerate(coords):
            assert space.index(coord) == index
            assert space.coordinate(index) == coord
        row = space.size // space.cycles
        for slot in range(1, space.cycles + 1):
            assert (list(domain.slot_coordinates(space, slot))
                    == coords[(slot - 1) * row:slot * row])
