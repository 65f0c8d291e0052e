"""Unit tests for the section model (faultspace/sections.py).

The section map is the foundation of the compositional result store:
these tests pin the partition invariants (windows tile the campaign,
every coordinate has exactly one owner), the fingerprint contract
(stable across rebuilds, engine-independent inputs, sensitive to code,
domain and executor parameters), and the per-section Pitfall-1
weighting (section counters aggregate to the whole-program weighted
counts exactly).
"""

import hashlib
import json

import pytest

from repro.campaign import GoldenRun, record_golden, run_full_scan
from repro.engine.compiled import _find_blocks
from repro.faultspace import (
    DOMAINS,
    build_section_map,
    aggregate_section_counts,
    get_domain,
    section_weighted_counts,
)
from repro.buildkey import build_key
from repro.faultspace.sections import canonical_params
from repro.isa.assembler import assemble
from repro.isa.cpu import Machine
from repro.programs import guarded, micro
from repro.programs.registry import all_programs


@pytest.fixture(scope="module")
def counter_golden():
    return record_golden(micro.counter(3))


def _swap_pair():
    """Two programs differing only by a commutative operand swap in the
    entry block: identical machine state at every cycle, different code
    bytes in (and only in) the first section."""
    template = """\
        .data
count:  .word 0
        .text
start:  add  r4, {a}, {b}
loop:   lw   r1, count(zero)
        addi r1, r1, 1
        sw   r1, count(zero)
        addi r4, r4, 1
        slti r2, r4, 3
        bnez r2, loop
        lw   r1, count(zero)
        out  r1
        halt
"""
    prog_a = assemble(template.format(a="r5", b="r6"), name="swap-a",
                      ram_size=4)
    prog_b = assemble(template.format(a="r6", b="r5"), name="swap-b",
                      ram_size=4)
    return record_golden(prog_a), record_golden(prog_b)


class TestPartition:
    @pytest.mark.parametrize("domain", ["memory", "register"])
    def test_windows_tile_the_campaign(self, counter_golden, domain):
        section_map = build_section_map(counter_golden, domain)
        expected = 1
        for section in section_map:
            assert section.first_slot == expected
            expected = section.last_slot + 1
        assert expected == counter_golden.cycles + 1

    def test_owner_is_total_and_consistent(self, counter_golden):
        section_map = build_section_map(counter_golden)
        for slot in range(1, counter_golden.cycles + 1):
            assert section_map.owner(slot).covers(slot)
        with pytest.raises(IndexError):
            section_map.owner(0)
        with pytest.raises(IndexError):
            section_map.owner(counter_golden.cycles + 1)

    @pytest.mark.parametrize("domain", ["memory", "register"])
    def test_every_coordinate_has_an_owner(self, counter_golden, domain):
        domain = get_domain(domain)
        section_map = build_section_map(counter_golden, domain)
        for coord in domain.fault_space(counter_golden) \
                .iter_coordinates():
            assert section_map.owner_of(coord).covers(coord.slot)

    def test_loop_iterations_stay_in_one_section(self, counter_golden):
        """First-visit windowing: re-executing a block opens no new
        section, so the map has at most one section per executed block."""
        section_map = build_section_map(counter_golden)
        assert len(section_map) < counter_golden.cycles


class TestFingerprints:
    def test_fingerprints_are_stable_across_rebuilds(self,
                                                     counter_golden):
        first = build_section_map(counter_golden).fingerprints()
        second = build_section_map(counter_golden).fingerprints()
        assert first == second

    def test_domain_and_params_enter_the_fingerprint(self,
                                                     counter_golden):
        base = build_section_map(counter_golden, "memory")
        other_domain = build_section_map(counter_golden, "register")
        other_params = build_section_map(
            counter_golden, "memory", {"timeout_cycles": 999})
        assert not set(base.fingerprints()) \
            & set(other_domain.fingerprints())
        assert not set(base.fingerprints()) \
            & set(other_params.fingerprints())

    def test_different_programs_share_no_fingerprint(self):
        maps = [build_section_map(record_golden(program))
                for program in guarded.variants().values()]
        seen: set[str] = set()
        for section_map in maps:
            fingerprints = set(section_map.fingerprints())
            assert not fingerprints & seen
            seen |= fingerprints

    def test_entry_block_mutation_preserves_later_sections(self):
        """The soundness story in one example: a commutative operand
        swap in the entry block changes only the first section's
        fingerprint — later sections' forward closures exclude the
        entry block and their entry states are bit-identical."""
        golden_a, golden_b = _swap_pair()
        map_a = build_section_map(golden_a)
        map_b = build_section_map(golden_b)
        assert [s.first_slot for s in map_a] \
            == [s.first_slot for s in map_b]
        fps_a, fps_b = map_a.fingerprints(), map_b.fingerprints()
        assert fps_a[0] != fps_b[0]
        assert fps_a[1:] == fps_b[1:]

    def test_canonical_params_is_order_insensitive(self):
        assert canonical_params({"b": 2, "a": 1}) \
            == canonical_params({"a": 1, "b": 2})
        assert canonical_params(None) == canonical_params({})


def _reference_code_digest(rom, leaders, blocks_by_start, escape):
    """The code digest as it was before it was memoised per closure:
    every section re-formats and re-hashes its closure (the whole ROM
    on escape).  Stored fingerprints were written by this recipe."""
    digest = hashlib.sha256()
    if escape:
        items = list(enumerate(rom))
    else:
        items = []
        for start in sorted(leaders):
            items.extend(blocks_by_start[start].instrs)
    for pc, ins in items:
        digest.update(
            f"{pc}:{int(ins.op)}:{ins.rd}:{ins.rs1}:{ins.rs2}:{ins.imm};"
            .encode())
    return digest.hexdigest()


class TestFingerprintRecipeIsFrozen:
    """A journal's section store is keyed by these bytes: a cheaper way
    of computing them must compute exactly them."""

    @pytest.mark.parametrize("domain", ["memory", "pc"])
    @pytest.mark.parametrize("name", sorted(all_programs()))
    def test_memoised_digest_matches_the_reference(self, name, domain):
        golden = record_golden(all_programs()[name]())
        params = {"timeout_cycles": 4 * golden.cycles, "early_stop": True}
        section_map = build_section_map(golden, domain, params)
        program = golden.program
        blocks_by_start = {
            block.start: block
            for block in _find_blocks(program.rom, program.entry)}
        machine = Machine(program)
        for section in section_map:
            machine.run_to_cycle(section.first_slot - 1)
            payload = json.dumps({
                "build": build_key(),
                "domain": domain,
                "params": canonical_params(params),
                "first_slot": section.first_slot,
                "last_slot": section.last_slot,
                "entry": machine.state_digest().hex(),
                "code": _reference_code_digest(
                    program.rom, section.leaders, blocks_by_start,
                    section.escape),
                "ram_size": program.ram_size,
                "rom_len": len(program.rom),
            }, sort_keys=True, separators=(",", ":"))
            assert section.fingerprint \
                == hashlib.sha256(payload.encode()).hexdigest()[:32]


def _replayed_fingerprints(golden, domain, params, section_map):
    """The map's fingerprints with every entry digest taken by replay
    on a fresh interpreter, as before the map read them off the golden
    checkpoint ladder (code digests as :func:`_reference_code_digest`)."""
    program = golden.program
    blocks_by_start = {
        block.start: block
        for block in _find_blocks(program.rom, program.entry)}
    machine = Machine(program)
    fingerprints = []
    for section in section_map:
        machine.run_to_cycle(section.first_slot - 1)
        payload = json.dumps({
            "build": build_key(),
            "domain": domain,
            "params": canonical_params(params),
            "first_slot": section.first_slot,
            "last_slot": section.last_slot,
            "entry": machine.state_digest().hex(),
            "code": _reference_code_digest(
                program.rom, section.leaders, blocks_by_start,
                section.escape),
            "ram_size": program.ram_size,
            "rom_len": len(program.rom),
        }, sort_keys=True, separators=(",", ":"))
        fingerprints.append(hashlib.sha256(payload.encode()).hexdigest()[:32])
    return fingerprints


class TestEntryDigestsOffTheLadder:
    """Entry digests come off the golden ladder where it has the rung
    and from a replay where it does not; either way every fingerprint
    is the replay-only one, whatever the stride."""

    @pytest.mark.parametrize("name", sorted(all_programs()))
    def test_every_stride_and_domain_matches_the_replay(self, name):
        program = all_programs()[name]()
        auto = record_golden(program)
        goldens = {
            "auto": auto,
            "stride 3": record_golden(program, checkpoint_stride=3),
            "no ladder": record_golden(program, checkpoint_stride=0),
            "hand-built": GoldenRun(program=program, output=auto.output,
                                    cycles=auto.cycles, trace=auto.trace,
                                    pc_trace=auto.pc_trace),
        }
        assert auto.checkpoints.stride == 1  # a rung at every cycle
        assert goldens["stride 3"].checkpoints.stride == 3
        assert goldens["no ladder"].checkpoints is None
        params = {"timeout_cycles": 4 * auto.cycles, "early_stop": True}
        for domain in sorted(DOMAINS):
            reference = None
            for label, golden in goldens.items():
                section_map = build_section_map(golden, domain, params)
                if reference is None:
                    reference = _replayed_fingerprints(
                        golden, domain, params, section_map)
                assert section_map.fingerprints() == reference, \
                    (label, domain)


class TestSectionWeighting:
    @pytest.mark.parametrize("domain", ["memory", "register"])
    def test_section_counts_aggregate_to_whole_program(self, domain):
        """Per-section Pitfall-1 weighting loses nothing: summing the
        section counters reproduces the campaign's weighted counts
        bit for bit."""
        golden = record_golden(micro.counter(3))
        scan = run_full_scan(golden, domain=domain)
        section_map = build_section_map(golden, domain)
        per_section = scan.weighted_counts_by_section(section_map)
        assert aggregate_section_counts(per_section) \
            == scan.weighted_counts()

    def test_section_counts_cover_each_sections_space(self):
        golden = record_golden(micro.counter(3))
        scan = run_full_scan(golden)
        section_map = build_section_map(golden)
        domain = get_domain("memory")
        space = domain.fault_space(golden)
        per_slot = space.size // golden.cycles
        per_section = scan.weighted_counts_by_section(section_map)
        for section in section_map:
            assert sum(per_section[section.index].values()) \
                == section.slots * per_slot

    def test_direct_call_matches_result_method(self):
        golden = record_golden(micro.counter(3))
        scan = run_full_scan(golden)
        domain = get_domain("memory")
        section_map = build_section_map(golden, domain)
        outcomes = {domain.class_key(interval): rows
                    for interval, rows in scan.class_records()}
        direct = section_weighted_counts(
            section_map, scan.partition.live_classes(), outcomes,
            domain=domain, space=domain.fault_space(golden))
        assert direct == scan.weighted_counts_by_section(section_map)
