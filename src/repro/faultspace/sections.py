"""Program sections: stable units of fault-injection result reuse.

FastFlip-style incremental campaigns (PAPERS.md) rest on one
observation: if a slice of a program's execution is *bit-identical*
between two campaign runs — the same code reachable from every
injection point, the same machine state entering the slice, the same
absolute cycle window and executor budget — then every experiment
inside that slice must produce the same outcome, so its results can be
composed from a persistent store instead of re-executed.

This module builds that slicing:

* A **section** is a maximal run of injection slots opened by the first
  visit of a basic block that was never executed before (block
  discovery is the compiled engine's own).  Loop iterations stay inside
  the section that first entered the loop, so a program has at most as
  many sections as executed basic blocks.
* Each section carries a content **fingerprint** hashing everything
  that pins experiment outcomes inside its window:

  - the forward control-flow closure of the blocks executed in the
    window.  Branch and ``jal`` targets are immediates and the pc is
    not part of any fault domain, so a corrupted run entering at any
    slot of the window can only ever execute code inside that closure;
    a reachable ``jalr`` (computed target) widens the closure to the
    whole ROM.
  - the machine state digest at window entry (RAM, registers, pc and
    serial *length* after ``first_slot - 1`` fault-free instructions).
    The serial bytes themselves are deliberately excluded: the outcome
    classifier compares output positionally against the golden run, so
    two variants whose prefixes differ but have equal length classify
    every downstream experiment identically.
  - the absolute ``[first_slot, last_slot]`` window, the fault domain
    and the executor parameters (timeout budget, early-stop), because
    end cycles and timeout classifications are functions of absolute
    cycle counts.
  - the RAM size and ROM length, which bound the fault space and the
    trap behaviour of wild loads/stores and jumps.
  - the build key (:func:`~repro.buildkey.build_key`): the source of
    the simulator, the injector and the classifier that compute an
    outcome, and of this recipe.

Two sections with equal fingerprints are therefore interchangeable:
any experiment injected at a slot of one has, coordinate for
coordinate, the same outcome, end cycle and trap as in the other.
This is the soundness contract behind ``campaign/compose.py`` and the
``section_results`` journal table (see DESIGN.md §3f).
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass

from ..buildkey import build_key
from ..engine.compiled import _find_blocks
from ..isa.blocks import BRANCH_OPS, program_blocks
from ..isa.cpu import Machine
from ..isa.isa import Op
from .domain import FaultDomain, get_domain

def canonical_params(params: Mapping | None) -> str:
    """The canonical JSON text of a fault-model parameter mapping.

    Shared by section fingerprints and the journal's campaign identity
    so one byte string keys both.
    """
    return json.dumps(dict(params or {}), sort_keys=True,
                      separators=(",", ":"))


@dataclass(frozen=True)
class Section:
    """One contiguous slot window with a content fingerprint.

    ``leaders`` are the block-start pcs of the window's forward
    control-flow closure (the whole ROM when ``escape`` is set, i.e. a
    ``jalr`` is reachable).  Windows are inclusive on both ends and
    consecutive sections tile ``[1, Δt]`` exactly.
    """

    index: int
    first_slot: int
    last_slot: int
    fingerprint: str
    leaders: tuple[int, ...] = ()
    escape: bool = False

    def __post_init__(self) -> None:
        if self.first_slot < 1 or self.first_slot > self.last_slot:
            raise ValueError(
                f"bad section window [{self.first_slot}, {self.last_slot}]")

    @property
    def slots(self) -> int:
        """Number of injection slots in this section's window."""
        return self.last_slot - self.first_slot + 1

    def covers(self, slot: int) -> bool:
        return self.first_slot <= slot <= self.last_slot


class SectionMap:
    """The complete section partition of one golden run's fault space.

    Maps every injection slot — and hence every (cycle, cell)
    coordinate of any fault domain — to its owning section.
    """

    def __init__(self, *, program_name: str, domain: str, cycles: int,
                 sections: list[Section] | tuple[Section, ...]):
        self.program_name = program_name
        self.domain = domain
        self.cycles = cycles
        self.sections = tuple(sections)
        if not self.sections:
            raise ValueError("a section map needs at least one section")
        expected = 1
        for section in self.sections:
            if section.first_slot != expected:
                raise ValueError(
                    f"section windows must tile [1, {cycles}]: gap at "
                    f"slot {expected}")
            expected = section.last_slot + 1
        if expected != cycles + 1:
            raise ValueError(
                f"section windows end at {expected - 1}, expected {cycles}")
        self._starts = [s.first_slot for s in self.sections]

    def __len__(self) -> int:
        return len(self.sections)

    def __iter__(self):
        return iter(self.sections)

    def owner(self, slot: int) -> Section:
        """The section owning injection slot ``slot``."""
        if not 1 <= slot <= self.cycles:
            raise IndexError(f"slot {slot} outside [1, {self.cycles}]")
        return self.sections[bisect_right(self._starts, slot) - 1]

    def owner_of(self, coordinate) -> Section:
        """The section owning a raw fault coordinate (either domain)."""
        return self.owner(coordinate.slot)

    def fingerprints(self) -> list[str]:
        return [s.fingerprint for s in self.sections]


def _block_successors(blocks, rom_len: int):
    """``start -> (successor starts, jalr-escape?)`` for every block.

    Successor targets are always block leaders by construction: in-range
    branch/``jal`` immediates are leaders, every control op makes the
    following pc a leader, and a block truncated by the next leader
    falls through to exactly that leader.  Out-of-range targets trap
    (``IllegalPC``) — state-determined, so they add nothing reachable.
    """
    successors = {}
    for block in blocks:
        last_pc, last = block.instrs[-1]
        targets = []
        escape = False
        op = last.op
        if op in BRANCH_OPS:
            if 0 <= last.imm < rom_len:
                targets.append(last.imm)
            if last_pc + 1 < rom_len:
                targets.append(last_pc + 1)
        elif op is Op.JAL:
            if 0 <= last.imm < rom_len:
                targets.append(last.imm)
        elif op is Op.JALR:
            escape = True
        elif op is not Op.HALT:
            # Block truncated by the next leader: plain fallthrough.
            if last_pc + 1 < rom_len:
                targets.append(last_pc + 1)
        successors[block.start] = (tuple(targets), escape)
    return successors


def _forward_closure(start: int, successors) -> tuple[frozenset, bool]:
    """All block leaders reachable from ``start``, plus escape flag."""
    seen = {start}
    stack = [start]
    escape = False
    while stack:
        leaders, esc = successors[stack.pop()]
        escape = escape or esc
        for target in leaders:
            if target not in seen:
                seen.add(target)
                stack.append(target)
    return frozenset(seen), escape


def _code_digest(encoded, leaders, blocks_by_start) -> str:
    """Hash a closure's instructions, each encoded once per map by pc
    (``leaders=None``: the whole ROM)."""
    if leaders is None:
        chunks = encoded
    else:
        chunks = [encoded[pc] for start in sorted(leaders)
                  for pc, _ in blocks_by_start[start].instrs]
    return hashlib.sha256(b"".join(chunks)).hexdigest()


def build_section_map(golden, domain: FaultDomain | str | None = None,
                      params: dict | None = None) -> SectionMap:
    """Partition a golden run into fingerprinted sections.

    ``params`` are the executor parameters that key campaign identity
    (timeout budget, early-stop); they enter every fingerprint because
    outcomes like TIMEOUT depend on them.  A section's entry-state
    digest is read off the golden checkpoint ladder when it has a rung
    at that cycle (a window opens on a block boundary, and every one is
    a rung at the auto stride for runs under ``MAX_CHECKPOINTS``
    boundaries); the others — cycle 0, a sparse or disabled ladder —
    come from one forward replay on the interpreter ``Machine``.  Both
    are the same state's digest, so the map is engine- and
    stride-independent.
    """
    domain = get_domain(domain)
    program = golden.program
    rom = program.rom
    blocks = _find_blocks(rom, program.entry, program_blocks(program).leaders)
    blocks_by_start = {b.start: b for b in blocks}
    starts = sorted(blocks_by_start)
    successors = _block_successors(blocks, len(rom))

    pcs = golden.executed_pcs()
    if len(pcs) != golden.cycles:
        raise ValueError(
            f"pc trace length {len(pcs)} != golden cycles {golden.cycles}")

    def block_of(pc: int) -> int:
        return starts[bisect_right(starts, pc) - 1]

    # First-visit windowing: a new section opens at slot t when the
    # block executing at t was never executed before.
    boundaries: list[int] = []
    visited: set[int] = set()
    for slot, pc in enumerate(pcs, start=1):
        leader = block_of(pc)
        if leader not in visited:
            visited.add(leader)
            boundaries.append(slot)
    windows = [
        (boundaries[i],
         boundaries[i + 1] - 1 if i + 1 < len(boundaries)
         else golden.cycles)
        for i in range(len(boundaries))
    ]

    params_text = canonical_params(params)
    # The code that computed a stored outcome, and this recipe: a
    # section another build stored never matches.
    build = build_key()
    ladder = golden.checkpoints
    rungs = dict(zip(ladder.cycles, ladder.digests)) if ladder else {}
    machine = Machine(program)

    def entry_digest(cycle: int) -> bytes:
        """State digest after ``cycle`` golden instructions."""
        digest = rungs.get(cycle)
        if digest is None:
            machine.run_to_cycle(cycle)  # windows ascend: forward only
            digest = machine.state_digest()
        return digest

    encoded = [
        f"{pc}:{int(ins.op)}:{ins.rd}:{ins.rs1}:{ins.rs2}:{ins.imm};".encode()
        for pc, ins in enumerate(rom)]
    #: closure (``None``: the whole ROM) → code digest.  Sections
    #: share closures — every escaping one hashes the same ROM.
    code_digests: dict = {}
    sections: list[Section] = []
    for index, (first, last) in enumerate(windows):
        closure, escape = _forward_closure(block_of(pcs[first - 1]),
                                           successors)
        if domain.control_hazard:
            # Domains that corrupt the pc itself (e.g. the "pc" domain)
            # can land execution on *any* instruction, so the static
            # forward closure no longer bounds reachable code; hash the
            # whole ROM, exactly like a reachable ``jalr``.
            escape = True
        hashed = None if escape else closure
        code = code_digests.get(hashed)
        if code is None:
            code = code_digests[hashed] = _code_digest(
                encoded, hashed, blocks_by_start)
        payload = json.dumps({
            "build": build,
            "domain": domain.name,
            "params": params_text,
            "first_slot": first,
            "last_slot": last,
            "entry": entry_digest(first - 1).hex(),
            "code": code,
            "ram_size": program.ram_size,
            "rom_len": len(rom),
        }, sort_keys=True, separators=(",", ":"))
        fingerprint = hashlib.sha256(payload.encode()).hexdigest()[:32]
        sections.append(Section(
            index=index, first_slot=first, last_slot=last,
            fingerprint=fingerprint,
            leaders=tuple(sorted(closure)), escape=escape))
    return SectionMap(program_name=program.name, domain=domain.name,
                      cycles=golden.cycles, sections=sections)


# -- per-section Pitfall-1 weighting ----------------------------------------


def section_weighted_counts(section_map: SectionMap, live_intervals,
                            class_outcomes, *, domain, space):
    """Def/use-weighted outcome counters, split per section.

    ``class_outcomes`` maps ``domain.class_key(interval)`` to the
    per-experiment outcome sequence of that class.  Each live class's
    weight (``length × Σ experiment_slot_weights``, which equals
    ``interval.weight_bits``) is split across the sections its interval
    overlaps, proportionally to the overlapping slot count; the
    remaining weight of each section — dead intervals and never-touched
    cells — is exact residual NO_EFFECT mass, so no dead-class list is
    needed.  Summing the returned counters over sections reproduces the
    whole-program weighted counts bit for bit, which is what keeps the
    paper's Pitfall-1 correction sound under composition (see
    :func:`aggregate_section_counts`).
    """
    from ..campaign.outcomes import Outcome

    domain = get_domain(domain)
    if space.size % section_map.cycles:
        raise ValueError("fault space size not slot-uniform")
    per_slot = space.size // section_map.cycles
    counts: dict[int, Counter] = {s.index: Counter()
                                  for s in section_map.sections}
    live_weight: dict[int, int] = {s.index: 0 for s in section_map.sections}
    for interval in live_intervals:
        outcomes = class_outcomes[domain.class_key(interval)]
        weights = domain.experiment_slot_weights(interval)
        first = section_map.owner(interval.first_slot).index
        last = section_map.owner(interval.last_slot).index
        for section in section_map.sections[first:last + 1]:
            overlap = (min(interval.last_slot, section.last_slot)
                       - max(interval.first_slot, section.first_slot) + 1)
            if overlap <= 0:  # pragma: no cover - owner() bounds this
                continue
            counter = counts[section.index]
            for outcome, weight in zip(outcomes, weights):
                counter[outcome] += overlap * weight
            live_weight[section.index] += overlap * sum(weights)
    for section in section_map.sections:
        dead = section.slots * per_slot - live_weight[section.index]
        if dead < 0:  # pragma: no cover - partition invariant
            raise AssertionError(
                f"section {section.index} live weight exceeds its space")
        counts[section.index][Outcome.NO_EFFECT] += dead
    return counts


def aggregate_section_counts(per_section) -> Counter:
    """Fold per-section counters back into whole-program counts."""
    total: Counter = Counter()
    for counter in per_section.values():
        total.update(counter)
    return total
