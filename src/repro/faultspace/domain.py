"""Fault domains: one campaign stack, many fault models (Section VI-B).

The paper restricts its fault model to main memory, but Section VI-B
argues the three pitfalls and their remedies apply to *any* state whose
reads and writes can be traced — CPU registers, caches, microarchitectural
state.  A :class:`FaultDomain` bundles everything the campaign engine
needs to know about one such fault model:

* the **fault space** spanned by a golden run (``Δt × Δm`` memory bits,
  ``Δt × 15 regs × 32 bits``, ...) — one
  :class:`~repro.faultspace.model.CellSpace` grid, whose coordinate
  factory and cell accessor connect classes, raw coordinates and
  campaign dictionaries;
* the **def/use partition builder** that prunes that space into
  equivalence classes (:class:`~repro.faultspace.defuse.CellInterval`
  for every def/use model);
* the **injector** that applies a fault coordinate to a paused machine,
  and the **criticality** query that may prove it harmless.

The generic runners (:mod:`repro.campaign.runner`), the fabric
(:mod:`repro.campaign.dist`), the samplers
(:mod:`repro.faultspace.sampling`), persistence and metrics are all
written against this interface, so a new fault model (multi-bit faults,
instruction operands, ...) is one subclass plus a :data:`DOMAINS` entry —
not another fork of the campaign stack.

The six built-in domains (:data:`DOMAINS`: memory, register, burst2,
burst4, stuck, pc) are stateless singletons.  A campaign's workers are
forked fabric workers that resolve the domain by its registry name, and
``get_domain`` accepts either a domain instance or that name, so every
public API takes ``domain="register"`` as a convenience.
"""

from __future__ import annotations

from typing import Iterator

from .burst import BurstFaultSpace, BurstPartition, burst_positions
from .defuse import DefUsePartition
from .model import FaultCoordinate, FaultSpace
from .pcreg import PCFaultCoordinate, PCFaultSpace, PCInterval, PCPartition
from .registers import (
    RegisterFaultCoordinate,
    RegisterFaultSpace,
    RegisterPartition,
)
from .stuckat import StuckAtCoordinate, StuckAtFaultSpace, StuckAtPartition


class FaultDomain:
    """Interface one fault model exposes to the generic campaign stack.

    A subclass defines ``name`` (registry key, also used for
    persistence) and ``space_type`` (its
    :class:`~repro.faultspace.model.CellSpace` class), and implements
    :meth:`fault_space`, :meth:`build_partition`, :meth:`inject` and
    :meth:`cell_critical`.  The coordinate and axis hooks are answered
    from the space type, whose cells are the spatial axis; ``bits`` is
    its units unless the domain states otherwise.  A domain whose
    classes are not one cell each (the PC's grouped classes) overrides
    the hooks that differ.  Instances must be stateless: fabric workers
    resolve them by name.

    Two capability flags tell the engines what a model needs; the
    conservative default is chosen so that *forgetting* to set a flag
    yields a slower-but-correct campaign, never a wrong one:

    ``persistent``
        Injection arms state that outlives the injection instant (the
        stuck-at latch); engines must preserve it across snapshot /
        restore and the compiled tier must leave its store-inlining
        fast path while a fault is armed.
    ``control_hazard``
        A fault can redirect control flow *directly* (not via data), so
        section fingerprints must cover the whole ROM rather than the
        golden run's forward closure.
    """

    #: Registry name, also stored in :class:`CampaignSummary.domain`.
    name: str = ""
    #: The model's :class:`~repro.faultspace.model.CellSpace` class.
    space_type: type
    #: Injection arms state that outlives the injection instant.
    persistent: bool = False
    #: Faults redirect control flow directly (PC corruption).
    control_hazard: bool = False

    # -- spaces and partitions ------------------------------------------------

    def fault_space(self, golden):
        """The fault space one golden run spans in this domain."""
        raise NotImplementedError

    def build_partition(self, golden):
        """Def/use-prune the domain's fault space (validated)."""
        raise NotImplementedError

    @property
    def bits(self) -> int:
        """Bits per spatial unit == experiments per live class."""
        return self.space_type.units

    # -- coordinates and classes ----------------------------------------------

    def axis_of(self, interval) -> int:
        """The spatial-axis index of an equivalence class (addr / reg)."""
        return self.space_type.cell(interval)

    def class_key(self, interval) -> tuple[int, int]:
        """Hashable identity of a class: ``(axis, first_slot)``."""
        return (self.axis_of(interval), interval.first_slot)

    def plan_cell(self, interval) -> int:
        """The cell a shard plan keeps whole: the class's axis.  The
        state memo's hits chain one cell's classes (DESIGN §3c), so a
        cell cut across shards loses them."""
        return self.axis_of(interval)

    def coordinate(self, slot: int, axis: int, bit: int):
        """Build a raw fault coordinate from (slot, axis, bit)."""
        return self.space_type.point(slot, axis, bit)

    def coordinate_axis(self, coordinate) -> int:
        """The spatial-axis index of a raw coordinate."""
        return self.space_type.cell(coordinate)

    def slot_coordinates(self, space, slot: int) -> Iterator:
        """All raw coordinates of one injection slot, in scan order:
        the slot's row of the space's grid."""
        row = space.slot_bits
        return map(space.coordinate, range((slot - 1) * row, slot * row))

    # -- experiments per class ------------------------------------------------
    #
    # The default hook implementations encode the classic def/use shape
    # (``bits`` experiments per class, one per bit, each standing for
    # one coordinate per covered slot) and are bit- and RNG-exact with
    # the pre-hook behaviour of the memory and register domains.
    # Domains with grouped or irregular classes (the PC domain's
    # illegal-target group) override them.

    def experiment_count(self, interval) -> int:
        """Representative experiments a live class needs."""
        return self.bits

    def experiment_index(self, interval, coordinate) -> int:
        """Index of the experiment standing for ``coordinate``.

        Inverse of :meth:`experiment_coordinate` up to equivalence:
        every coordinate of the class maps to the index of the
        representative whose outcome it shares.
        """
        return coordinate.bit

    def experiment_coordinate(self, interval, index: int):
        """The class's ``index``-th representative fault coordinate."""
        return self.coordinate(interval.injection_slot,
                               self.axis_of(interval), index)

    def experiment_slot_weights(self, interval) -> tuple[int, ...]:
        """Raw coordinates each experiment stands for, per covered slot.

        ``interval.length * sum(...)`` must equal
        ``interval.weight_bits`` — the Pitfall 1 weighting contract
        checked by the property suite.
        """
        return (1,) * self.experiment_count(interval)

    def interval_coordinate(self, interval, offset: int):
        """The ``offset``-th raw coordinate covered by a class.

        Enumerates the class's ``weight_bits`` coordinates in a fixed
        order; samplers use it to map uniform flat draws inside a class
        to concrete coordinates (Pitfall 2 uniformity).
        """
        slot_offset, bit = divmod(offset, self.bits)
        return self.coordinate(interval.first_slot + slot_offset,
                               self.axis_of(interval), bit)

    # -- injection ------------------------------------------------------------

    def inject(self, machine, coordinate) -> None:
        """Apply the fault to a machine paused at the injection slot."""
        raise NotImplementedError

    # -- criticality ----------------------------------------------------------

    def cell_critical(self, criticality, coordinate) -> bool:
        """Can the fault at ``coordinate`` ever influence the outcome?

        Queries a :class:`~.slicing.CriticalityMap` at the *point* the
        coordinate corrupts — the state after ``slot - 1`` instructions,
        visible to the ``slot``-th.  ``False`` is a proof that the
        experiment's outcome is exactly the golden outcome (see the
        soundness argument in :mod:`repro.faultspace.slicing`).  The
        answer may depend on the slot and the coordinate's cell only:
        the executor asks once per cell of a slot.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultDomain {self.name!r}>"


class MemoryDomain(FaultDomain):
    """The paper's fault model: single bit flips in main memory."""

    name = "memory"
    space_type = FaultSpace

    def fault_space(self, golden) -> FaultSpace:
        return golden.fault_space

    def build_partition(self, golden) -> DefUsePartition:
        return golden.partition()

    def plan_cell(self, interval) -> int:
        # The aligned word, not the byte: the classes one ``lw`` reads
        # share its injection slot, one pristine snapshot and one
        # ``run_many`` group.
        return self.axis_of(interval) >> 2

    def inject(self, machine, coordinate: FaultCoordinate) -> None:
        machine.flip_bit(coordinate.addr, coordinate.bit)

    def cell_critical(self, criticality,
                      coordinate: FaultCoordinate) -> bool:
        return criticality.byte_critical(coordinate.slot - 1,
                                         coordinate.addr)


class RegisterDomain(FaultDomain):
    """Section VI-B: single bit flips in the general-purpose registers."""

    name = "register"
    space_type = RegisterFaultSpace

    def fault_space(self, golden) -> RegisterFaultSpace:
        return RegisterFaultSpace(cycles=golden.cycles)

    def build_partition(self, golden) -> RegisterPartition:
        partition = RegisterPartition.from_pc_trace(
            golden.program.rom, golden.executed_pcs())
        partition.validate()
        return partition

    def inject(self, machine, coordinate: RegisterFaultCoordinate) -> None:
        machine.flip_register_bit(coordinate.reg, coordinate.bit)

    def cell_critical(self, criticality,
                      coordinate: RegisterFaultCoordinate) -> bool:
        return criticality.reg_critical(coordinate.slot - 1,
                                        coordinate.reg)


class BurstDomain(FaultDomain):
    """Multi-bit upsets: ``width`` adjacent bits of one byte flip at once.

    The coordinate's ``bit`` field holds the burst *start* position
    (``0 .. 8-width``); the burst width is part of the domain name
    (``burst2`` / ``burst4``), which folds it into every campaign
    identity and section fingerprint automatically.
    """

    space_type = BurstFaultSpace

    def __init__(self, width: int):
        self.width = width
        self.name = f"burst{width}"

    @property
    def bits(self) -> int:
        return burst_positions(self.width)

    def fault_space(self, golden) -> BurstFaultSpace:
        return BurstFaultSpace(cycles=golden.cycles,
                               ram_bytes=golden.fault_space.ram_bytes,
                               width=self.width)

    def build_partition(self, golden) -> BurstPartition:
        partition = BurstPartition.from_trace(golden.trace,
                                              self.fault_space(golden))
        partition.validate()
        return partition

    def inject(self, machine, coordinate: FaultCoordinate) -> None:
        for bit in range(coordinate.bit, coordinate.bit + self.width):
            machine.flip_bit(coordinate.addr, bit)

    # Criticality is tracked per byte: if the byte cannot influence the
    # outcome, neither can any burst inside it.
    cell_critical = MemoryDomain.cell_critical
    plan_cell = MemoryDomain.plan_cell


class StuckAtDomain(FaultDomain):
    """Stuck-at-until-write faults: a RAM bit forced to 0/1 (DAVOS)."""

    name = "stuck"
    space_type = StuckAtFaultSpace
    #: The latch outlives the injection instant.
    persistent = True

    def fault_space(self, golden) -> StuckAtFaultSpace:
        return StuckAtFaultSpace(cycles=golden.cycles,
                                 ram_bytes=golden.fault_space.ram_bytes)

    def build_partition(self, golden) -> StuckAtPartition:
        partition = StuckAtPartition.from_trace(golden.trace,
                                                self.fault_space(golden))
        partition.validate()
        return partition

    def inject(self, machine, coordinate: StuckAtCoordinate) -> None:
        machine.stuck_at(coordinate.addr, coordinate.bitpos,
                         coordinate.value)

    def cell_critical(self, criticality,
                      coordinate: StuckAtCoordinate) -> bool:
        # The backward slice argues about a transient corruption of the
        # state *at one point*; an armed latch keeps corrupting every
        # later re-read of the byte, so the slice proof does not apply.
        return True

    plan_cell = MemoryDomain.plan_cell


class PCDomain(FaultDomain):
    """Single bit flips in the program counter (Section VI-B's list)."""

    name = "pc"
    space_type = PCFaultSpace
    bits = 1  # every PC class has exactly one representative experiment
    #: A flipped PC transfers control anywhere in the ROM.
    control_hazard = True

    def fault_space(self, golden) -> PCFaultSpace:
        return PCFaultSpace(cycles=golden.cycles)

    def build_partition(self, golden) -> PCPartition:
        partition = PCPartition.from_pc_trace(
            len(golden.program.rom), golden.executed_pcs())
        partition.validate()
        return partition

    def axis_of(self, interval: PCInterval) -> int:
        return interval.axis

    def coordinate_axis(self, coordinate: PCFaultCoordinate) -> int:
        # A raw PC coordinate's class axis depends on the golden pc at
        # its slot (partition state); as a pure journal/sort key the
        # physical bit is deterministic and collision-free per slot.
        return coordinate.bit

    # -- grouped-class experiment hooks ---------------------------------------

    def experiment_count(self, interval: PCInterval) -> int:
        return 1

    def experiment_index(self, interval: PCInterval, coordinate) -> int:
        return 0

    def experiment_coordinate(self, interval: PCInterval, index: int):
        if index != 0:
            raise IndexError(f"PC classes have one experiment, not {index}")
        return PCFaultCoordinate(slot=interval.slot,
                                 bit=interval.members[0])

    def experiment_slot_weights(self,
                                interval: PCInterval) -> tuple[int, ...]:
        return (len(interval.members),)

    def interval_coordinate(self, interval: PCInterval, offset: int):
        return PCFaultCoordinate(slot=interval.slot,
                                 bit=interval.members[offset])

    def inject(self, machine, coordinate: PCFaultCoordinate) -> None:
        machine.flip_pc_bit(coordinate.bit)

    def cell_critical(self, criticality,
                      coordinate: PCFaultCoordinate) -> bool:
        # The criticality map has no PC timeline — the PC steers every
        # subsequent instruction, so no pre-skip proof exists.
        return True


#: The built-in domains, as shared stateless singletons.
MEMORY = MemoryDomain()
REGISTER = RegisterDomain()
BURST2 = BurstDomain(2)
BURST4 = BurstDomain(4)
STUCK = StuckAtDomain()
PC = PCDomain()

#: Registry of available fault domains, keyed by name.  Third-party
#: domains register here to become usable via ``domain="<name>"`` in
#: every campaign entry point (and via ``--domain`` on the CLI).
DOMAINS: dict[str, FaultDomain] = {
    MEMORY.name: MEMORY,
    REGISTER.name: REGISTER,
    BURST2.name: BURST2,
    BURST4.name: BURST4,
    STUCK.name: STUCK,
    PC.name: PC,
}


def get_domain(domain: FaultDomain | str | None) -> FaultDomain:
    """Resolve a domain argument: an instance, a registry name, or None.

    ``None`` means the default (memory) domain, preserving the behaviour
    of every pre-domain API.
    """
    if domain is None:
        return MEMORY
    if isinstance(domain, FaultDomain):
        return domain
    try:
        return DOMAINS[domain]
    except KeyError:
        available = ", ".join(sorted(DOMAINS))
        raise ValueError(
            f"unknown fault domain {domain!r}; available: {available}"
        ) from None
