"""Single fault-injection experiment execution.

One experiment (Section III-B): run the benchmark from the beginning
until the injection slot, pause, flip the bit, resume, observe.

:class:`ExperimentExecutor` keeps a *pristine* machine that is advanced
monotonically through the golden instruction stream and forked (via
snapshots) at each injection slot.  When experiments are executed in
ascending slot order — the runner guarantees this — every pre-injection
instruction is executed exactly once across the whole campaign instead
of once per experiment, which turns the full-scan cost from
O(experiments × Δt) into O(Δt + Σ post-injection cycles).

The *post*-injection half of that sum is cut by the **convergence
early-exit** (``ExecutorConfig.use_convergence``, on by default): most
experiments under the uniform bit-flip model are benign — the flipped
bit is dead, overwritten, or corrected by a hardening mechanism — and
the faulty machine becomes state-identical to the golden run within a
few dozen cycles of injection.  The executor therefore pauses the
faulty machine at exponentially backed-off checkpoints and compares
its :meth:`~repro.isa.cpu.Machine.state_digest` against the golden
run's :class:`~.golden.CheckpointLadder` digest table.  On a match the
remaining execution is *provably* identical to the golden suffix
starting at the matched golden cycle — the machine is deterministic
and the digest covers all state that drives execution — so the
experiment is classified from golden facts alone and the rest of the
tail is skipped.  Three refinements make the hit rate high and the
miss cost low:

* Matches at a *shifted* cycle (the fault inserted or removed a
  constant number of cycles before the state re-joined the golden
  trajectory — the typical shape of a detect-and-correct recovery) are
  equally sound: the suffix is still the golden suffix, only the end
  cycle moves by the shift.  The ladder has a rung at every golden
  block boundary (up to :data:`~.golden.MAX_CHECKPOINTS`), the only
  cycles a probe stops at, precisely so that a check at any faulty
  stop can match whatever the shift is.
* A probe costs what it is worth on its engine.  The first gap is the
  engine's probe cost in cycles
  (:attr:`~repro.engine.ExecutionEngine.probe_gap`: 1 interpreted,
  128 under the JIT, where a digest buys that many cycles), and
  :meth:`~repro.isa.cpu.Machine.run_to_boundary` stops a machine of
  either engine on the basic-block boundary after the target instead
  of single-stepping a budget tail — a match classifies identically
  at whichever instruction boundary it is found.
* Check gaps double after every miss, so a run that never converges
  (a real failure) pays O(log tail) digests instead of a fixed
  per-stride toll, while a converging run is still caught within ~2×
  its convergence latency.

A fourth early exit needs no digest at all: the **criticality
pre-skip**.  A backward slice of the golden run
(:mod:`repro.faultspace.slicing`) proves, per fault-space cell and
injection point, whether a corrupt value there can ever reach an
observable sink (serial output, control flow, a memory address, a
trapping divisor).  When it cannot, the experiment's outcome *is* the
golden outcome and the executor classifies it before running a single
post-injection cycle.

Runs that never re-join the golden trajectory (a consistent wrong
value survives to the end) are cut by the **state memo**: most of
them are, some cycles on, in exactly the state an earlier experiment
passed through *at the same cycle*.  The seek therefore also stops on
an absolute cycle grid (:data:`MEMO_GRID`), where such runs meet, and
a digest found in the memo of earlier faulty states inherits how that
run ended (:meth:`ExperimentExecutor._seek_convergence`).

Runs that stay *on* the golden path but carry a difference the golden
run is not about to touch (a wrong value sealed consistently into data,
replica and checksum; a stale scratch register) execute, until the
next touch, exactly the golden instructions on exactly the golden
operands.  The **golden fast-forward** skips such stretches: a stop
that recognised nothing diffs the machine against the golden state of
the same cycle and, when every differing cell is idle for at least a
probe gap, restores the last golden state before the next touch with
the differing cells written back
(:meth:`ExperimentExecutor._fast_forward`; the induction is DESIGN.md
§3c, "Golden fast-forward").

:meth:`ExperimentExecutor.run_many` is the executor's one batch entry
point: the coordinates of **one injection slot** in, one ``(outcome,
end_cycle, trap)`` tuple per coordinate out.  A campaign joins those
facts straight into the runs it stores, so the hot path builds no
:class:`ExperimentRecord`; :meth:`ExperimentExecutor.run` makes one for
the callers that want it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from ..engine import ExecutionEngine, get_engine
from ..faultspace.domain import FaultDomain, MEMORY, get_domain
from ..faultspace.registers import register_reads, register_writes
from ..faultspace.slicing import backward_slice
from ..faultspace.model import FaultCoordinate
from ..isa.cpu import Machine, MachineState
from ..isa.errors import CPUException
from ..isa.isa import NUM_REGS
from .golden import GoldenRun
from .outcomes import Outcome, PANIC_CODE, classify


def _classify_diverged(detections: tuple[tuple[int, int], ...]) -> Outcome:
    """Failure mode for a run stopped at its first wrong output byte."""
    if any(code >= PANIC_CODE for _, code in detections):
        return Outcome.DETECTED_FAIL_STOP
    if detections:
        return Outcome.DETECTED_UNCORRECTED
    return Outcome.SDC

#: State-memo probe grid in ladder strides: the convergence seek also
#: stops at the first block boundary at/after every absolute multiple.
#: Measured (``chain-sumdmr`` × memory: 5.9 / 6.3 / 7.2 s at 256 / 512 /
#: 1024), not configurable; tests move it by monkeypatch.
MEMO_GRID = 256

#: Byte budget of the golden fast-forward's state index (one
#: :class:`~repro.isa.cpu.MachineState` per stop of a fault-free run,
#: thinned to every n-th above it): ``chain-sumdmr`` keeps all 613
#: stops in half of it; a large program cannot blow RSS.
GOLDEN_INDEX_BYTES = 1 << 20
#: Most cells a faulty state may differ from the golden one in and
#: still be fast-forwarded; a wider difference is a run gone astray,
#: and its next golden touch is never far.
MAX_DIFFERING_CELLS = 16

#: Default multiple of the golden runtime before declaring a timeout.
DEFAULT_TIMEOUT_FACTOR = 3.0
#: Minimum extra cycles granted beyond the golden runtime.
DEFAULT_TIMEOUT_SLACK = 256


@dataclass(frozen=True)
class ExecutorConfig:
    """Picklable executor settings.

    Executors themselves are not picklable (they own live machines), so
    each fabric worker builds its own executor from the campaign's
    config via :meth:`build`.  An unknown engine name is
    refused here, on every transport alike.
    """

    timeout_factor: float = DEFAULT_TIMEOUT_FACTOR
    timeout_slack: int = DEFAULT_TIMEOUT_SLACK
    use_snapshots: bool = True
    early_stop: bool = True
    #: Classify experiments early when the faulty machine's state digest
    #: re-joins the golden checkpoint ladder.  Outcome-invariant (the
    #: differential tests prove bit-for-bit identity), so it is *not*
    #: part of the journal campaign key; requires the golden run to
    #: carry a :class:`~.golden.CheckpointLadder`.
    use_convergence: bool = True
    #: Fault-domain registry name; workers resolve it to the singleton.
    domain: str = MEMORY.name
    #: Execution-engine registry name (see :mod:`repro.engine`).  Like
    #: ``use_convergence`` this is outcome-invariant — the equivalence
    #: tests prove bit-for-bit identical campaign results across
    #: engines — so it is not part of the journal campaign key.
    engine: str = "compiled"

    def __post_init__(self):
        get_engine(self.engine)  # raises ValueError naming the engines

    def timeout_cycles(self, golden_cycles: int) -> int:
        """Cycle budget before a run is classified as a timeout.

        This is the paper's hang detector: a faulty run may legitimately
        take somewhat longer than the golden run, but one that exceeds a
        multiple of the golden runtime (plus fixed slack for tiny
        programs) will never halt and is classified
        :data:`~.outcomes.Outcome.TIMEOUT`.  It is the only source of
        that outcome, and the only bound on a run: no transport reads a
        wall clock to cut one short.
        """
        if self.timeout_factor < 1.0:
            raise ValueError("timeout_factor must be >= 1.0")
        return max(int(golden_cycles * self.timeout_factor),
                   golden_cycles + self.timeout_slack)

    # partition= is pinned by benchmarks/e2e/child.py; goes with ROADMAP item 4.
    def build(self, golden: "GoldenRun",
              partition=None) -> "ExperimentExecutor":
        """Construct an executor for ``golden`` with these settings."""
        return ExperimentExecutor(golden,
                                  timeout_factor=self.timeout_factor,
                                  timeout_slack=self.timeout_slack,
                                  use_snapshots=self.use_snapshots,
                                  early_stop=self.early_stop,
                                  use_convergence=self.use_convergence,
                                  domain=self.domain,
                                  engine=self.engine)


class EndFacts(NamedTuple):
    """How a run ended (observed, or inferred at an early exit).

    As a state-memo *suffix*: ``serial`` and ``detections`` hold only
    what followed the memoised state.
    """

    trap: str
    diverged: bool
    halted: bool
    serial: bytes
    detections: tuple
    cycle: int


@dataclass(frozen=True)
class ExperimentRecord:
    """The result of one fault-injection experiment."""

    coordinate: FaultCoordinate
    outcome: Outcome
    #: Cycle count when the run ended (halt, trap, or timeout).
    end_cycle: int
    #: Trap name if the run ended in a CPU exception, else "".
    trap: str = ""


class ExperimentExecutor:
    """Executes experiments against one golden run.

    Not thread-safe; create one executor per worker.  Experiments may be
    submitted in any order, but ascending injection-slot order enables
    the snapshot fast-forward optimization (out-of-order slots force a
    rewind, i.e. a fresh re-run of the pre-injection prefix).
    """

    def __init__(self, golden: GoldenRun, *,
                 timeout_factor: float = DEFAULT_TIMEOUT_FACTOR,
                 timeout_slack: int = DEFAULT_TIMEOUT_SLACK,
                 use_snapshots: bool = True,
                 early_stop: bool = True,
                 use_convergence: bool = True,
                 domain: FaultDomain | str = MEMORY,
                 engine: ExecutionEngine | str | None = None):
        self.golden = golden
        self.domain = get_domain(domain)
        self.engine = get_engine(engine)
        self.timeout_cycles = ExecutorConfig(
            timeout_factor=timeout_factor,
            timeout_slack=timeout_slack).timeout_cycles(golden.cycles)
        self.use_snapshots = use_snapshots
        self.early_stop = early_stop
        self.use_convergence = use_convergence
        ladder = golden.checkpoints
        if use_convergence and ladder is not None and ladder.digests:
            self._stride = ladder.stride
            self._golden_cycle_of = ladder.lookup()
        else:
            # No ladder (recorded with stride 0) or convergence
            # disabled: every tail runs to completion.
            self._stride = 0
            self._golden_cycle_of = {}
        oracle = golden.output if early_stop else None
        self._machine = self.engine.create_machine(golden.program,
                                                   oracle=oracle)
        self._pristine = self.engine.create_machine(golden.program)
        self._snapshot: MachineState | None = None
        # Criticality map for the pre-run skip; built lazily on the
        # first experiment (never needed when convergence is off).
        self._criticality = None
        #: What every slice-dead experiment shares: the golden end.
        self._golden_facts = (
            classify(golden_output=golden.output, output=golden.output,
                     halted_cleanly=True, trapped=False, timed_out=False),
            golden.cycles, "")
        #: State memo, a bucket per grid mark: ``digest ‖ cycle`` of an
        #: earlier experiment's state -> how that run went on from there.
        self._memo: dict[int, dict[bytes, EndFacts]] = {}
        self._suffixes: dict[EndFacts, EndFacts] = {}  # interned: few
        #: Grid index of the last slot whose passing swept the memo.
        self._swept = -1
        # Golden fast-forward: the state index and the per-cell touch
        # lists are built on first use, like the criticality map.  A
        # jump must skip at least a probe's worth of cycles to pay for
        # its restore, and the stop after it leaves the touch a quarter
        # of that to show what it did to the difference.
        self._golden_states: dict[int, MachineState] | None = None
        self._golden_stops: list[int] = []
        self._touches: dict[int, list[int]] = {}
        self._carried: list[int] = []  # RAM bytes the last full diff found
        self._jump_floor = self.engine.probe_gap
        self._lockstep_lead = self.engine.probe_gap // 4
        #: Number of pre-injection rewinds (diagnostics for the ablation
        #: benchmark): 0 in process, where experiments arrive
        #: slot-sorted; a fabric worker rewinds once per lease after its
        #: first, as each of a scan's shards spans the slot range.
        self.rewinds = 0
        #: Experiments classified early: their state digest matched a
        #: golden checkpoint or a state in the memo.
        self.convergence_hits = 0
        #: The :attr:`convergence_hits` that were state-memo hits.
        self.memo_hits = 0
        #: Experiments classified without running at all because the
        #: backward slice proved the injected cell non-critical.
        self.slice_hits = 0
        #: Checkpoint boundaries at which a digest was computed and
        #: compared (diagnostics: overhead per skipped tail).
        self.convergence_checks = 0
        #: Golden fast-forwards taken, and the cycles they skipped.
        self.jumps = 0
        self.cycles_skipped = 0

    def run(self, coordinate: FaultCoordinate) -> ExperimentRecord:
        """Run one experiment and classify its outcome: the executor's
        only record, for callers that ask for one."""
        return ExperimentRecord(coordinate, *self.run_many([coordinate])[0])

    def run_many(self, coordinates) -> list[tuple[Outcome, int, str]]:
        """Run the experiments of one injection slot: ``(outcome,
        end_cycle, trap)`` per coordinate, in input order.

        The slot is checked, its pristine state fetched and each cell's
        criticality asked once per call; coordinates of another slot
        are refused.  Callers should submit slots ascending for the
        snapshot fast-forward to pay off.
        """
        if not coordinates:
            return []
        slot = coordinates[0].slot
        if slot > self.golden.cycles:
            raise ValueError(
                f"slot {slot} beyond golden runtime {self.golden.cycles}")
        for coordinate in coordinates:
            if coordinate.slot != slot:
                raise ValueError(
                    f"run_many takes one injection slot, got {slot} "
                    f"and {coordinate.slot}")
        # The criticality pre-skip (convergence on only): a corrupt
        # value that provably never reaches an observable sink
        # reproduces the golden run cycle for cycle, so its experiment
        # is not run.  The answer is per cell at this slot.
        critical = {} if self.use_convergence else None
        cell_of = self.domain.space_type.cell
        machine = self._machine
        inject, finish = self._inject, self._finish
        snapshots = self.use_snapshots
        state = None
        facts = []
        for coordinate in coordinates:
            if critical is not None:
                cell = cell_of(coordinate)
                live = critical.get(cell)
                if live is None:
                    live = critical[cell] = self._cell_critical(coordinate)
                if not live:
                    self.slice_hits += 1
                    facts.append(self._golden_facts)
                    continue
            if snapshots:
                if state is None:
                    state = self._state_at(slot - 1)
                machine.restore(state)
            else:
                machine.reset()
                machine.run_to_cycle(slot - 1)
            inject(machine, coordinate)
            facts.append(finish(machine, coordinate))
        return facts

    def _finish(self, machine: Machine,
                coordinate) -> tuple[Outcome, int, str]:
        """Run an injected machine to its end and classify the outcome.

        Early exits, whose end facts are inferred, classify through the
        same code as a run executed to its end.
        """
        memo = self._memo
        slot = coordinate.slot
        if memo and (passed := (slot - 1) // (MEMO_GRID * self._stride)) \
                != self._swept:
            # Drop behind the scan: no later slot stops at a mark below
            # it (and the intern table restarts, so it stays bounded
            # too).  A run only opens buckets at marks >= its slot, in
            # any order, so nothing falls behind until the slot passes
            # the next mark.
            self._swept = passed
            for mark in [mark for mark in memo if mark < slot]:
                del memo[mark]
                self._suffixes.clear()
        trap = ""
        end = None
        pending: list = []
        try:
            if self._stride:
                end = self._seek_convergence(machine, pending)
            if end is None:
                machine.run(self.timeout_cycles)
        except CPUException as exc:
            trap = exc.trap_name
        if end is None:
            end = EndFacts(trap, machine.diverged, machine.halted,
                           bytes(machine.serial),
                           tuple(machine.detections), machine.cycle)
        trap, diverged, halted, serial, detections, cycle = end
        for bucket, key, n_serial, n_detections in pending:
            # What this run did after each memo miss is now a fact.
            suffix = EndFacts(trap, diverged, halted, serial[n_serial:],
                              detections[n_detections:], cycle)
            bucket[key] = self._suffixes.setdefault(suffix, suffix)
        if diverged:
            # Early stop on first deviating output byte: the run can
            # never be benign again, so it is a failure; attribute the
            # mode from what was observed up to the divergence.
            return _classify_diverged(detections), cycle, trap
        trapped = bool(trap)
        return classify(golden_output=self.golden.output,
                        output=serial,
                        halted_cleanly=halted and not trapped,
                        trapped=trapped,
                        timed_out=not halted and not trapped,
                        detections=detections), cycle, trap

    # -- convergence early-exit ------------------------------------------------

    def _probe_after(self, cycle: int, gap: int) -> int | None:
        """The probe position ``gap`` cycles past ``cycle``, if any.

        Gaps start at the engine's
        :attr:`~repro.engine.ExecutionEngine.probe_gap` and double
        after every miss; positions are aligned up to the ladder stride
        (a rung is the first block boundary past a multiple of it, so
        that is where a zero-shift run can match).
        ``None`` once past the cycle budget: no probe carries a machine
        to ``timeout_cycles``, so timeouts end there.
        """
        target = cycle + gap
        target += -target % self._stride
        return target if target < self.timeout_cycles else None

    def _seek_convergence(self, machine: Machine,
                          pending: list) -> EndFacts | None:
        """Advance probe-to-probe until a state is recognised.

        Returns the run's :class:`EndFacts` when its state matched a
        golden checkpoint or a memoised faulty state, or ``None`` when
        the run ended (halt, divergence; traps propagate to the
        caller) or exhausted the cycle budget first.  On ``None`` the
        caller's ``machine.run(timeout_cycles)`` finishes the tail, so
        classification stays byte-identical to the non-convergent
        executor.

        Stops follow the relative doubling schedule and, while that
        lasts, the absolute :data:`MEMO_GRID`; one digest per stop.  A
        grid stop that misses both tables joins ``pending``;
        :meth:`_finish` stores under its key what the run went on to
        do, and a later run in that state *at that cycle* ends as its
        own serial and detections so far plus that suffix (why this is
        sound: DESIGN.md §3c, "State memo").

        A stop that recognised nothing, on the golden path, is diffed
        against the golden state of its cycle and fast-forwarded over
        the stretch in which the golden run touches no differing cell
        (:meth:`_fast_forward`).  The stop after a jump is the first
        indexed one :attr:`_lockstep_lead` cycles past the touch, with
        no grid stop in between (jumps pass grid marks), and there the
        diff *is* the convergence check: empty means re-joined.  No
        digest is taken — unless a mark was passed on the way: then
        this stop is the memo's, and runs that jump the same stretch
        meet on it.
        """
        table = self._golden_cycle_of
        grid = MEMO_GRID * self._stride
        gap = self.engine.probe_gap
        target = self._probe_after(machine.cycle, gap)
        mark = machine.cycle - machine.cycle % grid + grid
        limit = self.timeout_cycles
        states = self._golden_states
        if states is None:
            states = self._index_golden_states()
        lockstep = False
        while target is not None:
            machine.run_to_boundary(
                target if lockstep else min(target, mark), limit)
            if machine.halted:
                return None
            cycle = machine.cycle
            # (Most stops are off the golden path: a dict miss.)
            state = self._golden_state(machine) if cycle in states else None
            if state is None or not lockstep or cycle >= mark:
                self.convergence_checks += 1
                digest = machine.state_digest()
                matched = table.get(digest)
                if matched is not None:
                    return self._rejoin_facts(matched, cycle,
                                              bytes(machine.serial),
                                              tuple(machine.detections))
                if cycle >= mark:
                    bucket = self._memo.setdefault(cycle - cycle % grid, {})
                    key = digest + cycle.to_bytes(8, "little")
                    suffix = bucket.get(key)
                    if suffix is not None:
                        self.convergence_hits += 1
                        self.memo_hits += 1
                        return EndFacts(
                            suffix.trap, suffix.diverged, suffix.halted,
                            bytes(machine.serial) + suffix.serial,
                            tuple(machine.detections) + suffix.detections,
                            suffix.cycle)
                    pending.append((bucket, key, len(machine.serial),
                                    len(machine.detections)))
            lockstep = False
            if state is not None:
                if (machine.ram == state.ram
                        and tuple(machine.regs) == state.regs):
                    return self._rejoin_facts(cycle, cycle,
                                              bytes(machine.serial),
                                              tuple(machine.detections))
                touch = self._fast_forward(machine, state)
                if touch is not None:
                    stops = self._golden_stops
                    ahead = bisect_left(stops, touch + self._lockstep_lead)
                    lockstep = ahead < len(stops)
                    cycle = machine.cycle
                    target = (stops[ahead] if lockstep
                              else self._probe_after(cycle, gap))
                    mark = cycle - cycle % grid + grid
                    continue
            if cycle >= mark:
                mark = cycle - cycle % grid + grid
            if cycle >= target:
                gap *= 2
                target = self._probe_after(cycle, gap)
        return None

    # -- golden fast-forward ---------------------------------------------------

    def _golden_state(self, machine: Machine) -> MachineState | None:
        """The golden state of ``machine``'s cycle, if it stands there
        on the golden path: the state is indexed (so the cycle is below
        ``golden.cycles``), the pc is the golden one, the serial bytes
        are (a restore replaces them), and no stuck-at latch is armed
        (a restore would disarm it).  RAM and registers may differ.
        """
        state = self._golden_states.get(machine.cycle)
        if (state is None or state.pc != machine.pc
                or machine._stuck is not None
                or machine.serial != state.serial):
            return None
        return state

    def _index_golden_states(self) -> dict[int, MachineState]:
        """Snapshot a fault-free run at every stop a seek could make on
        the golden path: the ladder's rungs.

        Every n-th rung only, by doubling as the ladder does, once the
        snapshots would outgrow :data:`GOLDEN_INDEX_BYTES`: a faulty
        run then finds a state to diff against at fewer of its stops,
        and lands further before a touch.
        """
        golden = self.golden
        machine = self.engine.create_machine(golden.program)
        room = max(1, GOLDEN_INDEX_BYTES // (
            golden.program.ram_size + len(golden.output) + 256))
        kept: list[MachineState] = []
        every = 1
        for stop, cycle in enumerate(golden.checkpoints.cycles):
            if stop % every == 0:
                machine.run_to_cycle(cycle)
                kept.append(machine.snapshot())
                if len(kept) > room:
                    kept = kept[::2]
                    every *= 2
        self._golden_stops = [state.cycle for state in kept]
        self._golden_states = dict(zip(self._golden_stops, kept))
        return self._golden_states

    def _differing_cells(self, machine: Machine, state: MachineState):
        """Yield the cells ``machine`` differs from ``state`` in:
        registers as ``-reg``, then RAM bytes by address."""
        golden_regs = state.regs
        if tuple(machine.regs) != golden_regs:
            for reg, value in enumerate(machine.regs):
                if value != golden_regs[reg]:
                    yield -reg
        ram, golden_ram = machine.ram, state.ram
        if ram == golden_ram:
            return
        # The bytes the last XOR below found first — at this run's
        # previous stop, or for its sibling in the next bit of the same
        # cell, the difference is mostly confined to them, and one
        # patched compare says so at a tenth of the XOR's price.
        patched = bytearray(golden_ram)
        found = []
        for addr in self._carried:
            if ram[addr] != golden_ram[addr]:
                patched[addr] = ram[addr]
                found.append(addr)
                yield addr
        if patched == ram:
            return
        self._carried = found
        delta = (int.from_bytes(ram, "little")
                 ^ int.from_bytes(patched, "little"))
        addr = -1
        while delta:
            skip = ((delta & -delta).bit_length() - 1) >> 3
            addr += skip + 1
            found.append(addr)
            yield addr
            delta >>= (skip + 1) << 3

    def _touch_slots(self, cell: int) -> list[int]:
        """Ascending slots whose golden instruction reads or writes
        ``cell`` — where its def/use classes end (the memory trace for
        a byte, the opcode tables over the pc trace for registers)."""
        touches = self._touches
        if cell not in touches:
            golden = self.golden
            if cell >= 0:
                touches[cell] = [event.slot
                                 for event in golden.trace.accesses(cell)]
            else:
                touches.update((-reg, []) for reg in range(1, NUM_REGS))
                touched = [{-reg for reg in (register_reads(instruction)
                                             + register_writes(instruction))}
                           for instruction in golden.program.rom]
                for slot, pc in enumerate(golden.executed_pcs(), 1):
                    for register in touched[pc]:
                        touches[register].append(slot)
        return touches[cell]

    def _fast_forward(self, machine: Machine,
                      state: MachineState) -> int | None:
        """Jump ``machine`` along the golden path to just before the
        golden run next touches a cell it differs in.

        ``machine`` stands on the golden path and ``state`` is the
        golden state of its cycle (:meth:`_golden_state`).  By
        induction over the golden instructions up to the next touch,
        none reads or writes a differing cell, so each computes golden
        values, takes the golden branch, emits golden output and traps
        nowhere: executing them would produce the golden state of
        every later cycle before the touch, but for the differing
        cells, which keep their values, and the run's own detections.
        That is what this builds, from the last indexed golden state
        before the touch — if it lies at least :attr:`_jump_floor`
        cycles ahead, and at most :data:`MAX_DIFFERING_CELLS` differ.
        Returns the slot of the touch, ``None`` without a jump.
        """
        cycle = machine.cycle
        horizon = cycle + self._jump_floor  # a touch up to here: no room
        touch = self.golden.cycles  # the last class of a cell ends here
        touches = self._touches
        cells = []
        for cell in self._differing_cells(machine, state):
            if len(cells) == MAX_DIFFERING_CELLS:
                return None
            cells.append(cell)
            slots = touches.get(cell) or self._touch_slots(cell)
            ahead = bisect_right(slots, cycle)
            if ahead < len(slots) and slots[ahead] < touch:
                touch = slots[ahead]
                if touch <= horizon:
                    return None
        stops = self._golden_stops
        landing = stops[bisect_left(stops, touch) - 1]
        if landing - cycle < self._jump_floor:
            return None
        ram, regs = machine.ram, machine.regs
        values = [regs[-cell] if cell < 0 else ram[cell] for cell in cells]
        detections = machine.detections[:]
        machine.restore(self._golden_states[landing])
        for cell, value in zip(cells, values):
            if cell < 0:
                regs[-cell] = value
            else:
                ram[cell] = value
        machine.detections[:] = detections
        self.jumps += 1
        self.cycles_skipped += landing - cycle
        return touch

    def _cell_critical(self, coordinate) -> bool:
        """Can the fault at ``coordinate`` ever influence the outcome?"""
        if self._criticality is None:
            self._criticality = backward_slice(self.golden)
        return self.domain.cell_critical(self._criticality, coordinate)

    def _rejoin_facts(self, matched_cycle: int, cycle: int, serial: bytes,
                      detections: tuple) -> EndFacts:
        """End facts of a run that re-joined the golden trajectory.

        The faulty run at cycle ``c' = cycle`` holds the golden state of
        cycle ``c = matched_cycle``; determinism makes its
        remaining execution the golden suffix after ``c``: it emits the
        golden output's remaining bytes, records no further detections
        (the golden run has none), and halts cleanly when the suffix
        ends at cycle ``c' + (Δt - c)`` — unless that end lies beyond
        the cycle budget: the golden suffix cannot halt, trap or
        diverge early, so the real run would hit the budget mid-suffix
        and time out, exactly as if it had been executed.
        """
        self.convergence_hits += 1
        golden = self.golden
        end_cycle = cycle - matched_cycle + golden.cycles
        if end_cycle > self.timeout_cycles:
            return EndFacts("", False, False, serial, detections,
                            self.timeout_cycles)
        return EndFacts("", False, True,
                        serial + golden.output[len(serial):],
                        detections, end_cycle)

    def _inject(self, machine: Machine, coordinate) -> None:
        """Apply the fault at the current pause point.

        Delegates to the executor's fault domain (RAM bit flip for the
        memory domain, register-file flip for Section VI-B, ...);
        subclasses may still override to target other machine state.
        """
        self.domain.inject(machine, coordinate)

    # -- snapshot fast-forward -------------------------------------------------

    def _state_at(self, cycle: int) -> MachineState:
        """Pristine machine state after exactly ``cycle`` instructions."""
        if self._snapshot is not None and self._snapshot.cycle == cycle:
            return self._snapshot
        if cycle < self._pristine.cycle:
            self.rewinds += 1
            self._pristine.reset()
            # Entries are facts, so forgetting them only costs hits;
            # kept, the abandoned pass's buckets would live until the
            # new pass overtakes their marks.
            self._memo.clear()
            self._suffixes.clear()
        self._pristine.run_to_cycle(cycle)
        if self._pristine.cycle != cycle:
            raise AssertionError(
                f"golden prefix halted at {self._pristine.cycle}, "
                f"wanted {cycle}")  # pragma: no cover
        self._snapshot = self._pristine.snapshot()
        return self._snapshot


# Named by benchmarks/e2e/trace.py TARGETS only; the [benchmark] PR that
# drops that entry deletes this class.
class BatchExperimentExecutor(ExperimentExecutor):
    def run_many(self, coordinates) -> list[tuple[Outcome, int, str]]:
        return super().run_many(coordinates)
