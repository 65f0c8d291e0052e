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
  cycle moves by the shift.  The ladder is dense (a rung per golden
  cycle, up to :data:`~.golden.MAX_CHECKPOINTS`) precisely so that a
  check at any faulty cycle can match whatever the shift is.
* A probe costs what it is worth on its engine.  The first gap is the
  engine's probe cost in cycles
  (:attr:`~repro.engine.ExecutionEngine.probe_gap`: 1 interpreted,
  128 under the JIT, where a digest buys that many cycles), and
  :meth:`~repro.isa.cpu.Machine.run_to_boundary` lets a compiled
  machine stop on the basic-block boundary after the target instead
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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..engine import ExecutionEngine, get_engine
from ..faultspace.domain import FaultDomain, MEMORY, get_domain
from ..faultspace.slicing import backward_slice
from ..faultspace.model import FaultCoordinate
from ..isa.cpu import Machine, MachineState
from ..isa.errors import CPUException
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

#: Default multiple of the golden runtime before declaring a timeout.
DEFAULT_TIMEOUT_FACTOR = 3.0
#: Minimum extra cycles granted beyond the golden runtime.
DEFAULT_TIMEOUT_SLACK = 256


@dataclass(frozen=True)
class ExecutorConfig:
    """Picklable executor settings.

    Executors themselves are not picklable (they own live machines), so
    the parallel campaign engine ships this config to worker processes
    and rebuilds one executor per worker via :meth:`build`.
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
    #: engines — so it is not part of the journal campaign key.  The
    #: default ``auto`` resolves per campaign through the planner
    #: (:mod:`repro.engine.plan`) when :meth:`build` sees the golden
    #: run; naming a concrete engine pins it.
    engine: str = "auto"
    #: Distributed-fabric heartbeat cadence (seconds) shipped to every
    #: worker with the campaign spec; ``None`` keeps each worker's own
    #: default.  Pure transport tuning — outcome-invariant, so it is
    #: *not* part of the journal campaign key.
    heartbeat_interval: float | None = None
    #: Override for the lease/shard wall-clock budget (seconds) the
    #: coordinator's retry policy derives from cycle cost; ``None``
    #: keeps the cost-derived deadline.  Transport tuning only — also
    #: excluded from the journal campaign key.
    lease_timeout: float | None = None

    def timeout_cycles(self, golden_cycles: int) -> int:
        """Cycle budget before a run is classified as a timeout.

        This is the paper's hang detector: a faulty run may legitimately
        take somewhat longer than the golden run, but one that exceeds a
        multiple of the golden runtime (plus fixed slack for tiny
        programs) will never halt and is classified
        :data:`~.outcomes.Outcome.TIMEOUT`.  Shared between the executor
        and the parallel engine's wall-clock shard guard so both layers
        agree on what "hung" means.
        """
        if self.timeout_factor < 1.0:
            raise ValueError("timeout_factor must be >= 1.0")
        return max(int(golden_cycles * self.timeout_factor),
                   golden_cycles + self.timeout_slack)

    def build(self, golden: "GoldenRun",
              partition=None) -> "ExperimentExecutor":
        """Construct an executor for ``golden`` with these settings.

        The ``auto`` engine resolves here — the first point where the
        golden run and domain are both known — so serial runners,
        parallel workers and dist workers all plan identically and
        deterministically.  ``partition`` hands the planner a def/use
        partition the caller already built; without it the planner
        builds (and caches) its own.
        """
        engine = get_engine(self.engine).resolve(golden, self.domain,
                                                 partition=partition)
        return ExperimentExecutor(golden,
                                  timeout_factor=self.timeout_factor,
                                  timeout_slack=self.timeout_slack,
                                  use_snapshots=self.use_snapshots,
                                  early_stop=self.early_stop,
                                  use_convergence=self.use_convergence,
                                  domain=self.domain,
                                  engine=engine)


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
        ladder = getattr(golden, "checkpoints", None)
        if use_convergence and ladder is not None and ladder.digests:
            self._stride = ladder.stride
            self._golden_cycle_of = ladder.lookup()
        else:
            # No ladder (hand-built or pre-ladder golden run) or
            # convergence disabled: every tail runs to completion.
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
        self._golden_record_cache: ExperimentRecord | None = None
        #: State memo, a bucket per grid mark (ascending while slots
        #: ascend): ``digest ‖ cycle`` of an earlier experiment's state
        #: -> how that run went on from there.
        self._memo: dict[int, dict[bytes, EndFacts]] = {}
        self._suffixes: dict[EndFacts, EndFacts] = {}  # interned: few
        #: Number of pre-injection rewinds (diagnostics for the ablation
        #: benchmark; stays 0 when experiments arrive slot-sorted).
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

    def run(self, coordinate: FaultCoordinate) -> ExperimentRecord:
        """Run one experiment and classify its outcome."""
        if coordinate.slot > self.golden.cycles:
            raise ValueError(
                f"slot {coordinate.slot} beyond golden runtime "
                f"{self.golden.cycles}")
        if self.use_convergence and not self._cell_critical(coordinate):
            # Criticality pre-skip: the corrupt value provably never
            # reaches an observable sink, so the run would reproduce
            # the golden outcome cycle for cycle — skip it entirely.
            self.slice_hits += 1
            return self._golden_record(coordinate)
        machine = self._machine
        if self.use_snapshots:
            machine.restore(self._state_at(coordinate.slot - 1))
        else:
            machine.reset()
            machine.run_to_cycle(coordinate.slot - 1)
        self._inject(machine, coordinate)
        return self._finish(machine, coordinate)

    def run_many(self, coordinates) -> list[ExperimentRecord]:
        """Run a sequence of experiments, preserving input order.

        Callers should submit coordinates slot-sorted for the snapshot
        fast-forward to pay off.
        """
        return [self.run(coordinate) for coordinate in coordinates]

    def _finish(self, machine: Machine,
                coordinate) -> ExperimentRecord:
        """Run an injected machine to its end and classify the outcome."""
        memo = self._memo
        while memo and (mark := next(iter(memo))) < coordinate.slot:
            # Drop behind the scan: no later slot stops at this mark
            # (and the intern table restarts, so it stays bounded too).
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
        for bucket, key, n_serial, n_detections in pending:
            # What this run did after each memo miss is now a fact.
            suffix = end._replace(serial=end.serial[n_serial:],
                                  detections=end.detections[n_detections:])
            bucket[key] = self._suffixes.setdefault(suffix, suffix)
        return self._classify_end(coordinate, *end)

    def _classify_end(self, coordinate, trap: str, diverged: bool,
                      halted: bool, serial: bytes, detections: tuple,
                      cycle: int) -> ExperimentRecord:
        """Classify a run that ended (halt, trap, divergence, timeout).

        Takes plain values (the fields of :class:`EndFacts`) rather
        than a machine, so early exits, whose facts are inferred,
        classify through the exact same code path as a run executed to
        its end.
        """
        trapped = bool(trap)
        timed_out = not halted and not trapped
        if diverged:
            # Early stop on first deviating output byte: the run can
            # never be benign again, so it is a failure; attribute the
            # mode from what was observed up to the divergence.
            outcome = _classify_diverged(detections)
        else:
            outcome = classify(
                golden_output=self.golden.output,
                output=serial,
                halted_cleanly=halted and not trapped,
                trapped=trapped,
                timed_out=timed_out,
                detections=detections,
            )
        return ExperimentRecord(coordinate=coordinate, outcome=outcome,
                                end_cycle=cycle, trap=trap)

    # -- convergence early-exit ------------------------------------------------

    def _probe_after(self, cycle: int, gap: int) -> int | None:
        """The probe position ``gap`` cycles past ``cycle``, if any.

        Gaps start at the engine's
        :attr:`~repro.engine.ExecutionEngine.probe_gap` and double
        after every miss; positions are aligned up to the ladder stride
        (off-stride cycles have no rung to match under a zero shift).
        ``None`` once past the cycle budget: no probe carries a machine
        to ``timeout_cycles``, so timeouts end there.
        """
        target = cycle + gap
        target += -target % self._stride
        return target if target < self.timeout_cycles else None

    def _seek_convergence(self, machine: Machine,
                          pending: list) -> EndFacts | None:
        """Advance probe-to-probe until a digest is recognised.

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
        """
        table = self._golden_cycle_of
        limit = self.timeout_cycles
        stride = self._stride
        grid = MEMO_GRID * stride
        gap = self.engine.probe_gap
        target = self._probe_after(machine.cycle, gap)
        mark = machine.cycle - machine.cycle % grid + grid
        while target is not None:
            machine.run_to_boundary(min(target, mark), limit)
            if machine.cycle % stride and not machine.halted:
                # A boundary stop between rungs (never at stride 1):
                # step on to the next rung.
                rung = self._probe_after(machine.cycle, 0)
                if rung is None:
                    return None
                machine.run_to_cycle(rung)
            if machine.halted:
                return None
            self.convergence_checks += 1
            digest = machine.state_digest()
            cycle = machine.cycle
            matched = table.get(digest)
            if matched is not None:
                return self._rejoin_facts(matched, cycle,
                                          bytes(machine.serial),
                                          tuple(machine.detections))
            if cycle >= mark:
                mark = cycle - cycle % grid
                bucket = self._memo.setdefault(mark, {})
                key = digest + cycle.to_bytes(8, "little")
                suffix = bucket.get(key)
                if suffix is not None:
                    self.convergence_hits += 1
                    self.memo_hits += 1
                    return suffix._replace(
                        serial=bytes(machine.serial) + suffix.serial,
                        detections=(tuple(machine.detections)
                                    + suffix.detections))
                pending.append((bucket, key, len(machine.serial),
                                len(machine.detections)))
                mark += grid
            if cycle >= target:
                gap *= 2
                target = self._probe_after(cycle, gap)
        return None

    def _cell_critical(self, coordinate) -> bool:
        """Can the fault at ``coordinate`` ever influence the outcome?"""
        if self._criticality is None:
            self._criticality = backward_slice(self.golden)
        return self.domain.cell_critical(self._criticality, coordinate)

    def _golden_record(self, coordinate) -> ExperimentRecord:
        """The record of an experiment proven to reproduce the golden run."""
        cached = self._golden_record_cache
        if cached is None:
            outcome = classify(
                golden_output=self.golden.output,
                output=self.golden.output,
                halted_cleanly=True,
                trapped=False,
                timed_out=False,
                detections=(),
            )
            cached = self._golden_record_cache = ExperimentRecord(
                coordinate=coordinate, outcome=outcome,
                end_cycle=self.golden.cycles)
        return ExperimentRecord(coordinate=coordinate,
                                outcome=cached.outcome,
                                end_cycle=cached.end_cycle)

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
            # Keeps buckets ascending for the drop rule in _finish;
            # entries are facts, so forgetting them only costs hits.
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
    def run_many(self, coordinates) -> list[ExperimentRecord]:
        return super().run_many(coordinates)
