"""Convergence early-exit: exactness, compatibility, and the ladder.

The whole optimization is only admissible because it is outcome-
invariant: with ``use_convergence`` on or off, every campaign —
pruned scan, brute force, sampling; serial or parallel; fresh or
resumed from a killed journal — must produce *identical* results and
byte-identical CSV exports.  The tests here enforce that contract on
small programs where the off-side ground truth is cheap; the
benchmarks check it again at figure scale.
"""

import dataclasses
import random

import pytest

from repro.campaign import (
    ExecutorConfig,
    experiment,
    export_class_results_csv,
    record_golden,
    run_brute_force,
    run_full_scan,
    run_sampling,
)
from repro.campaign.golden import MAX_CHECKPOINTS
from repro.campaign.outcomes import Outcome
from repro.engine import CompiledEngine, ExecutionEngine
from repro.faultspace import FaultCoordinate
from repro.faultspace.registers import (
    RegisterFaultCoordinate,
    RegisterPartition,
)
from repro.isa import Machine, assemble
from repro.kernel.builder import KernelBuilder
from repro.programs import bin_sem2, chain, guarded, hi, micro

ON = ExecutorConfig(use_convergence=True)
OFF = ExecutorConfig(use_convergence=False)

FACTORIES = {
    "counter": lambda: micro.counter(3),
    "memcopy": lambda: micro.memcopy(4),
    "hi": hi.baseline,
}


@pytest.fixture(scope="module", params=sorted(FACTORIES))
def golden(request):
    return record_golden(FACTORIES[request.param]())


class TestOutcomeInvariance:
    @pytest.mark.parametrize("domain", ["memory", "register"])
    def test_full_scan_equal_results_and_csv(self, golden, domain,
                                             tmp_path):
        on = run_full_scan(golden, domain=domain, config=ON,
                           keep_records=True)
        off = run_full_scan(golden, domain=domain, config=OFF,
                            keep_records=True)
        assert on == off
        on_csv, off_csv = tmp_path / "on.csv", tmp_path / "off.csv"
        export_class_results_csv(on, on_csv)
        export_class_results_csv(off, off_csv)
        assert on_csv.read_bytes() == off_csv.read_bytes()
        # The off side must never touch the convergence machinery.
        assert off.execution.convergence_hits == 0
        assert off.execution.slice_hits == 0

    @pytest.mark.parametrize("domain", ["memory", "register"])
    def test_brute_force_equal(self, golden, domain):
        on = run_brute_force(golden, domain=domain, config=ON)
        off = run_brute_force(golden, domain=domain, config=OFF)
        assert on == off

    @pytest.mark.parametrize("domain", ["memory", "register"])
    def test_sampling_equal(self, golden, domain):
        on = run_sampling(golden, 60, seed=7, domain=domain, config=ON)
        off = run_sampling(golden, 60, seed=7, domain=domain,
                           config=OFF)
        assert on == off

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_parallel_engine_equal(self, golden, jobs):
        serial_off = run_full_scan(golden, config=OFF)
        parallel_on = run_full_scan(golden, config=ON, jobs=jobs)
        assert parallel_on == serial_off

    def test_the_early_exits_actually_fire(self):
        """Guard against silently disabled machinery.  The pruned scan
        only visits live-class representatives, so ladder hits show up
        there — on both engines: the interpreter (a probe every cycle
        at first) and the JIT (first probe 128 cycles past the
        injection).  The criticality pre-skip pays off on the
        coordinates a brute-force campaign injects blindly."""
        for program, engine in ((guarded.sumdmr_variant(), "interp"),
                                (bin_sem2.baseline(), "compiled")):
            golden = record_golden(program)
            scan = run_full_scan(golden, config=ExecutorConfig(
                use_convergence=True, engine=engine))
            assert scan.execution.convergence_hits > 0, engine
        brute = run_brute_force(record_golden(hi.baseline()),
                                domain="register", config=ON)
        assert brute.execution.slice_hits > 0


def _first_gap(monkeypatch, gap):
    """Force every engine's probe schedule to start at ``gap``."""
    monkeypatch.setattr(ExecutionEngine, "probe_gap", gap)
    monkeypatch.setattr(CompiledEngine, "probe_gap", gap)


def _hardened_kernel():
    """A SUM+DMR-protected two-thread kernel workload, 231 cycles.

    Small enough to scan under every engine × domain × schedule, long
    enough that a first gap of 128 still probes inside most tails.
    """
    kb = KernelBuilder(n_threads=2, protect=True)
    kb.add_semaphore("s", initial=0)
    kb.add_word("token", init=0, protected=True)
    kb.set_thread_body(0, [
        "addi r1, zero, 7", "call token_store",
        "call s_post", "call s_post",
        "call token_load", "out r1",
        "call token_load", "addi r1, r1, 1", "call token_store",
        "call token_load", "out r1",
        "halt"])
    kb.set_thread_body(1, [
        "t1_loop:", "call s_wait", "call token_load",
        "addi r1, r1, 1", "call token_store", "j t1_loop"])
    return kb.build("pingpong-sumdmr")


class TestScheduleInvariance:
    """Where the executor probes can never change a record.

    The docstrings argue it (a match classifies identically at any
    instruction boundary); this holds every engine and fault model to
    it, with the first gap forced dense, odd, to the JIT's default and
    beyond the cycle budget (no probe at all).
    """

    @pytest.fixture(scope="class")
    def kernel(self):
        return record_golden(_hardened_kernel())

    @pytest.mark.parametrize("domain", ["memory", "register", "burst2",
                                        "burst4", "stuck", "pc"])
    @pytest.mark.parametrize("engine", ["interp", "compiled"])
    def test_first_gap_never_affects_records(self, kernel, engine,
                                             domain, monkeypatch,
                                             tmp_path):
        config = ExecutorConfig(engine=engine)
        reference = run_full_scan(
            kernel, domain=domain, keep_records=True,
            config=dataclasses.replace(config, use_convergence=False))
        reference_csv = tmp_path / "off.csv"
        export_class_results_csv(reference, reference_csv)
        hits = {}
        for gap in (1, 3, 128, 4 * kernel.cycles):
            _first_gap(monkeypatch, gap)
            result = run_full_scan(kernel, domain=domain, config=config,
                                   keep_records=True)
            assert result == reference, gap  # records included
            csv = tmp_path / f"gap{gap}.csv"
            export_class_results_csv(result, csv)
            assert csv.read_bytes() == reference_csv.read_bytes(), gap
            hits[gap] = result.execution.convergence_hits
        # The forced constant really drove the schedule.
        assert hits[1] > 0 and hits[128] > 0
        assert hits[4 * kernel.cycles] == 0

    @pytest.mark.parametrize("engine", ["interp", "compiled"])
    def test_timeouts_end_exactly_at_the_budget(self, engine,
                                                monkeypatch):
        """A probe must never carry a run past ``timeout_cycles``: a
        boundary stop beyond it would move a TIMEOUT record's
        ``end_cycle``.  Flips in the loop counter's upper bits make
        most of this register scan spin until the budget, in a
        ten-instruction block wide enough for targets to land inside
        its last iteration before the budget."""
        program = assemble("""\
        .data
v:      .word 0
        .text
start:  li   r3, 16
loop:   lw   r1, v(zero)
        addi r1, r1, 1
        sw   r1, v(zero)
        add  r2, r2, r1
        xor  r4, r4, r2
        add  r2, r2, r4
        xor  r4, r4, r1
        add  r2, r2, r4
        addi r3, r3, -1
        bnez r3, loop
        out  r1
        halt
""", name="spin", ram_size=4)
        golden = record_golden(program)
        config = ExecutorConfig(engine=engine)
        budget = config.timeout_cycles(golden.cycles)
        reference = run_full_scan(
            golden, domain="register", keep_records=True,
            config=dataclasses.replace(config, use_convergence=False))
        timeouts = [record for record in reference.records
                    if record.outcome is Outcome.TIMEOUT]
        assert len(timeouts) > len(reference.records) // 10
        for gap in (1, 3, 128):
            _first_gap(monkeypatch, gap)
            result = run_full_scan(golden, domain="register",
                                   config=config, keep_records=True)
            assert result.records == reference.records, gap
            assert all(record.end_cycle == budget
                       for record in result.records
                       if record.outcome is Outcome.TIMEOUT)


def _memo_grid(monkeypatch, grid):
    """Force the state memo's probe grid to ``grid`` ladder strides."""
    monkeypatch.setattr(experiment, "MEMO_GRID", grid)


class TestStateMemo:
    """Inheriting an earlier faulty run's ending can never change a
    record — wherever the grid puts the stops, whatever the engine,
    fault model, campaign style or submission order."""

    @pytest.fixture(scope="class")
    def kernel(self):
        return record_golden(_hardened_kernel())

    @pytest.mark.parametrize("domain", ["memory", "register", "burst2",
                                        "burst4", "stuck", "pc"])
    @pytest.mark.parametrize("engine", ["interp", "compiled"])
    def test_grid_never_affects_records(self, kernel, engine, domain,
                                        monkeypatch, tmp_path):
        config = ExecutorConfig(engine=engine, domain=domain)
        off = dataclasses.replace(config, use_convergence=False)
        unconverged = off.build(kernel)
        reference = run_full_scan(kernel, domain=domain, keep_records=True,
                                  executor=unconverged)
        assert unconverged.memo_hits == 0
        reference_csv = tmp_path / "off.csv"
        export_class_results_csv(reference, reference_csv)
        budget = config.timeout_cycles(kernel.cycles)
        hits = {}
        for grid in (1, 3, 256, budget):
            _memo_grid(monkeypatch, grid)
            executor = config.build(kernel)
            result = run_full_scan(kernel, domain=domain,
                                   executor=executor, keep_records=True)
            assert result == reference, grid  # records included
            csv = tmp_path / f"grid{grid}.csv"
            export_class_results_csv(result, csv)
            assert csv.read_bytes() == reference_csv.read_bytes(), grid
            assert (result.execution.convergence_hits
                    == executor.convergence_hits >= executor.memo_hits)
            hits[grid] = executor.memo_hits
        # The forced constant really drove the stops.  Only pc faults
        # send enough runs of this 231-cycle kernel past cycle 256 for
        # two of them to meet there.
        assert hits[budget] == 0
        assert hits[1] > 0 and hits[3] > 0
        if domain == "pc":
            assert hits[256] > 0

    @pytest.mark.parametrize("engine", ["interp", "compiled"])
    def test_grid_counts_ladder_strides(self, engine, monkeypatch):
        """On a sparse ladder (stride 3 here; auto-tuned only past
        16 384 cycles) grid marks are multiples of ``grid × stride``,
        so every memo stop is a rung like every other probe."""
        kernel = record_golden(_hardened_kernel(), checkpoint_stride=3)
        config = ExecutorConfig(engine=engine)
        reference = run_full_scan(
            kernel, keep_records=True,
            config=dataclasses.replace(config, use_convergence=False))
        for grid in (1, 2):
            _memo_grid(monkeypatch, grid)
            executor = config.build(kernel)
            assert run_full_scan(kernel, executor=executor,
                                 keep_records=True) == reference
            assert executor.memo_hits > 0
            assert all(mark % (3 * grid) == 0 for mark in executor._memo)

    @pytest.mark.parametrize("domain", ["memory", "register"])
    def test_brute_force_agrees_with_pruned_scan(self, domain,
                                                 monkeypatch):
        """Brute force is where same-state faults are densest: every
        coordinate def/use pruning would merge runs for real, one slot
        after the other."""
        golden = record_golden(guarded.sumdmr_variant())
        _memo_grid(monkeypatch, 2)
        executor = ExecutorConfig(engine="compiled",
                                  domain=domain).build(golden)
        brute = run_brute_force(golden, domain=domain, executor=executor)
        assert executor.memo_hits > 0
        assert brute == run_brute_force(golden, domain=domain, config=OFF)
        scan = run_full_scan(golden, domain=domain, config=OFF)
        for coordinate, outcome in brute.outcomes.items():
            assert scan.outcome_of(coordinate) == outcome
        assert brute.counts() == scan.weighted_counts()

    @pytest.mark.parametrize("engine", ["interp", "compiled"])
    def test_serial_prefix_stays_with_the_inheriting_run(self, engine,
                                                         monkeypatch):
        """Without ``early_stop`` there is no oracle, so the run that
        stored a state and the run that inherits its ending may have
        emitted different bytes before they met.  Here a flip of
        ``r1`` bit 3 just before ``out r1`` corrupts that byte and the
        copy saved to ``v``; the same flip just after it only corrupts
        the copy.  From the store on both runs are in one state (``v``
        stays wrong to the end, so neither re-joins the golden ladder)
        and the second inherits the first's ending — but keeps its own,
        correct, first byte, and the corrupt bit never reaches the
        second ``out``."""
        program = assemble("""\
        .data
u:      .word 0x4142
v:      .word 0
        .text
start:  lw   r1, u(zero)
        out  r1
        sw   r1, v(zero)
        li   r3, 12
loop:   addi r3, r3, -1
        bnez r3, loop
        lbu  r2, v+1(zero)
        out  r2
        halt
""", name="echo", ram_size=8)
        golden = record_golden(program)
        config = ExecutorConfig(engine=engine, domain="register",
                                early_stop=False)
        reference = run_full_scan(
            golden, domain="register", keep_records=True,
            config=dataclasses.replace(config, use_convergence=False))
        outcome_at = {(record.coordinate.slot, record.coordinate.reg,
                       record.coordinate.bit): record.outcome
                      for record in reference.records}
        assert outcome_at[2, 1, 3] is Outcome.SDC
        assert outcome_at[3, 1, 3] is Outcome.NO_EFFECT
        _memo_grid(monkeypatch, 1)
        executor = config.build(golden)
        result = run_full_scan(golden, domain="register",
                               executor=executor, keep_records=True)
        assert result == reference
        assert executor.memo_hits > 0

    @pytest.mark.parametrize("engine", ["interp", "compiled"])
    def test_slot_order_never_affects_records(self, kernel, engine,
                                              monkeypatch):
        """A fabric worker reuses one executor across leases,
        so slots can step backwards between batches; a rewind forgets
        the memo and costs hits, never a record."""
        _memo_grid(monkeypatch, 1)
        classes = kernel.partition().live_classes()

        def records(order):
            executor = ExecutorConfig(engine=engine).build(kernel)
            done = {index: executor.run_many(classes[index].experiments())
                    for index in order}
            return [done[index] for index in range(len(classes))], executor

        ascending, executor = records(range(len(classes)))
        assert executor.memo_hits > 0 and executor.rewinds == 0
        shuffled = list(range(len(classes)))
        random.Random(16).shuffle(shuffled)
        for order in (reversed(range(len(classes))), shuffled):
            reordered, executor = records(order)
            assert reordered == ascending
            assert executor.rewinds > 0

    def test_memo_drops_buckets_behind_the_scan(self):
        """Memory stays bounded because a bucket dies as soon as the
        scan's injection slot has passed its grid mark: checked after
        every experiment, and in the live-entry peak of a whole
        ``chain-sumdmr`` × memory scan (the benchmark's serial
        workload at reduced size) against everything it stored.
        Entries rather than ``tracemalloc`` bytes: tracing every
        allocation slows this compiled scan from 2 s to 8 min."""
        golden = record_golden(chain.hardened(2))
        executor = ExecutorConfig(engine="compiled").build(golden)

        class Counting(dict):
            dropped = 0

            def __delitem__(self, mark):
                self.dropped += len(self[mark])
                super().__delitem__(mark)

        memo = executor._memo = Counting()
        finish = executor._finish
        peak = 0

        def checked(machine, coordinate):
            nonlocal peak
            record = finish(machine, coordinate)
            assert not memo or min(memo) >= coordinate.slot
            peak = max(peak, sum(map(len, memo.values())))
            return record

        executor._finish = checked
        scan = run_full_scan(golden, executor=executor)
        assert scan == run_full_scan(golden, config=OFF)
        assert executor.memo_hits > 0 and memo.dropped > 0
        last_slot = max(interval.last_slot for interval
                        in scan.partition.live_classes())
        assert all(mark >= last_slot for mark in memo)
        stored = memo.dropped + sum(map(len, memo.values()))
        assert peak <= 2 * stored // 3


def _idle_program():
    """A wrong value that outlives its last use: ``v`` is read once,
    copied to ``w`` through ``r1``, and none of the three is touched
    again while the loop idles.  The two arms between the compare and
    ``join`` are equally long, so a fault in ``v`` (``detect 1`` on the
    way) is back on the golden path — same pc, same cycle — at
    ``join``."""
    return assemble("""\
        .data
v:      .word 0x4142
copy:   .word 0x4142
w:      .word 0
        .text
start:  lw   r1, v(zero)
        lw   r2, copy(zero)
        beq  r1, r2, same
        detect 1
        j    join
same:   nop
        nop
join:   sw   r1, w(zero)
        li   r3, 200
loop:   addi r3, r3, -1
        bnez r3, loop
        out  r3
        halt
""", name="idle", ram_size=12)


class TestFastForward:
    """A jump along the golden path builds exactly the state execution
    would have produced — so no record can tell whether it was taken."""

    @pytest.fixture(scope="class")
    def kernel(self):
        return record_golden(_hardened_kernel())

    @staticmethod
    def _executor(golden, engine, **config):
        """An executor that takes every possible jump."""
        executor = ExecutorConfig(engine=engine, **config).build(golden)
        executor._jump_floor = 1
        return executor

    @pytest.mark.parametrize("stride", [None, 3])
    @pytest.mark.parametrize("engine", ["interp", "compiled"])
    def test_every_indexed_state_is_an_interpreter_state(
            self, engine, stride, monkeypatch):
        golden = record_golden(_hardened_kernel(), checkpoint_stride=stride)
        executor = ExecutorConfig(engine=engine).build(golden)
        states = executor._index_golden_states()
        assert list(states) == executor._golden_stops == sorted(states)
        assert 0 < max(states) < golden.cycles
        reference = Machine(golden.program)
        for cycle, state in states.items():
            reference.run_to_cycle(cycle)
            assert state == reference.snapshot(), cycle
            assert cycle % golden.checkpoints.stride == 0
        # Under the byte budget only every n-th stop is kept.
        monkeypatch.setattr(experiment, "GOLDEN_INDEX_BYTES",
                            8 * (golden.program.ram_size + 256))
        thinned = ExecutorConfig(engine=engine).build(golden)
        kept = thinned._index_golden_states()
        assert 4 <= len(kept) <= 9 < len(states)
        assert all(states[cycle] == state for cycle, state in kept.items())

    @pytest.mark.parametrize("engine", ["interp", "compiled"])
    def test_a_jump_is_what_execution_would_have_produced(self, kernel,
                                                          engine):
        """Every indexed stop × a flip in every register and every RAM
        byte (and a detection on record): wherever the jump is taken
        it lands strictly before the golden run next touches the cell
        — the end of its def/use class — on the last indexed stop
        there, in the state an interpreter reaches from the same
        faulty state."""
        executor = self._executor(kernel, engine)
        states = executor._index_golden_states()
        stops = executor._golden_stops
        program = kernel.program
        bytes_ = kernel.partition()
        registers = RegisterPartition.from_pc_trace(program.rom,
                                                    kernel.executed_pcs())
        faulty = executor._machine
        reference = Machine(program)
        flips = ([("reg", reg) for reg in range(1, 16)]
                 + [("byte", addr) for addr in range(program.ram_size)])
        jumps = {"reg": 0, "byte": 0}
        for cycle, state in states.items():
            for kind, cell in flips:
                faulty.restore(state)
                faulty.detections.append((cycle, 1))
                if kind == "reg":
                    faulty.flip_register_bit(cell, cycle % 32)
                    touch = registers.locate(RegisterFaultCoordinate(
                        cycle + 1, cell, 0)).last_slot
                else:
                    faulty.flip_bit(cell, cycle % 8)
                    touch = bytes_.locate(FaultCoordinate(
                        cycle + 1, cell, 0)).last_slot
                before = faulty.snapshot()
                assert executor._golden_state(faulty) is state
                jumped = executor._fast_forward(faulty, state)
                if jumped is None:
                    assert faulty.snapshot() == before
                    continue
                jumps[kind] += 1
                landing = faulty.cycle
                assert cycle < landing < touch
                assert landing == max(stop for stop in stops
                                      if stop < touch)
                assert jumped in (touch, kernel.cycles)
                reference.restore(before)
                reference.run_to_cycle(landing)
                assert faulty.snapshot() == reference.snapshot(), (
                    cycle, kind, cell)
        assert jumps["reg"] > 100 and jumps["byte"] > 100
        assert executor.jumps == jumps["reg"] + jumps["byte"]

    @pytest.mark.parametrize("engine", ["interp", "compiled"])
    def test_off_the_golden_path_nothing_jumps(self, kernel, engine):
        """Another pc, other serial bytes, an armed latch or a cycle
        the golden run never reached: no golden state to diff against,
        so no jump."""
        executor = self._executor(kernel, engine)
        states = executor._index_golden_states()
        state = states[executor._golden_stops[len(states) // 2]]
        machine = executor._machine

        def on_path(change):
            machine.restore(state)
            machine.flip_bit(0, 0)  # RAM and registers may differ
            change(machine)
            return executor._golden_state(machine)

        assert on_path(lambda machine: None) is state
        assert on_path(lambda machine: machine.flip_pc_bit(0)) is None
        assert on_path(lambda machine: machine.serial.append(7)) is None
        assert on_path(lambda machine: machine.stuck_at(4, 0, 1)) is None
        assert on_path(lambda machine: setattr(
            machine, "cycle", machine.cycle + 1)) is None
        assert on_path(lambda machine: setattr(
            machine, "cycle", kernel.cycles)) is None
        assert on_path(lambda machine: setattr(
            machine, "cycle", 2 * kernel.cycles)) is None

    @pytest.mark.parametrize("domain", ["memory", "register", "burst2",
                                        "burst4", "stuck", "pc"])
    @pytest.mark.parametrize("engine", ["interp", "compiled"])
    def test_jumps_never_affect_records(self, kernel, engine, domain,
                                        monkeypatch, tmp_path):
        """Every jump taken (floor 1, probes dense enough to stop
        inside this 231-cycle kernel, no pre-skip) against no jump at
        all — and every jump starts from a machine on the golden
        path."""
        _first_gap(monkeypatch, 2)
        reference = run_full_scan(
            kernel, domain=domain, keep_records=True,
            config=ExecutorConfig(engine=engine, use_convergence=False))
        reference_csv = tmp_path / "off.csv"
        export_class_results_csv(reference, reference_csv)
        for lead in (0, 1, 5):
            executor = self._executor(kernel, engine, domain=domain)
            executor._lockstep_lead = lead
            executor._cell_critical = lambda coordinate: True
            fast_forward = executor._fast_forward

            def checked(machine, state):
                assert state is executor._golden_states[machine.cycle]
                assert machine.cycle < kernel.cycles
                assert machine.pc == state.pc
                assert machine.serial == state.serial
                assert machine._stuck is None and not machine.halted
                return fast_forward(machine, state)

            executor._fast_forward = checked
            result = run_full_scan(kernel, domain=domain,
                                   executor=executor, keep_records=True)
            assert result == reference, lead  # records included
            csv = tmp_path / f"lead{lead}.csv"
            export_class_results_csv(result, csv)
            assert csv.read_bytes() == reference_csv.read_bytes(), lead
            # (A flipped pc rarely finds its way back onto the golden
            # path with a difference left to carry.)
            assert domain == "pc" or executor.cycles_skipped \
                >= executor.jumps > 0
        executor = ExecutorConfig(engine=engine, domain=domain).build(kernel)
        executor._jump_floor = 4 * kernel.cycles
        assert run_full_scan(kernel, domain=domain, executor=executor,
                             keep_records=True) == reference
        assert executor.jumps == 0

    @pytest.mark.parametrize("engine", ["interp", "compiled"])
    def test_an_idle_difference_lands_on_the_last_state(self, engine,
                                                        monkeypatch):
        """``v``, ``r1`` and ``w`` stay wrong and are never touched
        again: one jump to the last indexed state, a clean halt at the
        golden cycle count, and the ``detect`` from before the jump
        still on record."""
        _first_gap(monkeypatch, 8)
        golden = record_golden(_idle_program())
        fault = FaultCoordinate(slot=1, addr=0, bit=3)
        reference = ExecutorConfig(
            engine=engine, use_convergence=False).build(golden).run(fault)
        assert reference.outcome is Outcome.DETECTED_CORRECTED
        assert reference.end_cycle == golden.cycles
        executor = ExecutorConfig(engine=engine).build(golden)
        executor._cell_critical = lambda coordinate: True  # no pre-skip
        assert executor.run(fault) == reference
        assert executor.jumps == 1
        machine = executor._machine
        assert machine.halted and machine.cycle == golden.cycles
        assert machine.detections == [(4, 1)]
        assert bytes(machine.ram[:4]) == bytes(machine.ram[8:]) \
            == (0x4142 ^ 8).to_bytes(4, "little")
        first_stop = min(stop for stop in executor._golden_stops
                         if stop >= 8)
        assert executor.cycles_skipped \
            == executor._golden_stops[-1] - first_stop
        # The same flip after the last use of ``v`` changes nothing
        # that is ever looked at again.
        late = executor.run(FaultCoordinate(slot=9, addr=0, bit=3))
        assert late.outcome is Outcome.NO_EFFECT
        assert late.end_cycle == golden.cycles and executor.jumps == 2


class TestJournalCompatibility:
    def test_convergence_flag_does_not_fork_the_journal_key(
            self, tmp_path):
        """A campaign journaled with convergence off finishes with it on
        (and vice versa): the flag is outcome-invariant, so it is not
        part of the campaign identity and resume crosses it freely."""
        golden = record_golden(micro.memcopy(4))
        baseline = run_full_scan(golden, config=OFF)

        class Interrupt(Exception):
            pass

        def die_after(n):
            def callback(done, total):
                if done >= n:
                    raise Interrupt
            return callback

        for first, second in [(OFF, ON), (ON, OFF)]:
            journal = tmp_path / f"{id(first)}.sqlite"
            with pytest.raises(Interrupt):
                run_full_scan(golden, config=first, journal=journal,
                              progress=die_after(3))
            resumed = run_full_scan(golden, config=second,
                                    journal=journal)
            assert resumed == baseline
            assert resumed.execution.resumed == 3


class TestOldGoldenCompatibility:
    """Golden runs unpickled from pre-ladder versions default both the
    ladder and the pc trace to ``None``; the executor must degrade to
    plain execution, not crash."""

    def test_missing_checkpoints_degrade_gracefully(self):
        golden = record_golden(micro.counter(3))
        stripped = dataclasses.replace(golden, checkpoints=None)
        on = run_full_scan(stripped, config=ON)
        off = run_full_scan(golden, config=OFF)
        # The goldens differ by construction (one has no ladder), so
        # compare the campaign payloads rather than whole results.
        assert on.class_outcomes == off.class_outcomes
        assert on.weighted_counts() == off.weighted_counts()

    def test_missing_pc_trace_degrades_gracefully(self):
        golden = record_golden(micro.counter(3))
        stripped = dataclasses.replace(golden, pc_trace=None,
                                       checkpoints=None)
        on = run_full_scan(stripped, config=ON)
        off = run_full_scan(golden, config=OFF)
        assert on.class_outcomes == off.class_outcomes
        assert on.weighted_counts() == off.weighted_counts()


class TestCheckpointLadder:
    def test_explicit_stride_is_honoured(self):
        golden = record_golden(micro.counter(5), checkpoint_stride=7)
        ladder = golden.checkpoints
        assert ladder.stride == 7
        # The halted state is never a rung (nothing can converge onto
        # it usefully), so only strictly-interior multiples count.
        assert len(ladder.digests) == (golden.cycles - 1) // 7

    def test_stride_zero_disables_the_ladder(self):
        golden = record_golden(micro.counter(3), checkpoint_stride=0)
        assert golden.checkpoints is None
        result = run_full_scan(golden, config=ON)
        # No ladder: zero convergence hits, but outcomes still exact.
        assert result.execution.convergence_hits == 0
        reference = run_full_scan(record_golden(micro.counter(3)),
                                  config=OFF)
        assert result.class_outcomes == reference.class_outcomes
        assert result.weighted_counts() == reference.weighted_counts()

    def test_auto_stride_is_dense_for_short_runs(self):
        golden = record_golden(micro.counter(3))
        assert golden.checkpoints.stride == 1
        assert len(golden.checkpoints.digests) == golden.cycles - 1

    def test_auto_stride_decimates_past_the_cap(self):
        """A run longer than MAX_CHECKPOINTS cycles doubles the stride
        and thins the rungs already taken; every surviving rung still
        matches a replayed golden state digest."""
        iterations = MAX_CHECKPOINTS // 5 + 200
        source = f"""\
        .data
v:      .word 0
        .text
start:  li   r3, {iterations}
loop:   lw   r1, v(zero)
        addi r1, r1, 1
        sw   r1, v(zero)
        addi r3, r3, -1
        bnez r3, loop
        halt
"""
        program = assemble(source, name="longloop", ram_size=4)
        golden = record_golden(program)
        ladder = golden.checkpoints
        assert golden.cycles > MAX_CHECKPOINTS
        assert ladder.stride == 2
        assert len(ladder.digests) <= MAX_CHECKPOINTS
        # Spot-check rungs against a fresh replay.
        for index in (0, len(ladder.digests) // 2,
                      len(ladder.digests) - 1):
            cycle = (index + 1) * ladder.stride
            machine = Machine(program)
            machine.run_to_cycle(cycle)
            assert machine.state_digest() == ladder.digests[index], index

    def test_lookup_is_injective(self):
        golden = record_golden(micro.memcopy(4))
        ladder = golden.checkpoints
        assert len(ladder.lookup()) == len(ladder.digests)
