"""Differential tests: the template-JIT engine vs the interpreter oracle.

Every test here runs the same program (often with a fault injected)
on a plain :class:`~repro.isa.cpu.Machine` and on a
:class:`~repro.engine.compiled.CompiledMachine` and asserts *bit
identity* — registers, RAM, pc, cycle, serial output, detection log,
trap type/message/location, and the state digest the convergence
early-exit keys on.  The interpreter is deliberately simple; the JIT
is only allowed to be faster, never different.
"""

import dataclasses
import random

import pytest

from repro.engine import (
    COMPILED,
    ENGINES,
    INTERP,
    get_engine,
)
from repro.engine.compiled import (
    CompiledMachine,
    _find_blocks,
    compile_program,
)
from repro.isa import CPUException, Machine, assemble
from repro.programs import all_programs, bin_sem2, micro


def final_state(machine):
    """Everything an experiment's classification can observe."""
    return {
        "pc": machine.pc,
        "cycle": machine.cycle,
        "halted": machine.halted,
        "diverged": machine.diverged,
        "regs": list(machine.regs),
        "ram": bytes(machine.ram),
        "serial": bytes(machine.serial),
        "detections": list(machine.detections),
        "digest": machine.state_digest(),
    }


def raised_trap(run, *args):
    """Trap identity (type, message, pc, cycle) of ``run(*args)``."""
    try:
        run(*args)
    except CPUException as exc:
        return type(exc).__name__, str(exc), exc.pc, exc.cycle
    return None


def run_pair(program, limit, *, oracle=None, mutate=None):
    """Run interpreter and JIT side by side; return both observations.

    ``mutate(machine)`` applies the same fault to both machines before
    the run.  Trap identity (type, message, pc, cycle) is part of the
    observation.
    """
    results = []
    for cls in (Machine, CompiledMachine):
        machine = cls(program, oracle=oracle)
        if mutate is not None:
            mutate(machine)
        trap = raised_trap(machine.run, limit)
        state = final_state(machine)
        state["trap"] = trap
        results.append(state)
    return results


def assert_identical(program, limit, *, oracle=None, mutate=None):
    interp, jit = run_pair(program, limit, oracle=oracle, mutate=mutate)
    assert interp == jit


PROGRAMS = all_programs()


class TestGoldenRuns:
    """Fault-free runs of every registry program are bit-identical."""

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_full_run(self, name):
        assert_identical(PROGRAMS[name](), 10_000_000)

    @pytest.mark.parametrize("name", ["hi", "bin_sem2", "checksum"])
    def test_budget_edges(self, name):
        """Partial budgets, including mid-block stops, agree exactly."""
        program = PROGRAMS[name]()
        reference = Machine(program)
        reference.run(10_000_000)
        total = reference.cycle
        limits = {0, 1, 2, 3, total - 1, total, total + 1,
                  total // 2, total // 3, total // 7}
        for limit in sorted(x for x in limits if x >= 0):
            assert_identical(program, limit)

    def test_resume_from_partial_budget(self):
        """run() in small slices lands on mid-block pcs constantly."""
        program = PROGRAMS["bin_sem2"]()
        interp, jit = Machine(program), CompiledMachine(program)
        step = 7
        while not interp.halted:
            interp.run(interp.cycle + step)
            jit.run(jit.cycle + step)
            assert final_state(interp) == final_state(jit)
            step = (step * 3) % 11 + 1
        assert jit.halted


class TestInjectedRuns:
    """Random fault injections classify identically on both engines."""

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_memory_faults(self, name):
        program = PROGRAMS[name]()
        golden = Machine(program)
        golden.run(10_000_000)
        total, serial = golden.cycle, bytes(golden.serial)
        rng = random.Random(f"mem:{name}")
        for _ in range(40):
            slot = rng.randrange(1, total + 1)
            addr = rng.randrange(program.ram_size)
            bit = rng.randrange(8)

            def mutate(machine, slot=slot, addr=addr, bit=bit):
                machine.run_to_cycle(slot - 1)
                if not machine.halted:
                    machine.flip_bit(addr, bit)

            assert_identical(program, 4 * total + 100,
                             oracle=serial, mutate=mutate)

    @pytest.mark.parametrize("name", ["hi", "sync2", "memcopy"])
    def test_register_faults(self, name):
        program = PROGRAMS[name]()
        golden = Machine(program)
        golden.run(10_000_000)
        total, serial = golden.cycle, bytes(golden.serial)
        rng = random.Random(f"reg:{name}")
        for _ in range(40):
            slot = rng.randrange(1, total + 1)
            reg = rng.randrange(1, 16)
            bit = rng.randrange(32)

            def mutate(machine, slot=slot, reg=reg, bit=bit):
                machine.run_to_cycle(slot - 1)
                if not machine.halted:
                    machine.flip_register_bit(reg, bit)

            assert_identical(program, 4 * total + 100,
                             oracle=serial, mutate=mutate)


class TestTrapIdentity:
    """Each trap class carries the interpreter's exact diagnostics."""

    def trap_of(self, source, *, ram_size=16):
        program = assemble(source, name="trap", ram_size=ram_size)
        interp, jit = run_pair(program, 1000)
        assert interp == jit
        assert interp["trap"] is not None
        return interp["trap"]

    def test_unaligned_load(self):
        name, message, _, _ = self.trap_of("""
            li r1, 2
            lw r2, 0(r1)
            halt
        """)
        assert name == "AlignmentFault"
        assert "unaligned 4-byte load" in message

    def test_out_of_bounds_store(self):
        name, message, _, _ = self.trap_of("""
            li r1, 64
            sw r1, 0(r1)
            halt
        """)
        assert name == "MemoryFault"
        assert "outside RAM" in message

    def test_negative_address(self):
        name, _, _, _ = self.trap_of("""
            li r1, 4
            sub r1, r0, r1
            lw r2, 0(r1)
            halt
        """)
        # -4 is 4-aligned, so this is a bounds fault, not alignment.
        assert name == "MemoryFault"

    def test_division_by_zero(self):
        name, message, _, _ = self.trap_of("""
            li r1, 7
            divu r2, r1, r0
            halt
        """)
        assert name == "ArithmeticTrap"
        assert "division by zero" in message

    def test_illegal_pc_via_jalr(self):
        name, message, _, _ = self.trap_of("""
            li r1, 4000
            jalr r2, 0(r1)
        """)
        assert name == "IllegalPC"
        assert "outside ROM" in message

    def test_trap_leaves_identical_machine_state(self):
        """pc/cycle after the trap (halted, un-incremented) agree."""
        program = assemble("""
            li r1, 3
            lh r2, 0(r1)
            halt
        """, name="trap-state", ram_size=8)
        interp, jit = run_pair(program, 1000)
        assert interp["trap"] == jit["trap"]
        assert interp["pc"] == jit["pc"]
        assert interp["cycle"] == jit["cycle"]
        assert interp["halted"] and jit["halted"]


class TestSnapshotInterop:
    """Snapshots are engine-independent: cross-restore round-trips."""

    def test_interp_snapshot_into_jit(self):
        program = PROGRAMS["bin_sem2"]()
        interp = Machine(program)
        interp.run(50)
        state = interp.snapshot()
        jit = CompiledMachine(program)
        jit.restore(state)
        assert final_state(jit) == final_state(interp)
        interp.run(10_000_000)
        jit.run(10_000_000)
        assert final_state(interp) == final_state(jit)

    def test_jit_snapshot_into_interp(self):
        program = PROGRAMS["checksum"]()
        jit = CompiledMachine(program)
        jit.run(33)
        interp = Machine(program)
        interp.restore(jit.snapshot())
        interp.run(10_000_000)
        jit.run(10_000_000)
        assert final_state(interp) == final_state(jit)

    def test_restore_keeps_ram_views(self):
        """restore() copies into the RAM buffer the JIT's views cast."""
        program = PROGRAMS["memcopy"]()
        jit = CompiledMachine(program)
        buffers = jit.ram, jit.regs, jit.serial, jit.detections
        jit.run(10)
        state = jit.snapshot()
        jit.run(10_000_000)
        jit.restore(state)
        assert all(a is b for a, b in zip(
            buffers, (jit.ram, jit.regs, jit.serial, jit.detections)))
        assert jit._mv4.obj is jit.ram and jit._mv2.obj is jit.ram
        jit.flip_bit(0, 0)
        ref = Machine(program)
        ref.restore(state)
        ref.flip_bit(0, 0)
        jit.run(10_000_000)
        ref.run(10_000_000)
        assert final_state(jit) == final_state(ref)

    @pytest.mark.parametrize("cls", [Machine, CompiledMachine])
    def test_restore_rejects_a_foreign_ram_size(self, cls):
        """In place, a snapshot of another RAM size would resize the
        buffer (``BufferError`` under the JIT's exported views)."""
        small = cls(assemble("halt", name="small", ram_size=8))
        state = Machine(assemble("halt", name="big", ram_size=16)).snapshot()
        with pytest.raises(ValueError, match="16 bytes of RAM"):
            small.restore(state)
        assert len(small.ram) == 8
        small.run(10)
        assert small.halted

    def test_reset_rebuilds_ram_views(self):
        program = PROGRAMS["hi"]()
        jit = CompiledMachine(program)
        jit.run(10_000_000)
        jit.reset()
        ref = Machine(program)
        jit.run(10_000_000)
        ref.run(10_000_000)
        assert final_state(jit) == final_state(ref)


class TestOracleDivergence:
    def test_divergent_output_stops_both_engines(self):
        program = PROGRAMS["hi"]()
        golden = Machine(program)
        golden.run(10_000)
        serial = bytes(golden.serial)
        assert serial  # hi must print something

        def mutate(machine):
            # Corrupt the byte the first OUT will read.
            machine.flip_register_bit(1, 0) \
                if machine.regs[1] else machine.flip_bit(0, 0)

        interp, jit = run_pair(program, 10_000, oracle=serial,
                               mutate=mutate)
        assert interp == jit

    def test_tracing_falls_back_to_interpreter(self):
        """A tracer disables the JIT path but not correctness."""
        from repro.isa import MemoryTrace

        program = PROGRAMS["memcopy"]()
        interp = Machine(program, tracer=MemoryTrace())
        jit = CompiledMachine(program, tracer=MemoryTrace())
        interp.run(10_000_000)
        jit.run(10_000_000)
        assert final_state(interp) == final_state(jit)
        assert interp.tracer.events == jit.tracer.events


class TestRunToBoundary:
    """``run_to_boundary`` chooses the stop cycle, never the state."""

    LOOP = """\
        .data
v:      .word 0
        .text
start:  li   r3, 50
loop:   lw   r1, v(zero)
        addi r1, r1, 1
        sw   r1, v(zero)
        addi r3, r3, -1
        bnez r3, loop
        out  r1
        halt
"""

    @staticmethod
    def stop(program, target, ceiling, *, oracle=None, mutate=None,
             start=0):
        """Boundary-stop a JIT machine; hold it against the interpreter
        run to exactly the cycle it stopped at."""
        jit = CompiledMachine(program, oracle=oracle)
        ref = Machine(program, oracle=oracle)
        for machine in (jit, ref):
            machine.run_to_cycle(start)
            if mutate is not None:
                mutate(machine)
        jit.run_to_boundary(target, ceiling)
        ref.run_to_cycle(jit.cycle)
        assert final_state(jit) == final_state(ref)
        assert jit.cycle <= ceiling
        assert jit.halted or jit.cycle >= target
        return jit

    def test_interpreter_stops_at_the_target(self):
        """... the target's block boundary, where the JIT stops: the
        iteration cycle 13 falls in ends at 16 (iterations end at 11,
        16, ...); with the ceiling below that, at the target itself."""
        program = assemble(self.LOOP, name="loop", ram_size=4)
        for ceiling, stop in ((200, 16), (16, 16), (15, 13)):
            machine = Machine(program)
            machine.run_to_boundary(13, ceiling)
            assert machine.cycle == stop
            assert self.stop(program, 13, ceiling).cycle == stop
        # From a boundary the target's block is finished too, and a
        # target already reached stops where the machine stands.
        machine = Machine(program)
        machine.run_to_cycle(11)
        machine.run_to_boundary(12, 200)
        assert machine.cycle == 16
        machine.run_to_boundary(16, 200)
        assert machine.cycle == 16

    def test_self_loop_block_stops_on_an_iteration_boundary(self):
        program = assemble(self.LOOP, name="loop", ram_size=4)
        assert "while cycle + 5 <= limit" in compile_program(
            program).source
        for target in range(2, 40):
            jit = self.stop(program, target, 1000)
            # Entry block is one instruction, iterations are five.
            assert jit.cycle == target + -(target - 1) % 5

    def test_overshoot_is_capped_by_the_ceiling(self):
        program = assemble(self.LOOP, name="loop", ram_size=4)
        # Cycle 13 is mid-iteration (iterations end at 11, 16, ...).
        assert self.stop(program, 13, 16).cycle == 16
        # The iteration does not fit under the ceiling: exact stop.
        assert self.stop(program, 13, 15).cycle == 13
        assert self.stop(program, 13, 13).cycle == 13
        # From a mid-block start the block's entrant twin finishes the
        # iteration (a stop at its end, like any block); whole blocks
        # take over at the next leader.
        assert self.stop(program, 15, 30, start=13).cycle == 16
        assert self.stop(program, 17, 30, start=13).cycle == 21
        # The rest of the iteration does not fit: exact stop again.
        assert self.stop(program, 14, 15, start=13).cycle == 14

    def test_out_divergence_inside_a_block(self):
        program = assemble("""\
        li   r1, 65
        out  r1
        addi r1, r1, 1
        out  r1
        addi r1, r1, 1
        out  r1
        halt
""", name="abc", ram_size=4)
        # The second byte deviates: the run ends there, mid-block, on
        # both engines — well short of the target.
        jit = self.stop(program, 6, 100, oracle=b"AXC")
        assert jit.diverged and jit.cycle == 4 and jit.serial == b"AB"

    def test_armed_latch_stops_exactly(self):
        # The latch sits on a byte the loop never stores to, so it
        # stays armed: the primitive is run_to_cycle.
        program = assemble(self.LOOP, name="loop", ram_size=8)
        jit = self.stop(program, 13, 1000,
                        mutate=lambda m: m.stuck_at(6, 0, 1))
        assert jit.cycle == 13 and jit._stuck is not None

    def test_trap_is_the_interpreters(self):
        """A block that traps past the target raises what the
        interpreter raises when it gets there."""
        program = assemble("""\
        li   r2, 2
        addi r1, r1, 1
        lw   r3, 0(r2)
        halt
""", name="trap", ram_size=8)
        traps = []
        for cls, run in ((Machine, lambda m: m.run_to_cycle(3)),
                         (CompiledMachine,
                          lambda m: m.run_to_boundary(1, 50))):
            machine = cls(program)
            with pytest.raises(CPUException) as info:
                run(machine)
            traps.append((type(info.value).__name__, str(info.value),
                          info.value.pc, info.value.cycle,
                          final_state(machine)))
        assert traps[0] == traps[1]

    def test_rejects_backwards_and_inverted_bounds(self):
        machine = CompiledMachine(micro.counter(2))
        machine.run_to_cycle(5)
        with pytest.raises(ValueError):
            machine.run_to_boundary(4, 10)
        with pytest.raises(ValueError):
            machine.run_to_boundary(8, 7)


def count_interpreted(machine):
    """Route ``machine``'s per-instruction handlers through a counter;
    returns the list every interpreted instruction is appended to."""
    calls = []

    def counted(handler):
        def call(instr):
            calls.append(instr)
            handler(instr)
        return call

    machine._exec = [(counted(handler), instr)
                     for handler, instr in machine._exec]
    return calls


class TestMidBlockEntry:
    """A machine that lands inside a block (snapshot restore, ``jalr``)
    runs the rest of it in the block's entrant twin, not interpreted."""

    def test_every_golden_cycle_of_a_hardened_program(self):
        program = bin_sem2.hardened()
        ref = Machine(program)
        states = [ref.snapshot()]
        while not ref.halted:
            ref.step()
            states.append(ref.snapshot())
        total = ref.cycle
        assert len(states) == total + 1
        end_of = {}  # pc -> one past its block's last pc
        for block in _find_blocks(program.rom, program.entry):
            for pc, _ in block.instrs:
                end_of[pc] = block.start + len(block.instrs)
        assert max(end - pc for pc, end in end_of.items()) > 50
        jit = CompiledMachine(program)
        calls = count_interpreted(jit)
        for cycle in range(total):
            state = states[cycle]
            rest = end_of[state.pc] - state.pc
            # A boundary stop finishes the block ...
            jit.restore(state)
            jit.run_to_boundary(cycle + 1, total)
            assert jit.snapshot() == states[cycle + rest]
            # ... and so does an exact limit at the block's end,
            jit.restore(state)
            jit.run_to_cycle(cycle + rest)
            assert jit.snapshot() == states[cycle + rest]
            # as does a run to the program's end,
            jit.restore(state)
            jit.run(10_000_000)
            assert jit.snapshot() == states[total]
            assert not calls
            # while a limit inside the block is interpreted up to.
            jit.restore(state)
            jit.run_to_cycle(cycle + rest - 1)
            assert jit.snapshot() == states[cycle + rest - 1]
            assert len(calls) == rest - 1
            calls.clear()

    BLOCK = """\
        li   r2, 2
        addi r1, r1, 65
        detect 3
        out  r1
        addi r1, r1, 1
        detect 4
        out  r1
        sw   r1, 4(zero)
        lw   r3, 0(r2)
        halt
"""

    @pytest.mark.parametrize("oracle, end_cycle, trapped", [
        (None, 8, True),       # the unaligned load at offset 8
        (b"AB", 8, True),
        (b"AX", 7, False),     # out divergence at offset 6
        (b"X", 4, False),      # out divergence at offset 3
    ])
    def test_side_effects_after_entering_at_every_offset(
            self, oracle, end_cycle, trapped):
        program = assemble(self.BLOCK, name="block", ram_size=8)
        assert len(_find_blocks(program.rom, program.entry)) == 1
        for k in range(1, end_cycle):
            ref = Machine(program, oracle=oracle)
            ref.run_to_cycle(k)
            jit = CompiledMachine(program, oracle=oracle)
            jit.restore(ref.snapshot())
            calls = count_interpreted(jit)
            traps = raised_trap(jit.run, 1000), raised_trap(ref.run, 1000)
            assert traps[0] == traps[1] and bool(traps[0]) == trapped
            assert final_state(jit) == final_state(ref)
            assert jit.cycle == end_cycle and not calls
            assert jit.detections[-1] == (
                (6, 4) if end_cycle > 5 else (3, 3))

    def test_self_loop_body_then_native_loop(self):
        program = assemble(TestRunToBoundary.LOOP, name="loop", ram_size=4)
        ref = Machine(program)
        ref.run_to_cycle(13)  # mid-iteration
        jit = CompiledMachine(program)
        jit.restore(ref.snapshot())
        calls = count_interpreted(jit)
        jit.run(10_000)
        ref.run(10_000)
        assert final_state(jit) == final_state(ref)
        assert jit.halted and not calls

    def test_jalr_into_a_block_body(self):
        program = assemble("""\
        li   r1, 4
        jalr r0, 0(r1)
        addi r2, r2, 1
        addi r2, r2, 2
        addi r2, r2, 4
        out  r2
        halt
""", name="jalr-mid", ram_size=4)
        assert 4 not in compile_program(program).leaders
        jit, ref = CompiledMachine(program), Machine(program)
        calls = count_interpreted(jit)
        jit.run(100)
        ref.run(100)
        assert final_state(jit) == final_state(ref)
        assert jit.serial == b"\x04" and not calls

    def test_armed_latch_is_interpreted_until_its_releasing_store(self):
        program = assemble(self.BLOCK, name="block", ram_size=8)
        ref = Machine(program, oracle=b"AB")
        ref.run_to_cycle(2)
        jit = CompiledMachine(program, oracle=b"AB")
        jit.restore(ref.snapshot())
        calls = count_interpreted(jit)
        for machine in (jit, ref):
            machine.stuck_at(5, 0, 1)
        traps = raised_trap(jit.run, 1000), raised_trap(ref.run, 1000)
        assert traps[0] == traps[1] and traps[0][0] == "AlignmentFault"
        assert final_state(jit) == final_state(ref)
        # Offsets 2..7 are interpreted (7 is the ``sw`` over byte 5);
        # the twin runs the trapping load.
        assert [i.op.name for i in calls][-1] == "SW" and len(calls) == 6
        assert jit._stuck is None

    def test_host_error_never_shows_the_virtual_cycle(self):
        """A negative shift count (no assembler emits one) is a host
        ``ValueError``: the machine halts at or past its entry cycle."""
        program = assemble("""\
        li   r1, 5
        addi r1, r1, 1
        addi r1, r1, 1
        slli r2, r1, 1
        halt
""", name="neg-shift", ram_size=4)
        program.rom[3] = dataclasses.replace(program.rom[3], imm=-1)
        for k in (1, 2, 3):
            ref = Machine(program)
            ref.run_to_cycle(k)
            jit = CompiledMachine(program)
            jit.restore(ref.snapshot())
            with pytest.raises(ValueError, match="negative shift count"):
                jit.run(100)
            assert jit.halted and jit.cycle >= k and jit.regs[1] == 7

    def test_views_survive_restore_reset_restore(self):
        program = PROGRAMS["memcopy"]()
        ref = Machine(program)
        ref.run_to_cycle(10)
        early = ref.snapshot()
        ref.run_to_cycle(25)
        late = ref.snapshot()
        ref.run(10_000_000)
        jit = CompiledMachine(program)
        jit.restore(late)
        jit.reset()
        assert jit._mv4.obj is jit.ram
        jit.restore(early)
        jit.run(10_000_000)
        assert final_state(jit) == final_state(ref)

    def test_snapshot_of_the_executors_other_machine(self):
        """What every experiment does: the faulty machine restores a
        snapshot taken from the pristine one."""
        from repro.campaign import ExecutorConfig, record_golden

        golden = record_golden(PROGRAMS["bin_sem2"]())
        executor = ExecutorConfig(engine="compiled").build(golden)
        pristine, faulty = executor._pristine, executor._machine
        calls = count_interpreted(faulty)
        for cycle in (7, 8, 40, golden.cycles - 3):
            pristine.run_to_cycle(cycle)
            faulty.restore(pristine.snapshot())
            faulty.run(10_000_000)
            assert faulty.cycle == golden.cycles
            assert bytes(faulty.serial) == golden.output
        assert not calls


class TestEngineRegistry:
    def test_get_engine_by_name(self):
        assert get_engine("interp") is INTERP
        assert get_engine("compiled") is COMPILED

    def test_default_is_compiled(self):
        assert get_engine(None) is COMPILED

    def test_instance_passthrough(self):
        assert get_engine(INTERP) is INTERP

    def test_unknown_engine_rejected(self):
        """An executor config refuses an unknown engine when it is made,
        so every transport rejects it alike (a forked worker would
        otherwise die building its executor)."""
        from repro.campaign import ExecutorConfig

        for name in ("auto", "turbo", "batch"):
            for make in (get_engine,
                         lambda engine: ExecutorConfig(engine=engine)):
                with pytest.raises(ValueError, match=(
                        f"unknown execution engine '{name}'; "
                        "available: compiled, interp$")):
                    make(name)

    def test_compiled_is_the_one_default(self):
        from repro.campaign import ExecutorConfig, record_golden
        from repro.campaign.experiment import ExperimentExecutor

        golden = record_golden(micro.counter(1))
        assert set(ENGINES) == {"interp", "compiled"}
        assert ExecutorConfig().build(golden).engine is COMPILED \
            is ExperimentExecutor(golden).engine

    def test_registry_names_match(self):
        for name, engine in ENGINES.items():
            assert engine.name == name

    def test_create_machine_types(self):
        program = micro.counter(1)
        assert type(INTERP.create_machine(program)) is Machine
        assert isinstance(COMPILED.create_machine(program),
                          CompiledMachine)

    def test_compile_program_covers_rom(self):
        code = compile_program(PROGRAMS["sync2"]())
        if code is not None:  # None only on big-endian hosts
            assert 0 in code.leaders
            assert "def _jit(M, limit, ceiling):" in code.source

    def test_compiled_code_is_cached_on_the_program_only(self):
        """One codegen per program object — and the artifact is not
        part of the program: not compared, not pickled."""
        import pickle

        program = micro.counter(2)
        twin = micro.counter(2)
        code = compile_program(program)
        if code is None:  # big-endian hosts never compile
            return
        assert compile_program(program) is code
        assert CompiledMachine(program)._jit is code
        assert program == twin  # twin holds no artifact
        shipped = pickle.loads(pickle.dumps(program))
        assert shipped == program
        assert compile_program(shipped) is not code

    def test_codegen_trims_the_heap_once(self, monkeypatch):
        """The compiler's transient memory goes back to the OS right
        after each codegen (not at a later, GC-timed free); cache hits
        compile nothing and trim nothing."""
        from repro.engine import compiled

        trims = []
        monkeypatch.setattr(compiled, "_trim_heap",
                            lambda: trims.append(1))
        program = micro.counter(2)
        if compile_program(program) is None:  # big-endian hosts
            return
        compile_program(program)
        CompiledMachine(program)
        assert len(trims) == 1
