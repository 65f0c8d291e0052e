"""Differential tests: the template-JIT engine vs the interpreter oracle.

Every test here runs the same program (often with a fault injected)
on a plain :class:`~repro.isa.cpu.Machine` and on a
:class:`~repro.engine.compiled.CompiledMachine` and asserts *bit
identity* — registers, RAM, pc, cycle, serial output, detection log,
trap type/message/location, and the state digest the convergence
early-exit keys on.  The interpreter is deliberately simple; the JIT
is only allowed to be faster, never different.
"""

import random

import pytest

from repro.engine import (
    BATCH,
    COMPILED,
    ENGINES,
    INTERP,
    get_engine,
)
from repro.engine.compiled import CompiledMachine, compile_program
from repro.isa import CPUException, Machine, assemble
from repro.programs import all_programs, micro


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
        trap = None
        try:
            machine.run(limit)
        except CPUException as exc:
            trap = (type(exc).__name__, str(exc), exc.pc, exc.cycle)
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

    def test_restore_rebuilds_ram_views(self):
        """restore() swaps the RAM buffer; the JIT's views must follow."""
        program = PROGRAMS["memcopy"]()
        jit = CompiledMachine(program)
        jit.run(10)
        state = jit.snapshot()
        jit.run(10_000_000)
        jit.restore(state)
        jit.flip_bit(0, 0)
        ref = Machine(program)
        ref.restore(state)
        ref.flip_bit(0, 0)
        jit.run(10_000_000)
        ref.run(10_000_000)
        assert final_state(jit) == final_state(ref)

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
        machine = Machine(assemble(self.LOOP, name="loop", ram_size=4))
        machine.run_to_boundary(13, 200)
        assert machine.cycle == 13

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
        # From a mid-block start the rest of the block is interpreted
        # one instruction at a time (every cycle a stop); whole blocks
        # take over at the next leader.
        assert self.stop(program, 15, 30, start=13).cycle == 15
        assert self.stop(program, 17, 30, start=13).cycle == 21

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


class TestEngineRegistry:
    def test_get_engine_by_name(self):
        assert get_engine("interp") is INTERP
        assert get_engine("compiled") is COMPILED
        assert get_engine("batch") is BATCH

    def test_default_is_compiled(self):
        assert get_engine(None) is COMPILED

    def test_instance_passthrough(self):
        assert get_engine(INTERP) is INTERP

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown execution engine"):
            get_engine("turbo")

    def test_registry_names_match(self):
        for name, engine in ENGINES.items():
            assert engine.name == name

    def test_create_machine_types(self):
        program = micro.counter(1)
        assert type(INTERP.create_machine(program)) is Machine
        assert isinstance(COMPILED.create_machine(program),
                          CompiledMachine)
        assert BATCH.batch and not COMPILED.batch

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
