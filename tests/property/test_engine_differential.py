"""Property-based differential fuzzing of the execution engines.

Hypothesis generates random (but always-halting, fault-free-safe)
assembly programs plus random fault injections, and checks that the
interpreter and the template-JIT engine agree on *everything
observable*: final machine state, outcome class, cycle count and trap
identity.  Hand-written differential tests cover
the known-tricky cases; the generator's job is to find the register /
immediate / opcode / control-flow combinations nobody thought of.

Register conventions of the generated programs (so the fault-free run
can never trap):

* ``r1``–``r4``  scratch, freely written by random ALU ops and loads;
* ``r5``         divisor, seeded non-zero and never written;
* ``r7``         loop counter of the optional bounded loop;
* loads/stores   use ``r0`` as base with in-range aligned offsets.

Injected faults are unconstrained — they may trap, diverge, hang or
vanish; the engines must merely tell the same story.
"""

from unittest import mock

import pytest

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.campaign import (ExecutorConfig, experiment, record_golden,
                            run_full_scan)
from repro.engine import CompiledEngine
from repro.engine.compiled import CompiledMachine, _find_blocks
from repro.faultspace import FaultCoordinate
from repro.faultspace.registers import RegisterFaultCoordinate
from repro.isa import CPUException, Machine, assemble

RAM_SIZE = 32

_ALU_R = ["add", "sub", "and", "or", "xor", "sll", "srl", "sra",
          "slt", "sltu", "mul"]
_ALU_I = ["addi", "andi", "ori", "xori", "slti", "sltiu"]
_SHIFT_I = ["slli", "srli", "srai"]


@st.composite
def _body_ops(draw, n_min, n_max, detect=True):
    """Random straight-line instructions honouring the register plan."""
    kinds = ["alu_r", "alu_r", "alu_i", "shift", "div", "load",
             "store", "out", "lui", "nop"]
    if detect:
        # record_golden() rejects fault-free detections, so executor
        # fuzzing must generate detect-free programs.
        kinds.append("detect")
    lines = []
    for _ in range(draw(st.integers(n_min, n_max))):
        kind = draw(st.sampled_from(kinds))
        rd = draw(st.integers(1, 4))
        rs1 = draw(st.integers(0, 5))
        rs2 = draw(st.integers(0, 5))
        if kind == "alu_r":
            op = draw(st.sampled_from(_ALU_R))
            lines.append(f"{op} r{rd}, r{rs1}, r{rs2}")
        elif kind == "alu_i":
            op = draw(st.sampled_from(_ALU_I))
            imm = draw(st.integers(-128, 255))
            lines.append(f"{op} r{rd}, r{rs1}, {imm}")
        elif kind == "shift":
            op = draw(st.sampled_from(_SHIFT_I))
            imm = draw(st.integers(0, 31))
            lines.append(f"{op} r{rd}, r{rs1}, {imm}")
        elif kind == "div":
            op = draw(st.sampled_from(["divu", "remu"]))
            lines.append(f"{op} r{rd}, r{rs1}, r5")
        elif kind == "load":
            op, width = draw(st.sampled_from(
                [("lw", 4), ("lh", 2), ("lhu", 2), ("lb", 1),
                 ("lbu", 1)]))
            offset = width * draw(
                st.integers(0, RAM_SIZE // width - 1))
            lines.append(f"{op} r{rd}, {offset}(r0)")
        elif kind == "store":
            op, width = draw(st.sampled_from(
                [("sw", 4), ("sh", 2), ("sb", 1)]))
            offset = width * draw(
                st.integers(0, RAM_SIZE // width - 1))
            lines.append(f"{op} r{rs1}, {offset}(r0)")
        elif kind == "out":
            lines.append(f"out r{draw(st.integers(1, 4))}")
        elif kind == "detect":
            lines.append(f"detect {draw(st.integers(0, 7))}")
        elif kind == "lui":
            lines.append(f"lui r{rd}, {draw(st.integers(0, 0xFFFF))}")
        else:
            lines.append("nop")
    return lines


@st.composite
def fuzz_programs(draw, detect=True):
    lines = []
    for reg in range(1, 5):
        lines.append(f"li r{reg}, {draw(st.integers(-100, 70000))}")
    lines.append(f"li r5, {draw(st.integers(1, 1000))}")
    # Sometimes one long straight-line block, so that entrant-twin
    # guards far from either end of a block are fuzzed too.
    n_min, n_max = (40, 56) if draw(st.booleans()) else (2, 8)
    lines.extend(draw(_body_ops(n_min, n_max, detect=detect)))
    if draw(st.booleans()):
        lines.append(f"li r7, {draw(st.integers(2, 5))}")
        lines.append("loop:")
        lines.extend(draw(_body_ops(1, 4, detect=detect)))
        lines.append("addi r7, r7, -1")
        lines.append("bnez r7, loop")
    lines.extend(draw(_body_ops(0, 3, detect=detect)))
    lines.append("halt")
    return assemble("\n".join(lines), name="fuzz", ram_size=RAM_SIZE)


def _observe(machine, limit):
    trap = None
    try:
        machine.run(limit)
    except CPUException as exc:
        trap = (type(exc).__name__, str(exc), exc.pc, exc.cycle)
    return {
        "pc": machine.pc, "cycle": machine.cycle,
        "halted": machine.halted, "diverged": machine.diverged,
        "regs": list(machine.regs), "ram": bytes(machine.ram),
        "serial": bytes(machine.serial),
        "detections": list(machine.detections),
        "digest": machine.state_digest(), "trap": trap,
    }


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=fuzz_programs(), data=st.data())
def test_jit_matches_interpreter_under_injection(program, data):
    """Machine-level: full state + trap identity after a random flip."""
    golden = Machine(program)
    golden.run(100_000)
    assert golden.halted, "generated program must halt fault-free"
    total, serial = golden.cycle, bytes(golden.serial)

    slot = data.draw(st.integers(1, total), label="slot")
    if data.draw(st.booleans(), label="memory_fault"):
        addr = data.draw(st.integers(0, RAM_SIZE - 1), label="addr")
        bit = data.draw(st.integers(0, 7), label="bit")
        fault = lambda m: m.flip_bit(addr, bit)  # noqa: E731
    else:
        reg = data.draw(st.integers(1, 15), label="reg")
        bit = data.draw(st.integers(0, 31), label="regbit")
        fault = lambda m: m.flip_register_bit(reg, bit)  # noqa: E731
    # The campaign's own sequence: restore a pristine snapshot (mostly
    # mid-block), inject, run to an exact limit — the cycle budget, or
    # one that falls inside a block.
    limit = data.draw(st.just(4 * total + 100)
                      | st.integers(slot - 1, total + 8), label="limit")
    golden.reset()
    golden.run_to_cycle(slot - 1)
    state = golden.snapshot()
    observations = []
    for cls in (Machine, CompiledMachine):
        machine = cls(program, oracle=serial)
        machine.restore(state)
        fault(machine)
        observations.append(_observe(machine, limit))
    assert observations[0] == observations[1]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=fuzz_programs(), data=st.data())
def test_boundary_stop_is_an_interpreter_state(program, data):
    """``run_to_boundary`` may pick the cycle, never the state.

    From a random (possibly mid-block, possibly faulty) start, a
    compiled machine asked for a boundary at ``target`` under
    ``ceiling`` stops at a cycle ``c`` with ``target <= c <= ceiling``
    and ``c < target + longest block`` — or ended earlier — and
    everything observable equals an interpreter run to exactly ``c``,
    raised trap included.
    """
    golden = Machine(program)
    golden.run(100_000)
    assert golden.halted, "generated program must halt fault-free"
    total, serial = golden.cycle, bytes(golden.serial)
    longest = max(len(block.instrs)
                  for block in _find_blocks(program.rom, program.entry))

    start = data.draw(st.integers(0, total - 1), label="start")
    if data.draw(st.booleans(), label="memory_fault"):
        addr = data.draw(st.integers(0, RAM_SIZE - 1), label="addr")
        bit = data.draw(st.integers(0, 7), label="bit")
        fault = lambda m: m.flip_bit(addr, bit)  # noqa: E731
    else:
        reg = data.draw(st.integers(1, 15), label="reg")
        bit = data.draw(st.integers(0, 31), label="regbit")
        fault = lambda m: m.flip_register_bit(reg, bit)  # noqa: E731
    # Short hops and tight ceilings, so that targets fall inside blocks
    # and the ceiling, not the block end, is what often binds.
    hops = data.draw(
        st.lists(st.tuples(st.integers(0, longest + 2),
                           st.integers(0, longest)),
                 min_size=1, max_size=6), label="hops")

    def boot(cls):
        machine = cls(program, oracle=serial)
        machine.run_to_cycle(start)
        fault(machine)
        return machine

    def state(machine, trap):
        return (machine.cycle, machine.pc, machine.halted,
                machine.diverged, machine.state_digest(),
                bytes(machine.serial), list(machine.detections), trap)

    def guarded(run, *args):
        try:
            run(*args)
        except CPUException as exc:
            return (type(exc).__name__, str(exc), exc.pc, exc.cycle)
        return None

    jit, ref = boot(CompiledMachine), boot(Machine)
    for gap, slack in hops:
        if jit.halted:
            break
        target = jit.cycle + gap
        trap = guarded(jit.run_to_boundary, target, target + slack)
        # The ceiling binds even a run that ends: a halt one cycle past
        # the cycle budget would be a timeout misread as a halt.
        assert jit.cycle <= target + slack
        assert jit.cycle < target + longest
        assert jit.halted or jit.cycle >= target
        # A trapping instruction does not complete: the interpreter
        # must attempt the cycle after the one the machine stopped at.
        assert state(jit, trap) == state(
            ref, guarded(ref.run_to_cycle, jit.cycle + bool(trap)))


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=fuzz_programs(detect=False), data=st.data())
@pytest.mark.parametrize("domain", ["memory", "register"])
def test_executors_agree_on_records(domain, program, data):
    """Executor-level: both engines emit identical records."""
    golden = record_golden(program)

    def coordinate(slot):
        if domain == "memory":
            return FaultCoordinate(
                slot=slot,
                addr=data.draw(st.integers(0, RAM_SIZE - 1)),
                bit=data.draw(st.integers(0, 7)))
        return RegisterFaultCoordinate(
            slot=slot,
            reg=data.draw(st.integers(1, 15)),
            bit=data.draw(st.integers(0, 31)))

    coords = [coordinate(data.draw(st.integers(1, golden.cycles)))
              for _ in range(data.draw(st.integers(1, 14), label="count"))]
    coords.sort(key=lambda c: c.slot)

    records = {}
    for engine in ("interp", "compiled"):
        executor = ExecutorConfig(engine=engine,
                                  domain=domain).build(golden)
        records[engine] = [executor.run(coord) for coord in coords]
    assert records["compiled"] == records["interp"]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=fuzz_programs(detect=False), data=st.data())
@pytest.mark.parametrize("early_stop", [True, False])
def test_state_memo_matches_unconverged_execution(early_stop, program,
                                                  data):
    """Executor-level: memo on ≡ convergence off.

    Faults come in pairs — one cell and bit hit at two slots, the
    shape of neighbouring def/use classes, which is where a later run
    meets the state an earlier one stored — and the grid is forced
    dense so that runs of these short programs stop on it.  Without
    ``early_stop`` the two runs of a pair may have printed different
    bytes before they meet.
    """
    golden = record_golden(program)
    coords = []
    for _ in range(data.draw(st.integers(1, 4), label="pairs")):
        first = data.draw(st.integers(1, golden.cycles), label="slot")
        slots = (first, min(first + data.draw(st.integers(1, 3)),
                            golden.cycles))
        if data.draw(st.booleans(), label="memory_fault"):
            addr = data.draw(st.integers(0, RAM_SIZE - 1))
            bit = data.draw(st.integers(0, 7))
            coords += [FaultCoordinate(slot, addr, bit) for slot in slots]
        else:
            # The registers the generated programs use; r5 (read by
            # every division, never written) holds a fault for good.
            reg = data.draw(st.sampled_from([1, 2, 3, 4, 5, 5, 7]))
            bit = data.draw(st.integers(0, 31))
            coords += [RegisterFaultCoordinate(slot, reg, bit)
                       for slot in slots]
    coords.sort(key=lambda c: c.slot)

    def records(engine, **config):
        by_domain = []
        for domain, kind in (("memory", FaultCoordinate),
                             ("register", RegisterFaultCoordinate)):
            executor = ExecutorConfig(
                engine=engine, domain=domain, early_stop=early_stop,
                **config).build(golden)
            by_domain.append([executor.run(c) for c in coords
                              if type(c) is kind])
        return by_domain

    reference = records("interp", use_convergence=False)
    grid = data.draw(st.integers(1, 4), label="grid")
    with mock.patch.object(experiment, "MEMO_GRID", grid):
        assert records("interp") == reference
        assert records("compiled") == reference


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=fuzz_programs(detect=False), data=st.data())
@pytest.mark.parametrize("domain", ["memory", "register", "burst2",
                                    "burst4", "stuck", "pc"])
def test_fast_forward_matches_unconverged_execution(domain, program, data):
    """Campaign-level: every possible jump taken ≡ convergence off.

    A whole pruned scan per fault model, with the jump floor at one
    cycle, the JIT probing as densely as the interpreter (these
    programs end before its first probe otherwise), a drawn lead
    between a touch and the stop after it, and no criticality
    pre-skip, so that the differences nothing ever looks at again —
    the ones that jump furthest — execute too.
    """
    golden = record_golden(program)
    reference = run_full_scan(
        golden, domain=domain, keep_records=True,
        config=ExecutorConfig(engine="interp", use_convergence=False))
    lead = data.draw(st.integers(0, 3), label="lead")
    with mock.patch.object(CompiledEngine, "probe_gap", 1):
        for engine in ("interp", "compiled"):
            executor = ExecutorConfig(engine=engine,
                                      domain=domain).build(golden)
            assert executor._jump_floor == 1
            executor._lockstep_lead = lead
            executor._cell_critical = lambda coordinate: True
            assert run_full_scan(golden, domain=domain, executor=executor,
                                 keep_records=True) == reference
