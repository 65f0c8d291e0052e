"""Substrate microbenchmarks: engines, snapshots, assembler.

Not a paper figure — these measure the simulator substrate itself so
performance regressions in the machine show up independently of the
campaign-level benchmarks.  The throughput tests write (and
incrementally merge) ``BENCH_machine.json`` at the repo root (see
``_bench_json``) so the cycles/second trajectory of both engines is
tracked commit over commit.

``test_compiled_throughput`` doubles as the acceptance gate for the
compiled execution core: the template-JIT must sustain at least 10×
the interpreter's throughput on the same loop, measured back-to-back
under identical conditions (steady state — machines are reused via
``reset()``, the way campaign executors use them).
"""

import time

from _bench_json import write_bench_json

from repro.campaign import record_golden
from repro.engine.compiled import CompiledMachine
from repro.isa import Assembler, Machine, assemble
from repro.programs import micro, sync2

LOOP_SOURCE = """
        .data
v:      .word 0
        .text
start:  li   r3, 2000
loop:   lw   r1, v(zero)
        addi r1, r1, 1
        sw   r1, v(zero)
        addi r3, r3, -1
        bnez r3, loop
        halt
"""

LOOP_CYCLES = 2 + 5 * 2000

#: Merged across the throughput tests, rewritten after each one, so a
#: partial run still leaves a valid artifact.
_PAYLOAD: dict = {}


def _record(section: str, payload: dict) -> None:
    _PAYLOAD[section] = payload
    write_bench_json("machine", _PAYLOAD)


def _steady_cps(machine, repeats: int = 7) -> float:
    """Best-of-N steady-state throughput of one reused machine."""
    best = float("inf")
    for _ in range(repeats):
        machine.reset()
        start = time.perf_counter()
        machine.run(100_000)
        best = min(best, time.perf_counter() - start)
        assert machine.cycle == LOOP_CYCLES
    return LOOP_CYCLES / best


def test_interpreter_throughput(benchmark):
    program = assemble(LOOP_SOURCE, ram_size=4)

    def run():
        machine = Machine(program)
        machine.run(100_000)
        return machine.cycle

    cycles = benchmark(run)
    assert cycles == LOOP_CYCLES
    if benchmark.stats is not None:
        mean = benchmark.stats.stats.mean
    else:
        # --benchmark-disable (CI smoke): time one run by hand so the
        # JSON artifact still gets written and uploaded.
        start = time.perf_counter()
        run()
        mean = time.perf_counter() - start
    _record("interpreter", {
        "benchmark": "interpreter_throughput",
        "cycles_per_run": cycles,
        "mean_seconds": round(mean, 6),
        "cycles_per_second": round(cycles / mean),
    })


def test_compiled_throughput():
    """A/B gate: the template JIT must be >= 10x the interpreter.

    Both sides run the same loop under the same protocol (best-of-N on
    a reused machine) in the same process, so machine speed, CPU
    frequency scaling and interpreter warm-up cancel out of the ratio.
    """
    program = assemble(LOOP_SOURCE, ram_size=4)
    interp_cps = _steady_cps(Machine(program))
    compiled_cps = _steady_cps(CompiledMachine(program))
    speedup = compiled_cps / interp_cps
    _record("compiled", {
        "benchmark": "compiled_throughput",
        "cycles_per_run": LOOP_CYCLES,
        "interp_cycles_per_second": round(interp_cps),
        "compiled_cycles_per_second": round(compiled_cps),
        "speedup": round(speedup, 2),
    })
    assert speedup >= 10.0, (
        f"compiled engine is only {speedup:.1f}x the interpreter "
        f"({compiled_cps:.0f} vs {interp_cps:.0f} cycles/s); the "
        f"acceptance floor is 10x")


def test_snapshot_restore_cost(benchmark):
    machine = Machine(micro.memcopy(16))
    machine.run_to_cycle(20)
    state = machine.snapshot()

    def roundtrip():
        machine.restore(state)
        return machine.cycle

    assert benchmark(roundtrip) == 20


def test_assembler_throughput(benchmark):
    source = sync2.baseline().source

    def assemble_it():
        return Assembler(ram_size=4096).assemble(source)

    program = benchmark(assemble_it)
    assert program.rom_size > 100


def test_golden_trace_overhead(benchmark):
    """Tracing overhead relative to the raw interpreter run."""
    program = micro.checksum_loop(8)

    def traced():
        return record_golden(program).cycles

    assert benchmark(traced) > 0
