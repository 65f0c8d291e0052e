"""Substrate gate: the compiled engine against the interpreter.

Not a paper figure — ``test_compiled_throughput`` is the acceptance
gate for the compiled execution core: the template-JIT must sustain at
least 10× the interpreter's throughput on the same loop, measured
back-to-back under identical conditions (steady state — machines are
reused via ``reset()``, the way campaign executors use them).
"""

import time

from repro.engine.compiled import CompiledMachine
from repro.isa import Machine, assemble

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
    assert speedup >= 10.0, (
        f"compiled engine is only {speedup:.1f}x the interpreter "
        f"({compiled_cps:.0f} vs {interp_cps:.0f} cycles/s); the "
        f"acceptance floor is 10x")
