"""Execution engines: interchangeable cores that run the machine model.

The campaign layer executes hundreds of millions of instructions per
full scan, so *how* a :class:`~repro.isa.cpu.Machine` steps through ROM
dominates campaign wall-clock.  This package provides two engines
behind one interface, selected by name through
:class:`~repro.campaign.experiment.ExecutorConfig` (``engine=``) and the
CLI (``--engine``):

``interp``
    The reference interpreter — :class:`~repro.isa.cpu.Machine` itself,
    one dispatch-table call per instruction.  Deliberately simple; it is
    the differential-testing oracle the compiled engine is validated
    against (``--engine interp``).

``compiled`` (the default)
    The template JIT (:mod:`repro.engine.compiled`): at machine
    construction the ROM is decomposed into basic blocks and stitched
    into one generated-Python function (operands constant-folded into
    the source, registers held in locals, word/halfword RAM access
    through ``memoryview`` casts, self-loops turned into native
    ``while`` loops).  Cycle accounting, trap semantics, serial/detect
    side effects and state digests are bit-identical to the
    interpreter, so checkpoint ladders, convergence rejoin and
    criticality slicing keep working unchanged.

Engines are stateless singletons (like fault domains); they resolve by
name so an :class:`ExecutorConfig` naming one pickles across process
boundaries and the dist-fabric wire protocol unchanged.
"""

from __future__ import annotations

from ..isa.cpu import Machine


class ExecutionEngine:
    """One way of executing programs on the machine model.

    ``name`` is the registry key (also the CLI spelling).  Engines must
    be stateless singletons.
    """

    #: Registry name, accepted by ``ExecutorConfig(engine=...)``.
    name: str = ""
    #: Cost of one convergence probe (a state digest) in cycles of
    #: execution on this engine: the first gap of the executor's probe
    #: schedule.  A constant, not a timing, so all workers agree.
    probe_gap: int = 1

    def create_machine(self, program, *, tracer=None,
                       oracle=None) -> Machine:
        """Build a machine executing ``program`` under this engine.

        The returned object is always a :class:`~repro.isa.cpu.Machine`
        (or subclass): snapshots, digests, injection and tracing keep
        their exact interpreter semantics regardless of engine.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ExecutionEngine {self.name!r}>"


class InterpreterEngine(ExecutionEngine):
    """The reference interpreter — the differential-testing oracle."""

    name = "interp"

    def create_machine(self, program, *, tracer=None,
                       oracle=None) -> Machine:
        return Machine(program, tracer=tracer, oracle=oracle)


class CompiledEngine(ExecutionEngine):
    """Template-JIT superblocks generated at machine build."""

    name = "compiled"
    #: A digest is ~2.5 µs = 40-130 JIT cycles; 64-256 measured
    #: within 3 % of each other on the kernel workloads.
    probe_gap = 128

    def create_machine(self, program, *, tracer=None,
                       oracle=None) -> Machine:
        from .compiled import CompiledMachine

        return CompiledMachine(program, tracer=tracer, oracle=oracle)


#: The built-in engines, as shared stateless singletons.
INTERP = InterpreterEngine()
COMPILED = CompiledEngine()

#: Registry of available engines, keyed by name.
ENGINES: dict[str, ExecutionEngine] = {
    INTERP.name: INTERP,
    COMPILED.name: COMPILED,
}


def get_engine(engine: ExecutionEngine | str | None) -> ExecutionEngine:
    """Resolve an engine argument: an instance, a registry name, or None.

    ``None`` means the default (compiled) engine.
    """
    if engine is None:
        return COMPILED
    if isinstance(engine, ExecutionEngine):
        return engine
    try:
        return ENGINES[engine]
    except KeyError:
        available = ", ".join(sorted(ENGINES))
        raise ValueError(
            f"unknown execution engine {engine!r}; available: {available}"
        ) from None
