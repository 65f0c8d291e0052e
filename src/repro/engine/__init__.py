"""Execution engines: interchangeable cores that run the machine model.

The campaign layer executes hundreds of millions of instructions per
full scan, so *how* a :class:`~repro.isa.cpu.Machine` steps through ROM
dominates campaign wall-clock.  This package provides two engines
and a chooser behind one interface, selected by name through
:class:`~repro.campaign.experiment.ExecutorConfig` (``engine=``) and the
CLI (``--engine``):

``interp``
    The reference interpreter — :class:`~repro.isa.cpu.Machine` itself,
    one dispatch-table call per instruction.  Deliberately simple; it is
    the differential-testing oracle the other engines are validated
    against.

``compiled``
    The template JIT (:mod:`repro.engine.compiled`): at machine
    construction the ROM is decomposed into basic blocks and stitched
    into one generated-Python function (operands constant-folded into
    the source, registers held in locals, word/halfword RAM access
    through ``memoryview`` casts, self-loops turned into native
    ``while`` loops).  Cycle accounting, trap semantics, serial/detect
    side effects and state digests are bit-identical to the
    interpreter, so checkpoint ladders, convergence rejoin and
    criticality slicing keep working unchanged.

``auto`` (the default)
    Not a third core but a chooser: the planner
    (:mod:`repro.engine.plan`) sizes the campaign from its def/use
    partition and resolves to ``interp`` when it is too small to
    amortize codegen, to ``compiled`` otherwise.

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

    def resolve(self, golden, domain, *, partition=None) -> "ExecutionEngine":
        """The concrete engine to run a campaign over ``golden`` with.

        Concrete engines return themselves; the ``auto`` engine
        overrides this to consult the planner
        (:mod:`repro.engine.plan`) once the golden run and fault domain
        are known — ``partition`` reuses a caller-built def/use
        partition so planning is free where one already exists.  Called
        by :meth:`~repro.campaign.experiment.ExecutorConfig.build`, so
        serial, parallel and dist workers all resolve identically.
        """
        return self

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


class AutoEngine(CompiledEngine):
    """Chooser: interp or compiled, from the size of the campaign.

    Machines built directly under ``auto`` are compiled machines (the
    safe default); campaign executors instead call :meth:`resolve` with
    the golden run and domain, which hands the decision to
    :func:`repro.engine.plan.plan_tiers` — the interpreter only when
    the campaign is too small to amortize JIT codegen.
    """

    name = "auto"

    def resolve(self, golden, domain, *, partition=None) -> ExecutionEngine:
        from .plan import plan_tiers

        return ENGINES[plan_tiers(golden, domain,
                                  partition=partition).engine]


#: The built-in engines, as shared stateless singletons.
INTERP = InterpreterEngine()
COMPILED = CompiledEngine()
AUTO = AutoEngine()

#: Registry of available engines, keyed by name.
ENGINES: dict[str, ExecutionEngine] = {
    INTERP.name: INTERP,
    COMPILED.name: COMPILED,
    AUTO.name: AUTO,
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
