"""Golden-run recording.

A golden run executes the benchmark once, fault-free, with memory
tracing enabled.  It establishes:

* the correct serial output (the failure oracle),
* the runtime Δt in cycles and thus the fault space together with the
  program's RAM footprint Δm,
* the memory-access trace feeding def/use pruning,
* the checkpoint-digest ladder powering the campaign layer's
  convergence early-exit (see :class:`CheckpointLadder`).
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b

from ..faultspace.defuse import DefUsePartition
from ..faultspace.model import FaultSpace
from ..isa.assembler import Program
from ..isa.cpu import DIGEST_SIZE, Machine, ram_hashed_digest
from ..isa.errors import CPUException
from ..isa.tracing import MemoryTrace

#: Safety cap for golden runs of programs that fail to terminate.
DEFAULT_GOLDEN_CYCLE_LIMIT = 5_000_000

#: Ladder-size cap for the auto-tuned checkpoint stride: recording
#: starts *dense* (a rung every cycle) and doubles the stride
#: (decimating the digests already taken) whenever the ladder would
#: exceed this many checkpoints.  Density matters because a faulty run
#: that re-joins the golden trajectory usually does so with a small
#: cycle *shift* (a detect-and-correct path inserts a handful of extra
#: cycles): with a rung at every golden cycle, a digest check at any
#: faulty cycle can match regardless of the shift, whereas a sparse
#: ladder only catches shifts that are multiples of its stride.  The
#: cap keeps long programs bounded — ``Δt``-proportional stride, at
#: most ~16k digests (≈1 MiB) per golden run — at the cost of that
#: shift granularity.
MAX_CHECKPOINTS = 16384


class GoldenRunError(RuntimeError):
    """The fault-free run misbehaved (trap, timeout, or detections)."""


@dataclass(frozen=True)
class CheckpointLadder:
    """Golden state digests taken every ``stride`` cycles.

    ``digests[i]`` is the golden machine's
    :meth:`~repro.isa.cpu.Machine.state_digest` right after instruction
    ``(i + 1) * stride`` executed; checkpoints are only taken while the
    machine is still running, so every rung refers to a *live* golden
    state.

    Because the golden run terminates, no two of its live states can be
    identical — a repeated (ram, regs, pc, output-length) state would
    loop forever — so the digest → cycle mapping of :meth:`lookup` is
    injective and a faulty machine whose digest appears in it has
    provably re-joined the golden trajectory at that golden cycle.
    """

    stride: int
    digests: tuple[bytes, ...]

    def lookup(self) -> dict[bytes, int]:
        """``digest -> golden cycle`` table (build once per executor)."""
        return {digest: (i + 1) * self.stride
                for i, digest in enumerate(self.digests)}


@dataclass(frozen=True)
class GoldenRun:
    """The reference execution of one benchmark variant."""

    program: Program
    output: bytes
    cycles: int
    trace: MemoryTrace
    #: ROM index executed at each slot (``pc_trace[t]`` ran at slot
    #: ``t + 1``).  Recorded once during :func:`record_golden`; register
    #: def/use pruning derives its access events from it.
    pc_trace: tuple[int, ...]
    #: Checkpoint-digest ladder for the convergence early-exit.  ``None``
    #: when the run was recorded with ``checkpoint_stride=0``; executors
    #: then simply run every post-injection tail to completion.
    checkpoints: CheckpointLadder | None = None

    @property
    def fault_space(self) -> FaultSpace:
        """The Δt × Δm fault space this run spans."""
        return FaultSpace(cycles=self.cycles,
                          ram_bytes=self.program.ram_size)

    def partition(self) -> DefUsePartition:
        """Def/use-prune the fault space (validated before returning)."""
        partition = DefUsePartition.from_trace(self.trace, self.fault_space)
        partition.validate()
        return partition

    def executed_pcs(self) -> list[int]:
        """The executed-pc trace as a fresh list; callers may mutate it
        freely."""
        return list(self.pc_trace)


def record_golden(program: Program, *,
                  cycle_limit: int = DEFAULT_GOLDEN_CYCLE_LIMIT,
                  checkpoint_stride: int | None = None) -> GoldenRun:
    """Run ``program`` fault-free and record its golden run.

    ``checkpoint_stride`` fixes the digest-ladder stride; the default
    auto-tunes it to the (not yet known) runtime Δt by starting dense
    (a rung every cycle) and doubling — decimating the rungs already
    taken — whenever the ladder outgrows :data:`MAX_CHECKPOINTS`.  A
    stride of ``0`` disables the ladder.

    Raises :class:`GoldenRunError` if the fault-free run traps, exceeds
    ``cycle_limit``, or emits ``detect`` events (a hardened benchmark
    whose checker fires without faults is broken).
    """
    if checkpoint_stride is not None and checkpoint_stride < 0:
        raise ValueError(
            f"checkpoint_stride must be >= 0, got {checkpoint_stride}")
    auto_stride = checkpoint_stride is None
    stride = 1 if auto_stride else checkpoint_stride
    digests: list[bytes] = []
    tracer = MemoryTrace()
    machine = Machine(program, tracer=tracer)
    # Step (rather than Machine.run) so the executed-pc trace and the
    # checkpoint ladder are captured in the same pass that records the
    # memory trace; register def/use pruning then needs no second
    # execution.
    pcs: list[int] = []
    # A rung is Machine.state_digest(): RAM, then the register tail.
    # Most cycles store nothing, and a warm sweep that executes nothing
    # still records a golden run per variant, so the RAM's blake2b
    # state is kept and rebuilt only at a rung the trace saw a store
    # before; each rung copies it and feeds it the tail (golden runs
    # hold no stuck-at latch): the same bytes as hashing it all afresh.
    ram, regs, serial = machine.ram, machine.regs, machine.serial
    ram_hash, hashed_writes = None, -1
    try:
        while not machine.halted and machine.cycle < cycle_limit:
            pc = machine.pc
            before = machine.cycle
            machine.step()
            if machine.cycle > before:
                pcs.append(pc)
                if (stride and not machine.halted
                        and machine.cycle % stride == 0):
                    if tracer.writes != hashed_writes:
                        ram_hash = blake2b(ram, digest_size=DIGEST_SIZE)
                        hashed_writes = tracer.writes
                    digests.append(ram_hashed_digest(
                        ram_hash, regs, machine.pc, len(serial)))
                    if auto_stride and len(digests) > MAX_CHECKPOINTS:
                        # Double the stride, keeping every second rung
                        # (those at multiples of the doubled stride).
                        digests = digests[1::2]
                        stride *= 2
    except CPUException as exc:
        raise GoldenRunError(
            f"golden run of {program.name!r} trapped: {exc}") from exc
    if not machine.halted:
        raise GoldenRunError(
            f"golden run of {program.name!r} exceeded {cycle_limit} cycles")
    if machine.detections:
        raise GoldenRunError(
            f"golden run of {program.name!r} reported fault detections "
            f"{machine.detections[:3]}... without any injected fault")
    if machine.cycle == 0:
        raise GoldenRunError(
            f"golden run of {program.name!r} executed no instructions")
    tracer.finish(machine.cycle)
    ladder = (CheckpointLadder(stride=stride, digests=tuple(digests))
              if stride else None)
    return GoldenRun(program=program, output=bytes(machine.serial),
                     cycles=machine.cycle, trace=tracer,
                     pc_trace=tuple(pcs), checkpoints=ladder)
