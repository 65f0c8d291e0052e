"""The deterministic machine: CPU interpreter, RAM, and devices.

This implements the paper's machine model (Section II-C):

* a simple in-order RISC CPU, one cycle per instruction;
* no caches — a flat, wait-free RAM is the only fault-susceptible state;
* the program executes from ROM, which is immune to faults;
* runs are fully deterministic, can be paused at any instruction boundary
  (to flip a memory bit) and resumed.

Timing convention used throughout the project: after ``n`` calls to
:meth:`Machine.step`, ``machine.cycle == n``.  *Injection slot* ``t``
(1-based) denotes the instant right before the ``t``-th instruction
executes; injecting at slot ``t`` therefore means running to
``cycle == t - 1``, flipping a bit, and resuming.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b
from struct import Struct

from .assembler import Program
from .errors import (
    AlignmentFault,
    ArithmeticTrap,
    HaltedMachine,
    IllegalPC,
    MemoryFault,
)
from .isa import Instruction, NUM_REGS, Op, WORD_MASK, signed32
from .tracing import MemoryTrace, READ, WRITE

#: Register file + pc + serial length, packed for hashing.
_DIGEST_TAIL = Struct(f"<{NUM_REGS}III")
#: Armed stuck-at latch (addr, bit, value), packed for hashing.
_STUCK_TAIL = Struct("<IBB")
#: Digest width in bytes.  128 bits: collisions are negligible even
#: across the billions of checkpoint comparisons a campaign performs,
#: which matters because a colliding digest would silently misclassify
#: an experiment.
DIGEST_SIZE = 16


def state_digest(ram, regs, pc: int, serial_len: int,
                 stuck: tuple | None = None) -> bytes:
    """Deterministic digest of the machine state that drives execution.

    Covers exactly the mutable state a deterministic continuation
    depends on: RAM, the register file, the program counter and the
    *length* of the serial output.  Serial content is deliberately
    excluded — output never feeds back into execution — and so are the
    cycle counter, the halt flag and past ``detect`` events, which the
    convergence machinery accounts for separately.

    An armed stuck-at latch (``stuck = (addr, bit, value)``) *is*
    mixed in: a machine carrying a latch can behave differently from a
    latch-free machine with identical RAM once the latched byte is
    rewritten, so its digest must never collide with a golden
    checkpoint (golden runs are always latch-free).  The latch-free
    digest is unchanged from the pre-stuck-at format.

    blake2b (not ``hash()``) because the digest must agree across
    processes: the golden ladder is computed in the campaign driver and
    compared against digests computed inside fabric workers, and Python's
    built-in hashing is salted per process.
    """
    h = blake2b(bytes(ram) if not isinstance(ram, (bytes, bytearray))
                else ram, digest_size=DIGEST_SIZE)
    h.update(_DIGEST_TAIL.pack(*regs, pc & WORD_MASK,
                               serial_len & WORD_MASK))
    if stuck is not None:
        h.update(_STUCK_TAIL.pack(*stuck))
    return h.digest()


def ram_hashed_digest(ram_hash, regs, pc: int, serial_len: int) -> bytes:
    """:func:`state_digest` of a latch-free machine whose RAM is already
    hashed: ``ram_hash`` is a ``blake2b(ram, digest_size=DIGEST_SIZE)``
    state, copied here, not consumed.  blake2b is a stream, so the
    copy fed the same tail yields the very bytes :func:`state_digest`
    does — what lets the golden ladder re-hash RAM only after a store.
    """
    h = ram_hash.copy()
    h.update(_DIGEST_TAIL.pack(*regs, pc & WORD_MASK,
                               serial_len & WORD_MASK))
    return h.digest()


@dataclass(frozen=True)
class MachineState:
    """A snapshot of all mutable machine state.

    Snapshots are cheap (one bytearray copy) and power the campaign
    runner's fork-at-injection-slot fast-forward optimization.
    """

    ram: bytes
    regs: tuple
    pc: int
    cycle: int
    halted: bool
    serial: bytes
    detections: tuple
    diverged: bool = False
    #: Armed stuck-at latch ``(addr, bit, value)``, or ``None``.
    stuck: tuple | None = None

    def state_digest(self) -> bytes:
        """Digest of the snapshot's execution-relevant state."""
        return state_digest(self.ram, self.regs, self.pc,
                            len(self.serial), self.stuck)


class Machine:
    """A machine instance executing one :class:`Program`.

    Public attributes (all deterministic functions of the program and the
    faults injected so far):

    ``ram``
        The byte-addressable main memory — the fault space.
    ``regs``
        16 general-purpose registers; ``regs[0]`` reads as zero.
    ``pc`` / ``cycle``
        Current ROM index and number of instructions executed.
    ``serial``
        Bytes written by ``out`` so far — the observable output.
    ``detections``
        ``(cycle, code)`` pairs recorded by ``detect`` — the hook used by
        hardened programs to report corrected errors.
    """

    def __init__(self, program: Program, *,
                 tracer: MemoryTrace | None = None,
                 oracle: bytes | None = None):
        self.program = program
        self.rom: list[Instruction] = program.rom
        self.tracer = tracer
        #: Expected serial output.  When set, the machine halts with
        #: ``diverged = True`` on the first output byte that deviates —
        #: a diverged run can never be benign again, so campaign
        #: executors use this to cut post-injection tails short.
        self.oracle = oracle
        self._dispatch = self._build_dispatch()
        # Pre-bind (handler, instruction) per ROM slot: saves the enum
        # indexing on the hot path (campaigns execute hundreds of
        # millions of instructions).
        self._exec = [(self._dispatch[i.op], i) for i in self.rom]
        self.reset()

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        """Reset to the initial state: RAM holds the data image."""
        program = self.program
        self.ram = bytearray(program.ram_size)
        self.ram[: len(program.data)] = program.data
        self.regs = [0] * NUM_REGS
        self.pc = program.entry
        self.cycle = 0
        self.halted = False
        self.diverged = False
        self.serial = bytearray()
        self.detections: list[tuple[int, int]] = []
        #: Armed stuck-at latch ``(addr, bit, value)``, cleared by the
        #: first store covering ``addr`` (write wins).
        self._stuck: tuple | None = None
        # Bind the memory accessors for this machine's tracing mode once,
        # instead of testing ``self.tracer is not None`` on every load and
        # store of the campaign hot loop (tracing is only ever on during
        # golden recording — one run per campaign).
        if self.tracer is None:
            self._load = self._load_raw
            self._store = self._store_raw
        else:
            self._load = self._load_traced
            self._store = self._store_traced

    def snapshot(self) -> MachineState:
        """Capture all mutable state for later :meth:`restore`."""
        return MachineState(
            ram=bytes(self.ram),
            regs=tuple(self.regs),
            pc=self.pc,
            cycle=self.cycle,
            halted=self.halted,
            serial=bytes(self.serial),
            detections=tuple(self.detections),
            diverged=self.diverged,
            stuck=self._stuck,
        )

    def restore(self, state: MachineState) -> None:
        """Restore a snapshot previously taken from this program.

        In place — campaigns restore once per experiment, and the
        compiled engine holds ``memoryview`` casts of ``ram`` — so a
        snapshot of another RAM size is refused, not adopted.
        """
        ram = self.ram
        if len(state.ram) != len(ram):
            raise ValueError(
                f"snapshot holds {len(state.ram)} bytes of RAM, "
                f"this machine {len(ram)}")
        ram[:] = state.ram
        self.regs[:] = state.regs
        self.pc = state.pc
        self.cycle = state.cycle
        self.halted = state.halted
        self.diverged = state.diverged
        self.serial[:] = state.serial
        self.detections[:] = state.detections
        self._stuck = state.stuck

    def state_digest(self) -> bytes:
        """Digest of the current execution-relevant state.

        Two machines of the same program with equal digests at equal
        cycle counts (and neither halted) execute identical instruction
        suffixes — the foundation of the campaign layer's convergence
        early-exit.  See :func:`state_digest` for what is covered.
        """
        return state_digest(self.ram, self.regs, self.pc,
                            len(self.serial), self._stuck)

    # -- fault injection -----------------------------------------------------

    def flip_bit(self, addr: int, bit: int) -> None:
        """Flip one RAM bit — the transient single-bit fault of the model."""
        if not 0 <= addr < len(self.ram):
            raise ValueError(f"flip address {addr:#x} outside RAM")
        if not 0 <= bit < 8:
            raise ValueError(f"bit index {bit} out of range")
        self.ram[addr] ^= 1 << bit

    def flip_register_bit(self, reg: int, bit: int) -> None:
        """Flip one register-file bit (Section VI-B fault model).

        r0 is hardwired to zero and cannot hold a fault.
        """
        if not 1 <= reg < NUM_REGS:
            raise ValueError(f"register r{reg} cannot hold a fault")
        if not 0 <= bit < 32:
            raise ValueError(f"bit index {bit} out of range")
        self.regs[reg] ^= 1 << bit

    def flip_pc_bit(self, bit: int) -> None:
        """Flip one bit of the program counter (PC fault model)."""
        if not 0 <= bit < 32:
            raise ValueError(f"bit index {bit} out of range")
        self.pc ^= 1 << bit

    def stuck_at(self, addr: int, bit: int, value: int) -> None:
        """Arm a stuck-at-until-write fault and force the bit now.

        From this instant the latch holds RAM bit ``(addr, bit)`` at
        ``value``.  Between stores nothing else can change the bit, so
        forcing it once here and releasing on the next covering store
        (see :meth:`_store_raw`) implements the model exactly.  Only
        one latch can be armed at a time — the paper's single-fault
        assumption.
        """
        if not 0 <= addr < len(self.ram):
            raise ValueError(f"stuck-at address {addr:#x} outside RAM")
        if not 0 <= bit < 8:
            raise ValueError(f"bit index {bit} out of range")
        if value not in (0, 1):
            raise ValueError(f"stuck-at value must be 0 or 1, got {value}")
        if self._stuck is not None:
            raise ValueError("a stuck-at fault is already armed")
        self._stuck = (addr, bit, value)
        if value:
            self.ram[addr] |= 1 << bit
        else:
            self.ram[addr] &= ~(1 << bit) & 0xFF

    # -- execution -----------------------------------------------------------

    def step(self) -> None:
        """Execute one instruction (one cycle).

        Raises a :class:`~repro.isa.errors.CPUException` subclass if the
        instruction traps; the machine is halted in that case.
        """
        if self.halted:
            raise HaltedMachine("machine is halted")
        pc = self.pc
        exec_rom = self._exec
        if not 0 <= pc < len(exec_rom):
            if pc == len(exec_rom):
                # Falling off the end of ROM is a clean halt (an implicit
                # exit stub); it consumes no cycle, so a program without
                # an explicit ``halt`` runs for exactly len(rom)
                # straight-line cycles.
                self.halted = True
                return
            self.halted = True
            raise IllegalPC(f"pc {pc} outside ROM", pc=pc, cycle=self.cycle)
        handler, instr = exec_rom[pc]
        self.pc = pc + 1
        try:
            handler(instr)
        except HaltedMachine:
            raise
        except Exception:
            self.halted = True
            raise
        self.cycle += 1

    def _run_until(self, limit: int, ceiling: int | None = None) -> None:
        """Shared loop of :meth:`run`, :meth:`run_to_cycle` and
        :meth:`run_to_boundary`.

        Runs until ``halt``, a trap, or ``cycle >= limit``.  Semantics
        are identical to calling :meth:`step` in a loop; the dispatch is
        kept deliberately simple — this class is the differential-testing
        *oracle* for the compiled engines in :mod:`repro.engine`, so it
        optimizes for obviousness, not speed.  ``ceiling`` (how far a
        block-granular engine may overshoot ``limit``) is ignored here.
        """
        exec_rom = self._exec
        rom_len = len(exec_rom)
        while not self.halted:
            cycle = self.cycle
            if cycle >= limit:
                break
            pc = self.pc
            if 0 <= pc < rom_len:
                handler, instr = exec_rom[pc]
                self.pc = pc + 1
                try:
                    handler(instr)
                except HaltedMachine:
                    raise
                except Exception:
                    self.halted = True
                    raise
                self.cycle = cycle + 1
            elif pc == rom_len:
                # Implicit exit stub: clean halt, no cycle consumed.
                self.halted = True
            else:
                self.halted = True
                raise IllegalPC(f"pc {pc} outside ROM", pc=pc, cycle=cycle)

    def run(self, max_cycles: int) -> None:
        """Run until ``halt``, a trap, or the cycle budget is exhausted.

        Traps propagate to the caller; reaching ``max_cycles`` without
        halting simply returns (the campaign layer treats it as timeout).
        """
        self._run_until(max_cycles)

    def run_to_cycle(self, target_cycle: int) -> None:
        """Run until exactly ``target_cycle`` instructions have executed.

        Used to position the machine at an injection slot: to inject at
        slot ``t``, run to cycle ``t - 1``.  Raises ``ValueError`` when
        asked to run backwards.
        """
        if target_cycle < self.cycle:
            raise ValueError(
                f"cannot run backwards: at cycle {self.cycle}, "
                f"target {target_cycle}")
        self._run_until(target_cycle)

    def run_to_boundary(self, target_cycle: int, ceiling: int) -> None:
        """Run to the engine's first cheap stop at or after ``target_cycle``.

        For callers that need *an* instruction boundary near a cycle,
        not that one (convergence probes).  The machine ends at a cycle
        ``c`` with ``target_cycle <= c <= ceiling`` — or its run ended
        by then — in the very state ``run_to_cycle(c)`` produces.  The
        interpreter stops at ``target_cycle``; the compiled engine
        finishes the basic block it is in.
        """
        if not self.cycle <= target_cycle <= ceiling:
            raise ValueError(
                f"need cycle {self.cycle} <= target {target_cycle} "
                f"<= ceiling {ceiling}")
        self._run_until(target_cycle, ceiling)

    # -- memory --------------------------------------------------------------

    # ``self._load`` / ``self._store`` are bound per instance in
    # :meth:`reset` to the raw or traced variant, so untraced campaign
    # runs never pay the tracer test.

    def _load_raw(self, addr: int, width: int) -> int:
        if addr % width:
            raise AlignmentFault(
                f"unaligned {width}-byte load at {addr:#x}",
                pc=self.pc - 1, cycle=self.cycle)
        if not 0 <= addr <= len(self.ram) - width:
            raise MemoryFault(
                f"load of {width} bytes at {addr:#x} outside RAM",
                pc=self.pc - 1, cycle=self.cycle)
        return int.from_bytes(self.ram[addr: addr + width], "little")

    def _load_traced(self, addr: int, width: int) -> int:
        value = self._load_raw(addr, width)
        self.tracer.record(self.cycle + 1, addr, width, READ)
        return value

    def _store_raw(self, addr: int, width: int, value: int) -> None:
        if addr % width:
            raise AlignmentFault(
                f"unaligned {width}-byte store at {addr:#x}",
                pc=self.pc - 1, cycle=self.cycle)
        if not 0 <= addr <= len(self.ram) - width:
            raise MemoryFault(
                f"store of {width} bytes at {addr:#x} outside RAM",
                pc=self.pc - 1, cycle=self.cycle)
        self.ram[addr: addr + width] = value.to_bytes(width, "little")
        stuck = self._stuck
        if stuck is not None and addr <= stuck[0] < addr + width:
            # Write wins: the first store covering the latched byte
            # releases the latch; the stored value stands unmodified.
            self._stuck = None

    def _store_traced(self, addr: int, width: int, value: int) -> None:
        self._store_raw(addr, width, value)
        self.tracer.record(self.cycle + 1, addr, width, WRITE)

    # -- instruction semantics ------------------------------------------------

    def _build_dispatch(self):
        table = [None] * len(Op)
        for op in Op:
            table[op] = getattr(self, f"_op_{op.name.lower()}")
        return table

    def _set(self, rd: int, value: int) -> None:
        if rd:
            self.regs[rd] = value & WORD_MASK

    # R-type

    def _op_add(self, i):
        self._set(i.rd, self.regs[i.rs1] + self.regs[i.rs2])

    def _op_sub(self, i):
        self._set(i.rd, self.regs[i.rs1] - self.regs[i.rs2])

    def _op_and(self, i):
        self._set(i.rd, self.regs[i.rs1] & self.regs[i.rs2])

    def _op_or(self, i):
        self._set(i.rd, self.regs[i.rs1] | self.regs[i.rs2])

    def _op_xor(self, i):
        self._set(i.rd, self.regs[i.rs1] ^ self.regs[i.rs2])

    def _op_sll(self, i):
        self._set(i.rd, self.regs[i.rs1] << (self.regs[i.rs2] & 31))

    def _op_srl(self, i):
        self._set(i.rd, self.regs[i.rs1] >> (self.regs[i.rs2] & 31))

    def _op_sra(self, i):
        self._set(i.rd, signed32(self.regs[i.rs1]) >> (self.regs[i.rs2] & 31))

    def _op_slt(self, i):
        self._set(i.rd,
                  int(signed32(self.regs[i.rs1]) < signed32(self.regs[i.rs2])))

    def _op_sltu(self, i):
        self._set(i.rd, int(self.regs[i.rs1] < self.regs[i.rs2]))

    def _op_mul(self, i):
        self._set(i.rd, self.regs[i.rs1] * self.regs[i.rs2])

    def _op_divu(self, i):
        divisor = self.regs[i.rs2]
        if divisor == 0:
            raise ArithmeticTrap("division by zero", pc=self.pc - 1,
                                 cycle=self.cycle)
        self._set(i.rd, self.regs[i.rs1] // divisor)

    def _op_remu(self, i):
        divisor = self.regs[i.rs2]
        if divisor == 0:
            raise ArithmeticTrap("remainder by zero", pc=self.pc - 1,
                                 cycle=self.cycle)
        self._set(i.rd, self.regs[i.rs1] % divisor)

    # I-type

    def _op_addi(self, i):
        self._set(i.rd, self.regs[i.rs1] + i.imm)

    def _op_andi(self, i):
        self._set(i.rd, self.regs[i.rs1] & (i.imm & WORD_MASK))

    def _op_ori(self, i):
        self._set(i.rd, self.regs[i.rs1] | (i.imm & WORD_MASK))

    def _op_xori(self, i):
        self._set(i.rd, self.regs[i.rs1] ^ (i.imm & WORD_MASK))

    def _op_slli(self, i):
        self._set(i.rd, self.regs[i.rs1] << i.imm)

    def _op_srli(self, i):
        self._set(i.rd, self.regs[i.rs1] >> i.imm)

    def _op_srai(self, i):
        self._set(i.rd, signed32(self.regs[i.rs1]) >> i.imm)

    def _op_slti(self, i):
        self._set(i.rd, int(signed32(self.regs[i.rs1]) < i.imm))

    def _op_sltiu(self, i):
        self._set(i.rd, int(self.regs[i.rs1] < (i.imm & WORD_MASK)))

    def _op_lui(self, i):
        self._set(i.rd, i.imm << 16)

    # Loads/stores

    def _op_lw(self, i):
        self._set(i.rd, self._load(self.regs[i.rs1] + i.imm, 4))

    def _op_lh(self, i):
        value = self._load(self.regs[i.rs1] + i.imm, 2)
        if value & 0x8000:
            value -= 1 << 16
        self._set(i.rd, value)

    def _op_lhu(self, i):
        self._set(i.rd, self._load(self.regs[i.rs1] + i.imm, 2))

    def _op_lb(self, i):
        value = self._load(self.regs[i.rs1] + i.imm, 1)
        if value & 0x80:
            value -= 1 << 8
        self._set(i.rd, value)

    def _op_lbu(self, i):
        self._set(i.rd, self._load(self.regs[i.rs1] + i.imm, 1))

    def _op_sw(self, i):
        self._store(self.regs[i.rs1] + i.imm, 4, self.regs[i.rs2])

    def _op_sh(self, i):
        self._store(self.regs[i.rs1] + i.imm, 2, self.regs[i.rs2] & 0xFFFF)

    def _op_sb(self, i):
        self._store(self.regs[i.rs1] + i.imm, 1, self.regs[i.rs2] & 0xFF)

    # Control

    def _op_beq(self, i):
        if self.regs[i.rs1] == self.regs[i.rs2]:
            self.pc = i.imm

    def _op_bne(self, i):
        if self.regs[i.rs1] != self.regs[i.rs2]:
            self.pc = i.imm

    def _op_blt(self, i):
        if signed32(self.regs[i.rs1]) < signed32(self.regs[i.rs2]):
            self.pc = i.imm

    def _op_bge(self, i):
        if signed32(self.regs[i.rs1]) >= signed32(self.regs[i.rs2]):
            self.pc = i.imm

    def _op_bltu(self, i):
        if self.regs[i.rs1] < self.regs[i.rs2]:
            self.pc = i.imm

    def _op_bgeu(self, i):
        if self.regs[i.rs1] >= self.regs[i.rs2]:
            self.pc = i.imm

    def _op_jal(self, i):
        self._set(i.rd, self.pc)  # pc already advanced to return index
        self.pc = i.imm

    def _op_jalr(self, i):
        target = (self.regs[i.rs1] + i.imm) & WORD_MASK
        self._set(i.rd, self.pc)
        self.pc = target

    # System

    def _op_out(self, i):
        byte = self.regs[i.rs1] & 0xFF
        self.serial.append(byte)
        oracle = self.oracle
        if oracle is not None:
            n = len(self.serial)
            if n > len(oracle) or oracle[n - 1] != byte:
                self.diverged = True
                self.halted = True

    def _op_detect(self, i):
        self.detections.append((self.cycle + 1, i.imm))

    def _op_halt(self, i):
        self.halted = True

    def _op_nop(self, i):
        pass
