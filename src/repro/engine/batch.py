"""Tier-2 execution engine: lockstep vectorized replay of fault batches.

A full def/use-pruned scan runs thousands of experiments that differ in
exactly one bit of initial state: same program, same injection slot,
same pre-injection prefix — only the flipped cell varies.  Until the
corrupted values reach control flow, those runs execute the *same
instruction at the same pc on every cycle*.  This module exploits that:

* N faulty runs become **lanes** of a :class:`LockstepLanes` batch —
  RAM as an ``(N, ram_size)`` uint8 array, registers as ``(N, 16)``
  uint32 — sharing a single pc and cycle counter.
* Each cycle dispatches the one instruction at the shared pc as numpy
  array operations across all live lanes, so the per-cycle interpreter
  overhead is paid once per *batch*, not once per lane.
* Lanes stop being "live" by halting, trapping, diverging from the
  output oracle, or **evicting**: on a branch whose lanes disagree, the
  minority side (ties favour the taken side; ``jalr`` keeps the most
  common target, smallest target on ties) is handed back as a full
  :class:`~repro.isa.cpu.MachineState` for a Tier-1 scalar machine to
  finish.  Eviction is deterministic, so batch campaigns remain exactly
  reproducible.

Per-lane trap semantics mirror :class:`~repro.isa.cpu.Machine` bit for
bit: a trapping lane exits with the interpreter's trap name at the
un-incremented cycle, while the surviving lanes complete the same
instruction; serial bytes and detections are recorded at the same
cycle numbers; :func:`~repro.isa.cpu.state_digest` of a lane equals the
digest of the equivalent scalar machine, which is what lets the
campaign layer run its convergence checkpoint probes on live lanes.

The campaign-facing executor built on top of this —
``BatchExperimentExecutor`` — lives in :mod:`repro.campaign.experiment`;
this module knows nothing about fault coordinates or outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..isa.assembler import Program
from ..isa.cpu import MachineState, state_digest
from ..isa.isa import NUM_REGS, Op, WORD_MASK
from .fused import FusedProgram, pad_rows

_M = WORD_MASK

#: Lane-exit kinds, mirroring how a scalar run can end.
HALT = "halt"
TRAP = "trap"
DIVERGE = "diverge"
EVICT = "evict"

#: Access widths for the memory opcodes (local copy: hot loop).
_WIDTH = {Op.LW: 4, Op.SW: 4, Op.LH: 2, Op.LHU: 2, Op.SH: 2,
          Op.LB: 1, Op.LBU: 1, Op.SB: 1}

_BRANCHES = (Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU)


@dataclass(frozen=True)
class LaneExit:
    """One lane leaving the batch, with everything needed to finish it.

    For ``halt``/``trap``/``diverge`` the run is over and the carried
    fields are the final observables a scalar machine would hold.  For
    ``evict`` the run is *not* over: ``state`` is the lane's complete
    machine state for a scalar engine to resume from.
    """

    lane: int
    kind: str
    cycle: int
    trap: str = ""
    serial: bytes = b""
    detections: tuple = ()
    state: MachineState | None = field(default=None, compare=False)

    @property
    def restorable(self) -> bool:
        """True when this exit carries a resumable machine state."""
        return self.state is not None

    def restore_into(self, machine) -> None:
        """Resume a scalar machine from this exit's carried state.

        The scalar continuation may later re-enter a pack through
        :meth:`LockstepLanes.admit` once it reaches the pack's shared
        pc at the same cycle — this is the re-admission handle.
        """
        if self.state is None:
            raise ValueError(f"{self.kind} exit is not restorable")
        machine.restore(self.state)


class _LaneView:
    """Injection adapter: one lane presented as a machine-like target.

    Fault domains inject through ``machine.flip_bit`` /
    ``machine.flip_register_bit``; this exposes those two methods (with
    the scalar machine's exact validation) against a single lane's row
    of the batch arrays, so ``FaultDomain.inject`` works unchanged.
    """

    __slots__ = ("_lanes", "_pos")

    def __init__(self, lanes: "LockstepLanes", pos: int):
        self._lanes = lanes
        self._pos = pos

    def flip_bit(self, addr: int, bit: int) -> None:
        lanes = self._lanes
        if not 0 <= addr < lanes.ram_size:
            raise ValueError(f"flip address {addr:#x} outside RAM")
        if not 0 <= bit < 8:
            raise ValueError(f"bit index {bit} out of range")
        lanes.ram[self._pos, addr] ^= np.uint8(1 << bit)

    def flip_register_bit(self, reg: int, bit: int) -> None:
        lanes = self._lanes
        if not 1 <= reg < NUM_REGS:
            raise ValueError(f"register r{reg} cannot hold a fault")
        if not 0 <= bit < 32:
            raise ValueError(f"bit index {bit} out of range")
        lanes.regs[self._pos, reg] ^= np.uint32(1 << bit)

    def stuck_at(self, addr: int, bit: int, value: int) -> None:
        lanes = self._lanes
        if not 0 <= addr < lanes.ram_size:
            raise ValueError(f"stuck-at address {addr:#x} outside RAM")
        if not 0 <= bit < 8:
            raise ValueError(f"bit index {bit} out of range")
        if value not in (0, 1):
            raise ValueError(f"stuck-at value must be 0 or 1, got {value}")
        if lanes.stuck[self._pos] is not None:
            raise ValueError("a stuck-at fault is already armed")
        lanes.stuck[self._pos] = (addr, bit, value)
        lanes._stuck_live += 1
        if value:
            lanes.ram[self._pos, addr] |= np.uint8(1 << bit)
        else:
            lanes.ram[self._pos, addr] &= np.uint8(~(1 << bit) & 0xFF)


class LockstepLanes:
    """N same-program runs in lockstep over numpy state arrays.

    All lanes share one pc and one cycle counter; they are created from
    a single pre-injection snapshot and stay in the batch exactly as
    long as their control flow agrees.  ``lane`` indices in
    :class:`LaneExit` refer to the *original* construction order and
    stay valid across compressions.
    """

    def __init__(self, program: Program, state: MachineState, n: int, *,
                 oracle: bytes | None = None,
                 fused: FusedProgram | None = None):
        if state.halted:
            raise ValueError("cannot build lanes from a halted state")
        self.program = program
        self.rom = program.rom
        self.ram_size = program.ram_size
        self.oracle = oracle
        self._olen = len(oracle) if oracle is not None else 0
        # Lane RAM rows are padded to a word multiple so the fused
        # kernels can gather/scatter aligned words and halfwords
        # through uint32/uint16 views of the flat backing array.
        self._pad = pad_rows(self.ram_size)
        row = np.frombuffer(state.ram, dtype=np.uint8)
        self._store = np.zeros((n, self._pad), dtype=np.uint8)
        self._store[:, :self.ram_size] = row
        self.ram = self._store[:, :self.ram_size]
        regs = np.array(state.regs, dtype=np.uint32)
        self.regs = np.repeat(regs[np.newaxis, :], n, axis=0)
        self.pc = state.pc
        self.cycle = state.cycle
        self.ids = list(range(n))
        self.serial = [bytearray(state.serial) for _ in range(n)]
        self.detections = [list(state.detections) for _ in range(n)]
        #: Per-lane armed stuck-at latch ``(addr, bit, value)`` or None.
        self.stuck: list[tuple | None] = [state.stuck for _ in range(n)]
        self.exits: list[LaneExit] = []
        self._stuck_live = n if state.stuck is not None else 0
        self._next_id = n
        self._fused = fused
        self._scratch_n = -1
        self._scratch_cap = 0
        self._pools: dict | None = None
        self._rebuild_flat()

    def _rebuild_flat(self) -> None:
        """Refresh the flat views after any change to the lane count."""
        flat = self._store.reshape(-1)
        self._flat = flat
        if self._pad:
            self._flat32 = flat.view(np.uint32)
            self._flat16 = flat.view(np.uint16)
            self._flat16i = flat.view(np.int16)
            self._flat8i = flat.view(np.int8)
        self._offsets = np.arange(len(self._store),
                                  dtype=np.int64) * self._pad

    def _fused_scratch(self, n: int) -> dict:
        """Preallocated per-lane scratch for the fused kernels.

        Returns a name → array dict of length-``n`` slices; rebuilt
        (and, when lanes were admitted past capacity, reallocated) only
        when ``n`` changes, so kernels pay a single cached dict per
        call instead of per-op temporaries.
        """
        if n == self._scratch_n:
            return self._scratch
        if self._pools is None or n > self._scratch_cap:
            cap = max(n, self._scratch_cap * 2)
            stores = self._fused.max_stores if self._fused else 0
            pools = {
                "a": np.empty(cap, dtype=np.int64),
                "q": np.empty(cap, dtype=np.int64),
                "t": np.empty(cap, dtype=np.uint32),
                "bt": np.empty(cap, dtype=bool),
                "g16": np.empty(cap, dtype=np.int16),
                "h16": np.empty(cap, dtype=np.uint16),
                "g8": np.empty(cap, dtype=np.int8),
                "h8": np.empty(cap, dtype=np.uint8),
                "saved": np.empty((cap, NUM_REGS), dtype=np.uint32),
                "o8": np.arange(cap, dtype=np.int64) * self._pad,
                "o16": np.arange(cap, dtype=np.int64) * (self._pad // 2),
                "o32": np.arange(cap, dtype=np.int64) * (self._pad // 4),
            }
            for k in range(stores):
                pools[f"si{k}"] = np.empty(cap, dtype=np.int64)
                pools[f"sv{k}"] = np.empty(cap, dtype=np.uint32)
            self._pools = pools
            self._scratch_cap = cap
        sc = {name: pool[:n] for name, pool in self._pools.items()}
        sc["au"] = sc["a"].view(np.uint64)
        sc["ti"] = sc["t"].view(np.int32)
        self._scratch = sc
        self._scratch_n = n
        return sc

    # -- introspection -------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of live lanes."""
        return len(self.ids)

    def lane_view(self, pos: int) -> _LaneView:
        """Machine-like injection target for live lane at index ``pos``."""
        return _LaneView(self, pos)

    def digest(self, pos: int) -> bytes:
        """``state_digest`` of live lane ``pos`` — equals the digest the
        equivalent scalar machine would report at this cycle."""
        return state_digest(self.ram[pos].tobytes(), self.regs[pos].tolist(),
                            self.pc, len(self.serial[pos]),
                            self.stuck[pos])

    def lane_state(self, pos: int, pc: int, cycle: int) -> MachineState:
        """Full scalar machine state of live lane ``pos``."""
        return MachineState(
            ram=self.ram[pos].tobytes(),
            regs=tuple(int(v) for v in self.regs[pos]),
            pc=pc,
            cycle=cycle,
            halted=False,
            serial=bytes(self.serial[pos]),
            detections=tuple(self.detections[pos]),
            stuck=self.stuck[pos],
        )

    def pop_exits(self) -> list[LaneExit]:
        """Drain and return the exits accumulated so far."""
        exits, self.exits = self.exits, []
        return exits

    # -- lane retirement -----------------------------------------------------

    def _exit(self, pos: int, kind: str, cycle: int, *, trap: str = "",
              state: MachineState | None = None) -> LaneExit:
        return LaneExit(lane=self.ids[pos], kind=kind, cycle=cycle,
                        trap=trap, serial=bytes(self.serial[pos]),
                        detections=tuple(self.detections[pos]), state=state)

    def _exit_all(self, kind: str, cycle: int, trap: str = "") -> None:
        for pos in range(self.n):
            self.exits.append(self._exit(pos, kind, cycle, trap=trap))
        self._compress(np.zeros(self.n, dtype=bool))

    def remove(self, positions) -> None:
        """Retire lanes (already classified by the caller) by position."""
        keep = np.ones(self.n, dtype=bool)
        keep[list(positions)] = False
        self._compress(keep)

    def _compress(self, keep: np.ndarray) -> None:
        if keep.all():
            return
        self._store = self._store[keep]
        self.ram = self._store[:, :self.ram_size]
        self.regs = self.regs[keep]
        kept = np.nonzero(keep)[0]
        self.ids = [self.ids[i] for i in kept]
        self.serial = [self.serial[i] for i in kept]
        self.detections = [self.detections[i] for i in kept]
        self.stuck = [self.stuck[i] for i in kept]
        if self._stuck_live:
            self._stuck_live = sum(
                1 for latch in self.stuck if latch is not None)
        self._rebuild_flat()

    # -- lane admission ------------------------------------------------------

    def admit(self, state: MachineState) -> int:
        """Append a lane resuming from ``state``; returns its lane id.

        The state must sit exactly on the pack's shared trajectory
        point — same pc *and* same cycle — because all lanes advance
        under one clock.  Used for cross-slot pack extension (a fresh
        injection whose slot the pack just reached) and for
        re-admission of an evicted lane whose scalar continuation
        rejoined the pack's pc in phase.
        """
        if state.halted:
            raise ValueError("cannot admit a halted state")
        if state.pc != self.pc or state.cycle != self.cycle:
            raise ValueError(
                f"admitted state at pc={state.pc} cycle={state.cycle} "
                f"does not match the pack at pc={self.pc} "
                f"cycle={self.cycle}")
        row = np.zeros((1, self._pad), dtype=np.uint8)
        row[0, :self.ram_size] = np.frombuffer(state.ram, dtype=np.uint8)
        self._store = np.concatenate((self._store, row), axis=0)
        self.ram = self._store[:, :self.ram_size]
        self.regs = np.concatenate(
            (self.regs,
             np.array(state.regs, dtype=np.uint32)[np.newaxis, :]), axis=0)
        self.serial.append(bytearray(state.serial))
        self.detections.append(list(state.detections))
        self.stuck.append(state.stuck)
        if state.stuck is not None:
            self._stuck_live += 1
        lane = self._next_id
        self._next_id += 1
        self.ids.append(lane)
        self._rebuild_flat()
        self._scratch_n = -1
        return lane

    # -- execution -----------------------------------------------------------

    def run_to(self, target: int) -> None:
        """Run all live lanes in lockstep until ``cycle >= target``.

        Lanes that halt, trap, diverge or evict along the way are
        appended to :attr:`exits`; the call returns when the target is
        reached or no lanes remain.

        When a :class:`~repro.engine.fused.FusedProgram` was supplied
        at construction, whole basic blocks whose body fits the budget
        dispatch through one fused kernel each; the kernel aborts (and
        this loop falls back to :meth:`_step`) whenever any lane would
        trap, so per-lane exit semantics are bit-identical either way.
        """
        rom, rom_len = self.rom, len(self.rom)
        fused = self._fused
        blocks_get = fused.blocks.get if fused is not None else None
        ids = self.ids
        while ids and self.cycle < target:
            pc = self.pc
            if not 0 <= pc < rom_len:
                if pc == rom_len:
                    # Implicit exit stub: clean halt, no cycle consumed.
                    self._exit_all(HALT, self.cycle)
                else:
                    self._exit_all(TRAP, self.cycle, trap="illegal-pc")
                return
            if blocks_get is not None:
                blk = blocks_get(pc)
                if (blk is not None
                        and self.cycle + blk.body_len <= target
                        and not (blk.has_store and self._stuck_live)
                        and blk.fn(self, len(ids), target)):
                    continue
            self._step(rom[pc])
            ids = self.ids

    def _step(self, ins) -> None:
        op = ins.op
        c0 = self.cycle
        pc1 = self.pc + 1
        regs = self.regs
        if op in _WIDTH:
            if not self._memory(ins, c0):
                return  # every lane trapped on this access
        elif op in _BRANCHES:
            self._branch(ins, c0)
            return
        elif op is Op.JAL:
            if ins.rd:
                regs[:, ins.rd] = np.uint32(pc1)
            self.pc = ins.imm
            self.cycle = c0 + 1
            return
        elif op is Op.JALR:
            self._jalr(ins, c0)
            return
        elif op is Op.OUT:
            if not self._out(ins, c0):
                return  # every lane diverged
        elif op is Op.DETECT:
            for det in self.detections:
                det.append((c0 + 1, ins.imm))
        elif op is Op.HALT:
            self.pc = pc1
            self.cycle = c0 + 1
            self._exit_all(HALT, c0 + 1)
            return
        elif op is Op.NOP:
            pass
        else:
            if not self._alu(ins, c0):
                return  # every lane trapped (division by zero)
        self.pc = pc1
        self.cycle = c0 + 1

    # Each helper returns False when *all* lanes exited, so ``_step``
    # skips the shared pc/cycle advance (there is nobody left to
    # advance; ``run_to`` terminates on ``self.ids`` being empty).

    def _alu(self, ins, c0: int) -> bool:
        regs = self.regs
        op, rd = ins.op, ins.rd
        a = regs[:, ins.rs1]
        b = regs[:, ins.rs2]
        imm = ins.imm
        iu = np.uint32(imm & _M)
        if op is Op.ADD:
            v = a + b
        elif op is Op.SUB:
            v = a - b
        elif op is Op.AND:
            v = a & b
        elif op is Op.OR:
            v = a | b
        elif op is Op.XOR:
            v = a ^ b
        elif op is Op.SLL:
            v = a << (b & np.uint32(31))
        elif op is Op.SRL:
            v = a >> (b & np.uint32(31))
        elif op is Op.SRA:
            v = (a.astype(np.int32)
                 >> (b & np.uint32(31)).astype(np.int32)).astype(np.uint32)
        elif op is Op.SLT:
            v = (a.astype(np.int32) < b.astype(np.int32)).astype(np.uint32)
        elif op is Op.SLTU:
            v = (a < b).astype(np.uint32)
        elif op is Op.MUL:
            v = a * b
        elif op in (Op.DIVU, Op.REMU):
            zero = b == np.uint32(0)
            if zero.any():
                for pos in np.nonzero(zero)[0]:
                    self.exits.append(self._exit(int(pos), TRAP, c0,
                                                 trap="arithmetic-trap"))
                self._compress(~zero)
                if not self.ids:
                    return False
                regs = self.regs
                a = regs[:, ins.rs1]
                b = regs[:, ins.rs2]
            v = a % b if op is Op.REMU else a // b
        elif op is Op.ADDI:
            v = a + iu
        elif op is Op.ANDI:
            v = a & iu
        elif op is Op.ORI:
            v = a | iu
        elif op is Op.XORI:
            v = a ^ iu
        elif op is Op.SLLI:
            v = a << np.uint32(imm)
        elif op is Op.SRLI:
            v = a >> np.uint32(imm)
        elif op is Op.SRAI:
            v = (a.astype(np.int32) >> np.int32(imm)).astype(np.uint32)
        elif op is Op.SLTI:
            v = (a.astype(np.int32) < np.int32(imm)).astype(np.uint32)
        elif op is Op.SLTIU:
            v = (a < iu).astype(np.uint32)
        elif op is Op.LUI:
            v = np.uint32((imm << 16) & _M)
        else:  # pragma: no cover - exhaustive over the ISA
            raise AssertionError(f"unhandled op {op!r}")
        if rd:
            regs[:, rd] = v
        return True

    def _memory(self, ins, c0: int) -> bool:
        op = ins.op
        width = _WIDTH[op]
        addr = self.regs[:, ins.rs1].astype(np.int64) + ins.imm
        load = op not in (Op.SW, Op.SH, Op.SB)
        kind = "load" if load else "store"
        bad = (addr < 0) | (addr > self.ram_size - width)
        if width > 1:
            bad |= (addr % width) != 0
        if bad.any():
            for pos in np.nonzero(bad)[0]:
                a = int(addr[pos])
                name = "alignment-fault" if a % width else "memory-fault"
                self.exits.append(self._exit(int(pos), TRAP, c0, trap=name))
            keep = ~bad
            self._compress(keep)
            if not self.ids:
                return False
            addr = addr[keep]
        if not load and any(s is not None for s in self.stuck):
            # A store covering a lane's armed stuck-at latch must go
            # through the scalar release hook ("write wins") — evict
            # such lanes *before* the store so the Tier-1 machine
            # re-executes this instruction with exact semantics.
            hit = [pos for pos, s in enumerate(self.stuck)
                   if s is not None
                   and addr[pos] <= s[0] < int(addr[pos]) + width]
            if hit:
                for pos in hit:
                    self.exits.append(self._exit(
                        pos, EVICT, c0,
                        state=self.lane_state(pos, self.pc, c0)))
                keep = np.ones(self.n, dtype=bool)
                keep[hit] = False
                self._compress(keep)
                if not self.ids:
                    return False
                addr = addr[keep]
        flat = self._flat
        base = self._offsets + addr
        if load:
            if width == 4:
                v = (flat[base].astype(np.uint32)
                     | (flat[base + 1].astype(np.uint32) << np.uint32(8))
                     | (flat[base + 2].astype(np.uint32) << np.uint32(16))
                     | (flat[base + 3].astype(np.uint32) << np.uint32(24)))
            elif width == 2:
                v = (flat[base].astype(np.uint32)
                     | (flat[base + 1].astype(np.uint32) << np.uint32(8)))
                if op is Op.LH:
                    v = np.where(v & np.uint32(0x8000),
                                 v | np.uint32(0xFFFF0000), v)
            else:
                v = flat[base].astype(np.uint32)
                if op is Op.LB:
                    v = np.where(v & np.uint32(0x80),
                                 v | np.uint32(0xFFFFFF00), v)
            if ins.rd:
                self.regs[:, ins.rd] = v
        else:
            v = self.regs[:, ins.rs2]
            flat[base] = (v & np.uint32(0xFF)).astype(np.uint8)
            if width >= 2:
                flat[base + 1] = ((v >> np.uint32(8))
                                  & np.uint32(0xFF)).astype(np.uint8)
            if width == 4:
                flat[base + 2] = ((v >> np.uint32(16))
                                  & np.uint32(0xFF)).astype(np.uint8)
                flat[base + 3] = (v >> np.uint32(24)).astype(np.uint8)
        return True

    def _out(self, ins, c0: int) -> bool:
        vals = self.regs[:, ins.rs1] & np.uint32(0xFF)
        oracle, olen = self.oracle, self._olen
        diverged = []
        for pos, byte in enumerate(vals):
            serial = self.serial[pos]
            serial.append(int(byte))
            if oracle is not None:
                n = len(serial)
                if n > olen or oracle[n - 1] != byte:
                    diverged.append(pos)
        if diverged:
            for pos in diverged:
                self.exits.append(self._exit(pos, DIVERGE, c0 + 1))
            keep = np.ones(self.n, dtype=bool)
            keep[diverged] = False
            self._compress(keep)
        return bool(self.ids)

    def _branch(self, ins, c0: int) -> None:
        regs = self.regs
        a = regs[:, ins.rs1]
        b = regs[:, ins.rs2]
        op = ins.op
        if op is Op.BEQ:
            taken = a == b
        elif op is Op.BNE:
            taken = a != b
        elif op is Op.BLT:
            taken = a.astype(np.int32) < b.astype(np.int32)
        elif op is Op.BGE:
            taken = a.astype(np.int32) >= b.astype(np.int32)
        elif op is Op.BLTU:
            taken = a < b
        else:  # BGEU
            taken = a >= b
        target, fall = ins.imm, self.pc + 1
        if target == fall:
            self.pc = target
            self.cycle = c0 + 1
            return
        nt = int(np.count_nonzero(taken))
        n = self.n
        if nt == n:
            self.pc = target
        elif nt == 0:
            self.pc = fall
        else:
            # Disagreement: keep the majority side, evict the minority
            # to scalar continuation.  Ties keep the taken side, so
            # eviction is deterministic.
            keep_taken = 2 * nt >= n
            keep = taken if keep_taken else ~taken
            evict_pc = fall if keep_taken else target
            for pos in np.nonzero(~keep)[0]:
                pos = int(pos)
                self.exits.append(self._exit(
                    pos, EVICT, c0 + 1,
                    state=self.lane_state(pos, evict_pc, c0 + 1)))
            self._compress(keep)
            self.pc = target if keep_taken else fall
        self.cycle = c0 + 1

    def _jalr(self, ins, c0: int) -> None:
        regs = self.regs
        targets = regs[:, ins.rs1] + np.uint32(ins.imm & _M)
        if ins.rd:
            regs[:, ins.rd] = np.uint32(self.pc + 1)
        values, counts = np.unique(targets, return_counts=True)
        # ``values`` is sorted and argmax returns the first maximum, so
        # the smallest most-common target wins — deterministic.
        major = values[np.argmax(counts)]
        if len(values) > 1:
            keep = targets == major
            for pos in np.nonzero(~keep)[0]:
                pos = int(pos)
                self.exits.append(self._exit(
                    pos, EVICT, c0 + 1,
                    state=self.lane_state(pos, int(targets[pos]), c0 + 1)))
            self._compress(keep)
        self.pc = int(major)
        self.cycle = c0 + 1
