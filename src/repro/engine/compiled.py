"""Compiled execution engine: a template JIT emitting Python superblocks.

The interpreter in :mod:`repro.isa.cpu` pays, per executed instruction,
one bound-method call, one tuple unpack, several attribute loads and a
``_set`` call.  At ~0.5 µs/instruction that is the binding constraint on
every campaign.  This module removes that per-instruction toll by
*generating Python source* for the whole program at machine-build time:

* The ROM is decomposed into **basic blocks** (leaders are the entry
  point, branch/jump targets, and successors of control transfers).
* Each block becomes straight-line source with every operand
  **constant-folded** into the text: register fields select local
  variable names (``r3``), immediates become literals, ``r0`` reads
  fold to ``0`` and ``r0`` writes vanish.  Registers live in Python
  locals for the duration of a call; RAM words and halfwords are read
  and written through cached ``memoryview(...).cast("I"/"H")`` views.
* Blocks whose terminal branch targets their own start (the innermost
  loops of real programs) are specialized into a native ``while`` loop,
  amortizing dispatch to nearly zero.
* All blocks are stitched into **one** generated function behind a
  binary dispatch tree on ``pc``; the driver calls it once per entry,
  not once per instruction.
* That function's code object is **cached beside the bytecode**, in
  the ``__pycache__`` directory of this module, one file per program
  name keyed by a hash of the generated source: a process whose
  program's source is already on file loads it with ``marshal``
  instead of compiling it (:func:`compile_program`).
* A machine that lands *inside* a block (every experiment's snapshot
  restore, a ``jalr`` into a block body) runs the rest of it in the
  block's **entrant twin**: the same emitted body, each instruction
  behind an ``if k_ <= j:`` guard on the entry offset (one int compare
  per skipped instruction), one small function per block, compiled on
  the first entry into that block — one whole-program twin costs
  8 % of a campaign's peak RSS — and found through the per-pc table
  :attr:`CompiledCode.enter`.

Exactness is the design constraint, not an afterthought — campaign
results must be bit-for-bit those of the interpreter:

* Cycle accounting is block-granular (``cycle += LEN``) but only commits
  blocks whose end fits the remaining budget (a twin counts from the
  *virtual* block-entry cycle, so every number it reports is the
  interpreter's); budget tails and an armed stuck-at latch fall back
  to the interpreter's own pre-bound handlers one instruction at a time.
  :meth:`~repro.isa.cpu.Machine.run_to_boundary` (convergence probes)
  skips that tail: the last block may overshoot, up to a hard ceiling.
* Traps raise the exact :class:`~repro.isa.errors.CPUException`
  subclasses with the interpreter's messages, ``pc``/``cycle``
  attributes, and its halted/pc/cycle post-state.
* ``out``/``detect``/oracle-divergence side effects appear at the same
  cycle numbers, so golden output, detections and the convergence
  ladder's :func:`~repro.isa.cpu.state_digest` match the interpreter at
  every instruction boundary the campaign layer can observe.
* Golden recording (``tracer``) uses the interpreter path outright —
  tracing is one run per campaign and wants per-access hooks.

``CompiledMachine`` is a drop-in :class:`~repro.isa.cpu.Machine`;
``tests/engine`` and the Hypothesis differential fuzzer hold the two
implementations equal instruction-for-instruction.
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal
import os
import sys
from dataclasses import dataclass
from functools import partial
from types import CodeType

from ..isa.assembler import Program
from ..isa.blocks import BRANCH_OPS as _BRANCHES, CONTROL_OPS as _CONTROL
from ..isa.blocks import block_leaders, program_blocks
from ..isa.cpu import Machine
from ..isa.errors import (
    AlignmentFault,
    ArithmeticTrap,
    CPUException,
    HaltedMachine,
    IllegalPC,
    MemoryFault,
)
from ..isa.isa import Op, WORD_MASK

_M = WORD_MASK
_SIGN = 0x80000000


def _mem_trap(addr, width, pc, cycle, kind):
    """Raise the interpreter's exact alignment/bounds trap."""
    if addr % width:
        raise AlignmentFault(
            f"unaligned {width}-byte {kind} at {addr:#x}",
            pc=pc, cycle=cycle)
    raise MemoryFault(
        f"{kind} of {width} bytes at {addr:#x} outside RAM",
        pc=pc, cycle=cycle)


def _div_trap(pc, cycle, rem):
    """Raise the interpreter's exact division/remainder trap."""
    raise ArithmeticTrap("remainder by zero" if rem else "division by zero",
                         pc=pc, cycle=cycle)


@dataclass(frozen=True)
class CompiledCode:
    """The JIT artifact for one program."""

    #: ``fn(machine, limit, ceiling)`` — run whole blocks until the
    #: budget, a halt, a trap, or a pc outside every block leader.  With
    #: ``ceiling > limit`` the last block may overshoot ``limit``.
    run_fn: object
    #: Per-pc entry table, ``enter[pc](machine, limit, ceiling)``:
    #: ``run_fn`` at block leaders; inside a block its entrant twin,
    #: compiled on the first entry (until then a stand-in that does so).
    enter: list
    #: Block-leader pcs the generated dispatch tree accepts.
    leaders: frozenset
    #: Generated source, kept for debugging and tests.
    source: str


class _Block:
    """One basic block: ``instrs`` are ``(pc, Instruction)`` pairs."""

    __slots__ = ("start", "instrs", "self_loop")

    def __init__(self, start, instrs, self_loop):
        self.start = start
        self.instrs = instrs
        self.self_loop = self_loop


def _find_blocks(rom, entry, leaders=None):
    """The basic blocks of ``rom``; ``leaders`` (ascending) are
    :func:`~repro.isa.blocks.block_leaders` when not given."""
    starts = block_leaders(rom, entry) if leaders is None else leaders
    blocks = []
    # Blocks tile the ROM: a control transfer is always followed by a
    # leader, so it can only be the last instruction of its block.
    for start, end in zip(starts, starts[1:] + (len(rom),)):
        instrs = [(pc, rom[pc]) for pc in range(start, end)]
        last = instrs[-1][1]
        # A block ending in a branch back to its own start becomes a
        # native while loop — unless it contains ``out``, whose oracle
        # early-exit needs the outer dispatch loop's ``break``.
        self_loop = (last.op in _BRANCHES and last.imm == start
                     and not any(i.op is Op.OUT for _, i in instrs))
        blocks.append(_Block(start, instrs, self_loop))
    return blocks


class _Codegen:
    """Emits the superblock function for one program."""

    def __init__(self, program: Program):
        self.program = program
        self.ram_size = program.ram_size
        self.lines: list[str] = []
        self.used_regs: set[int] = set()
        self.uses: set[str] = set()

    # -- small expression helpers -------------------------------------------

    def _reg(self, r: int) -> str:
        if r == 0:
            return "0"
        self.used_regs.add(r)
        return f"r{r}"

    def _wreg(self, r: int) -> str:
        self.used_regs.add(r)
        return f"r{r}"

    def _set(self, rd: int, expr: str, mask: bool) -> list[str]:
        if rd == 0:
            return []
        if mask:
            expr = f"({expr}) & {_M}"
        return [f"{self._wreg(rd)} = {expr}"]

    @staticmethod
    def _signed(expr: str) -> str:
        if expr == "0":
            return "0"
        return f"(({expr} ^ {_SIGN}) - {_SIGN})"

    # -- per-instruction emission -------------------------------------------

    def _alu(self, ins, pc: int, k: int) -> list[str]:
        op, rd = ins.op, ins.rd
        a, b = self._reg(ins.rs1), self._reg(ins.rs2)
        imm = ins.imm
        iu = imm & _M
        S = self._set
        if op is Op.ADD:
            if a == "0":
                return S(rd, b, False)
            if b == "0":
                return S(rd, a, False)
            return S(rd, f"{a} + {b}", True)
        if op is Op.SUB:
            if b == "0":
                return S(rd, a, False)
            return S(rd, f"{a} - {b}", True)
        if op is Op.AND:
            if a == "0" or b == "0":
                return S(rd, "0", False)
            return S(rd, f"{a} & {b}", False)
        if op is Op.OR:
            if a == "0":
                return S(rd, b, False)
            if b == "0":
                return S(rd, a, False)
            return S(rd, f"{a} | {b}", False)
        if op is Op.XOR:
            if a == "0":
                return S(rd, b, False)
            if b == "0":
                return S(rd, a, False)
            return S(rd, f"{a} ^ {b}", False)
        if op is Op.SLL:
            if a == "0":
                return S(rd, "0", False)
            if b == "0":
                return S(rd, a, False)
            return S(rd, f"{a} << ({b} & 31)", True)
        if op is Op.SRL:
            if a == "0":
                return S(rd, "0", False)
            if b == "0":
                return S(rd, a, False)
            return S(rd, f"{a} >> ({b} & 31)", False)
        if op is Op.SRA:
            if a == "0":
                return S(rd, "0", False)
            if b == "0":
                return S(rd, a, False)
            return S(rd, f"{self._signed(a)} >> ({b} & 31)", True)
        if op is Op.SLT:
            return S(rd, f"1 if ({a} ^ {_SIGN}) < ({b} ^ {_SIGN}) else 0",
                     False)
        if op is Op.SLTU:
            return S(rd, f"1 if {a} < {b} else 0", False)
        if op is Op.MUL:
            if a == "0" or b == "0":
                return S(rd, "0", False)
            return S(rd, f"{a} * {b}", True)
        if op in (Op.DIVU, Op.REMU):
            rem = op is Op.REMU
            self.uses.add("div_trap")
            trap = f"_div_trap({pc}, cycle + {k}, {rem})"
            if b == "0":
                return [trap]
            sym = "%" if rem else "//"
            return [f"if {b} == 0:", f"    {trap}"] + S(
                rd, f"{a} {sym} {b}", False)
        if op is Op.ADDI:
            if a == "0":
                return S(rd, str(iu), False)
            if imm == 0:
                return S(rd, a, False)
            return S(rd, f"{a} + ({imm})", True)
        if op is Op.ANDI:
            if a == "0":
                return S(rd, "0", False)
            return S(rd, f"{a} & {iu}", False)
        if op is Op.ORI:
            if a == "0":
                return S(rd, str(iu), False)
            return S(rd, f"{a} | {iu}", False)
        if op is Op.XORI:
            if a == "0":
                return S(rd, str(iu), False)
            return S(rd, f"{a} ^ {iu}", False)
        if op is Op.SLLI:
            # The r0 fold must not swallow the ValueError a negative
            # shift count raises in the interpreter (same for SRLI/SRAI).
            if a == "0" and imm >= 0:
                return S(rd, "0", False)
            return S(rd, f"{a} << {imm}", True)
        if op is Op.SRLI:
            if a == "0" and imm >= 0:
                return S(rd, "0", False)
            return S(rd, f"{a} >> {imm}", False)
        if op is Op.SRAI:
            if a == "0" and imm >= 0:
                return S(rd, "0", False)
            return S(rd, f"{self._signed(a)} >> {imm}", True)
        if op is Op.SLTI:
            if a == "0":
                return S(rd, str(int(0 < imm)), False)
            return S(rd, f"1 if {self._signed(a)} < ({imm}) else 0", False)
        if op is Op.SLTIU:
            if a == "0":
                return S(rd, str(int(0 < iu)), False)
            return S(rd, f"1 if {a} < {iu} else 0", False)
        if op is Op.LUI:
            return S(rd, str((imm << 16) & _M), False)
        raise AssertionError(f"not an ALU op: {op!r}")  # pragma: no cover

    def _memory(self, ins, pc: int, k: int) -> list[str]:
        op, rd, imm = ins.op, ins.rd, ins.imm
        base = self._reg(ins.rs1)
        load = op not in (Op.SW, Op.SH, Op.SB)
        kind = "load" if load else "store"
        width = {Op.LW: 4, Op.SW: 4, Op.LH: 2, Op.LHU: 2, Op.SH: 2,
                 Op.LB: 1, Op.LBU: 1, Op.SB: 1}[op]
        self.uses.add("mem_trap")
        lines: list[str] = []
        if base == "0":
            # Constant address: fold the checks away entirely (or into
            # an unconditional trap).
            addr = imm
            if addr % width or not 0 <= addr <= self.ram_size - width:
                return [f"_mem_trap({addr}, {width}, {pc}, "
                        f"cycle + {k}, {kind!r})"]
            at = str(addr)
            idx4, idx2 = str(addr >> 2), str(addr >> 1)
        else:
            lines.append(f"a_ = {base} + ({imm})" if imm
                         else f"a_ = {base}")
            if width == 4:
                guard = f"a_ & 3 or a_ < 0 or a_ > {self.ram_size - 4}"
            elif width == 2:
                guard = f"a_ & 1 or a_ < 0 or a_ > {self.ram_size - 2}"
            else:
                guard = f"a_ < 0 or a_ > {self.ram_size - 1}"
            lines.append(f"if {guard}:")
            lines.append(f"    _mem_trap(a_, {width}, {pc}, "
                         f"cycle + {k}, {kind!r})")
            at, idx4, idx2 = "a_", "a_ >> 2", "a_ >> 1"
        if load:
            if rd == 0:
                return lines  # checks only; the read has no effect
            if op is Op.LW:
                self.uses.add("mv4")
                lines += self._set(rd, f"mv4[{idx4}]", False)
            elif op is Op.LHU:
                self.uses.add("mv2")
                lines += self._set(rd, f"mv2[{idx2}]", False)
            elif op is Op.LBU:
                self.uses.add("ram")
                lines += self._set(rd, f"ram[{at}]", False)
            elif op is Op.LH:
                self.uses.add("mv2")
                lines.append(f"v_ = mv2[{idx2}]")
                lines.append(f"{self._wreg(rd)} = (v_ - 65536) & {_M} "
                             f"if v_ & 32768 else v_")
            else:  # LB
                self.uses.add("ram")
                lines.append(f"v_ = ram[{at}]")
                lines.append(f"{self._wreg(rd)} = (v_ - 256) & {_M} "
                             f"if v_ & 128 else v_")
        else:
            val = self._reg(ins.rs2)
            if op is Op.SW:
                self.uses.add("mv4")
                lines.append(f"mv4[{idx4}] = {val}")
            elif op is Op.SH:
                self.uses.add("mv2")
                sval = "0" if val == "0" else f"{val} & 65535"
                lines.append(f"mv2[{idx2}] = {sval}")
            else:  # SB
                self.uses.add("ram")
                sval = "0" if val == "0" else f"{val} & 255"
                lines.append(f"ram[{at}] = {sval}")
        return lines

    def _body_instr(self, ins, pc: int, k: int) -> list[str]:
        """Source lines for one non-terminal instruction.

        ``pc`` is the instruction's ROM index; ``k`` its offset from the
        block start, so at run time it executes at ``cycle + k`` (with
        ``cycle`` still holding the block-entry count).
        """
        op = ins.op
        if op is Op.NOP:
            return []
        if op is Op.OUT:
            self.uses.add("serial")
            src = self._reg(ins.rs1)
            b = "0" if src == "0" else f"{src} & 255"
            return [
                f"b_ = {b}",
                "serial.append(b_)",
                "if oracle is not None and (len(serial) > _olen or "
                "oracle[len(serial) - 1] != b_):",
                "    M.diverged = True",
                "    M.halted = True",
                f"    pc = {pc + 1}",
                f"    cycle += {k + 1}",
                "    break",
            ]
        if op is Op.DETECT:
            self.uses.add("detect")
            return [f"detections.append((cycle + {k + 1}, {ins.imm}))"]
        if op in (Op.LW, Op.LH, Op.LHU, Op.LB, Op.LBU,
                  Op.SW, Op.SH, Op.SB):
            return self._memory(ins, pc, k)
        return self._alu(ins, pc, k)

    def _branch_cond(self, ins) -> str:
        a, b = self._reg(ins.rs1), self._reg(ins.rs2)
        op = ins.op
        if op is Op.BEQ:
            return f"{a} == {b}"
        if op is Op.BNE:
            return f"{a} != {b}"
        if op is Op.BLT:
            return f"({a} ^ {_SIGN}) < ({b} ^ {_SIGN})"
        if op is Op.BGE:
            return f"({a} ^ {_SIGN}) >= ({b} ^ {_SIGN})"
        if op is Op.BLTU:
            return f"{a} < {b}"
        return f"{a} >= {b}"  # BGEU

    # -- block emission ------------------------------------------------------

    def _emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def _emit_lines(self, depth: int, lines: list[str]) -> None:
        for line in lines:
            self._emit(depth, line)

    def _emit_block(self, block: _Block, depth: int,
                    entrant: bool = False) -> None:
        """One block inside the dispatch loop — or, with ``entrant``,
        its twin for a machine already ``k_`` instructions in: the same
        body behind one ``k_ <= j`` guard per instruction, ``cycle``
        being the *virtual* block-entry count (real cycle − ``k_``) so
        that every ``cycle + j`` is the interpreter's number.  A twin
        runs one pass; the driver re-dispatches on the leader it ends at.
        """
        instrs = block.instrs
        length = len(instrs)
        last_pc, last = instrs[-1]
        terminal = last.op in _CONTROL
        body = instrs[:-1] if terminal else instrs
        again = "break" if entrant else "continue"

        if block.self_loop and not entrant:
            self._emit(depth, f"while cycle + {length} <= limit or ("
                              f"cycle < limit and cycle + {length} <= ceiling):")
            for k, (pc, ins) in enumerate(body):
                self._emit_lines(depth + 1, self._body_instr(ins, pc, k))
            self._emit(depth + 1, f"cycle += {length}")
            cond = self._branch_cond(last)
            self._emit(depth + 1, f"if {cond}:")
            self._emit(depth + 2, "continue")
            self._emit(depth + 1, f"pc = {last_pc + 1}")
            self._emit(depth + 1, "break")
            self._emit(depth, "else:")
            self._emit(depth + 1, "break")
            self._emit(depth, "continue")
            return

        if not entrant:  # (a twin checks in its prologue)
            # (The second clause only runs for a block past ``limit``.)
            self._emit(depth, f"if cycle + {length} > limit and ("
                              f"cycle >= limit or cycle + {length} > ceiling):")
            self._emit(depth + 1, "break")
        for k, (pc, ins) in enumerate(body):
            if not entrant or k == length - 1:
                self._emit_lines(depth, self._body_instr(ins, pc, k))
            elif k and (lines := self._body_instr(ins, pc, k)):
                # (Entry is at 1 <= k_ <= length - 1.)
                self._emit(depth, f"if k_ <= {k}:")
                self._emit_lines(depth + 1, lines)
        op = last.op if terminal else None
        if op in _BRANCHES:
            cond = self._branch_cond(last)
            target, fall = last.imm, last_pc + 1
            self._emit(depth, f"cycle += {length}")
            if target == fall:
                self._emit(depth, f"pc = {target}")
            else:
                self._emit(depth, f"pc = {target} if {cond} else {fall}")
            self._emit(depth, again)
        elif op is Op.JAL:
            self._emit(depth, f"cycle += {length}")
            self._emit_lines(depth, self._set(last.rd, str(last_pc + 1),
                                              False))
            self._emit(depth, f"pc = {last.imm}")
            self._emit(depth, again)
        elif op is Op.JALR:
            base = self._reg(last.rs1)
            if base == "0":
                self._emit(depth, f"t_ = {last.imm & _M}")
            else:
                self._emit(depth, f"t_ = ({base} + ({last.imm})) & {_M}")
            self._emit_lines(depth, self._set(last.rd, str(last_pc + 1),
                                              False))
            self._emit(depth, f"cycle += {length}")
            self._emit(depth, "pc = t_")
            self._emit(depth, again)
        elif op is Op.HALT:
            self._emit(depth, f"cycle += {length}")
            self._emit(depth, f"pc = {last_pc + 1}")
            self._emit(depth, "M.halted = True")
            self._emit(depth, "break")
        else:
            # Fallthrough into the next leader, or off the end of ROM
            # (the driver turns pc == len(rom) into a clean halt).
            self._emit(depth, f"cycle += {length}")
            self._emit(depth, f"pc = {last_pc + 1}")
            if last_pc + 1 < len(self.program.rom):
                self._emit(depth, again)
            else:
                self._emit(depth, "break")

    def _emit_tree(self, blocks: list[_Block], depth: int) -> None:
        """Binary dispatch on ``pc`` over the sorted block leaders."""
        if len(blocks) <= 3:
            for j, block in enumerate(blocks):
                kw = "if" if j == 0 else "elif"
                self._emit(depth, f"{kw} pc == {block.start}:")
                self._emit_block(block, depth + 1)
            self._emit(depth, "else:")
            self._emit(depth + 1, "break")
            return
        mid = len(blocks) // 2
        self._emit(depth, f"if pc < {blocks[mid].start}:")
        self._emit_tree(blocks[:mid], depth + 1)
        self._emit(depth, "else:")
        self._emit_tree(blocks[mid:], depth + 1)

    # -- whole-function emission ---------------------------------------------

    def _source(self, name: str, prologue: list[str]) -> str:
        """``def name(M, limit, ceiling)`` around ``self.lines`` (a
        dispatch-loop body at depth 3); ``prologue`` sets ``pc``/``cycle``."""
        head = [f"def {name}(M, limit, ceiling):"] + prologue
        head.append("    regs = M.regs")
        if "ram" in self.uses:
            head.append("    ram = M.ram")
        if "mv4" in self.uses:
            head.append("    mv4 = M._mv4")
        if "mv2" in self.uses:
            head.append("    mv2 = M._mv2")
        if "serial" in self.uses:
            head.append("    serial = M.serial")
            head.append("    oracle = M.oracle")
            head.append("    _olen = M._olen")
        if "detect" in self.uses:
            head.append("    detections = M.detections")
        regs = sorted(self.used_regs)
        for r in regs:
            head.append(f"    r{r} = regs[{r}]")
        head.append("    try:")
        head.append("        while True:")
        tail = [
            "    except _CPUError as e:",
            "        pc = e.pc + 1",
            "        cycle = e.cycle",
            "        M.halted = True",
            "        raise",
            "    except BaseException:",
            # A host error inside a twin must not publish its virtual cycle.
            "        cycle = max(cycle, M.cycle)",
            "        M.halted = True",
            "        raise",
            "    finally:",
        ]
        for r in regs:
            tail.append(f"        regs[{r}] = r{r}")
        tail.append("        M.pc = pc")
        tail.append("        M.cycle = cycle")
        return "\n".join(head + self.lines + tail) + "\n"

    def generate(self) -> CompiledCode:
        program = self.program
        blocks = _find_blocks(program.rom, program.entry,
                              program_blocks(program).leaders)
        if blocks:
            self._emit_tree(blocks, 3)
        else:
            self._emit(3, "break")
        source = self._source("_jit", ["    cycle = M.cycle",
                                       "    pc = M.pc"])
        run_fn = _load(_whole_program_code(program.name, source), "_jit")
        enter = [run_fn] * len(program.rom)
        for block in blocks:
            body = slice(block.start + 1, block.start + len(block.instrs))
            enter[body] = [partial(_first_entry, block)] * (
                len(block.instrs) - 1)
        return CompiledCode(run_fn=run_fn, enter=enter,
                            leaders=frozenset(b.start for b in blocks),
                            source=source)

    def twin(self, block: _Block) -> object:
        """The entrant form of ``block``: run its rest from ``M.pc``."""
        self._emit_block(block, 3, entrant=True)
        name = f"_enter_{block.start}"
        return _load(_compile(self._source(name, [
            "    pc = M.pc",
            f"    k_ = pc - {block.start}",
            "    cycle = M.cycle - k_",  # the virtual block-entry cycle
            # The driver only enters below ``limit``, and ``ceiling >=
            # limit``: the rest of the block fits iff its end does.
            f"    if cycle + {len(block.instrs)} > ceiling:",
            "        return",
        ])), name)


def _compile(source: str) -> CodeType:
    """The module code object of generated ``source``."""
    return compile(source, "<repro-jit>", "exec")


def _load(code: CodeType, name: str):
    """Run generated module ``code`` and return its function ``name``."""
    namespace = {
        "_CPUError": CPUException,
        "_mem_trap": _mem_trap,
        "_div_trap": _div_trap,
    }
    exec(code, namespace)
    return namespace[name]


#: A cache file starts with this tag and the 32-byte key of the source
#: it was compiled from; the marshalled code object follows.
_CACHE_TAG = b"repro-jit\0"

#: Sources shorter than this many lines bypass the cache.  They compile
#: in under ≈ 4 ms, and the Hypothesis fuzzer's hundreds of distinct
#: small programs a run would pay a file write each for nothing
#: (DESIGN.md §3e, "The dispatch function is cached beside the
#: bytecode").
_CACHE_MIN_LINES = 400


def _whole_program_code(name: str, source: str) -> CodeType:
    """The code object of whole-program ``source``, from the cache
    beside this module's bytecode when its file holds ``source``'s key,
    else compiled (and then filed there, unless ``source`` is short)."""
    short = source.count("\n") < _CACHE_MIN_LINES
    path = None if short else _cache_path(name)
    if path:
        key = hashlib.sha256(importlib.util.MAGIC_NUMBER
                             + source.encode()).digest()
        code = _read_cache(path, key)
        if code is not None:
            return code
    code = _compile(source)
    if path and not sys.dont_write_bytecode:
        _write_cache(path, key, code)
    _trim_heap()
    return code


def _cache_path(name: str) -> str | None:
    """The one cache file of programs named ``name``: in the directory
    that holds this module's ``.pyc`` (``sys.pycache_prefix`` honoured),
    or ``None`` where the interpreter caches no bytecode."""
    try:
        pyc = importlib.util.cache_from_source(__file__)
    except NotImplementedError:  # pragma: no cover - no cache tag
        return None
    stem = "".join(c if c.isalnum() or c in "-_" else "_"
                   for c in name[:96])
    return os.path.join(os.path.dirname(pyc), f"repro-jit.{stem}."
                        f"{sys.implementation.cache_tag}.bin")


def _read_cache(path: str, key: bytes) -> CodeType | None:
    """The code object filed at ``path`` under ``key``; ``None`` for a
    missing or unreadable file, another key, or bytes that are not
    one marshalled code object."""
    head = _CACHE_TAG + key
    try:
        with open(path, "rb") as file:
            data = file.read()
    except OSError:
        return None
    if not data.startswith(head):
        return None
    try:
        code = marshal.loads(memoryview(data)[len(head):])
    except (EOFError, ValueError, TypeError):
        return None
    return code if type(code) is CodeType else None


def _write_cache(path: str, key: bytes, code: CodeType) -> None:
    """File ``code`` at ``path`` under ``key``, atomically: a reader
    sees the old file or the new one, never part of one.  A directory
    that cannot be written leaves the cache as it was."""
    temp = f"{path}.{os.getpid()}.{id(code)}"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with open(fd, "wb") as file:
            file.write(_CACHE_TAG + key + marshal.dumps(code))
        os.replace(temp, path)
    except OSError:
        try:
            os.unlink(temp)
        except OSError:
            pass


def _first_entry(block: _Block, M, limit, ceiling) -> None:
    """Stand-in for ``block``'s twin: compile it, take its place, run it.
    (Program and table come from ``M``: no cycle through the artifact.)"""
    fn = _Codegen(M.program).twin(block)
    body = slice(block.start + 1, block.start + len(block.instrs))
    M._jit.enter[body] = [fn] * (len(block.instrs) - 1)
    fn(M, limit, ceiling)


def compile_program(program: Program) -> CompiledCode | None:
    """The superblock function for ``program``, generated once.

    Cached on the program object — an executor builds two machines of
    one program — outside its fields, so outside ``==``, fingerprints
    and pickles (:meth:`Program.__getstate__`).

    The source is always generated; only its ``compile()`` is cached
    across processes.  The code object is filed beside this module's
    bytecode, one file per program name, under
    ``sha256(importlib.util.MAGIC_NUMBER + source)``: a file holding
    that key is loaded with ``marshal``, anything else (no file,
    another key, a torn or foreign file) is compiled afresh, the heap
    trimmed, and the file rewritten unless ``sys.dont_write_bytecode``
    is set.  Keyed by the source itself, an entry cannot go stale
    (DESIGN.md, "The dispatch function is cached beside the bytecode").

    Returns ``None`` on big-endian hosts, where the ``memoryview`` casts
    would read the wrong byte order; the machine then runs entirely on
    the interpreter path.
    """
    if sys.byteorder != "little":  # pragma: no cover - exotic hosts
        return None
    code = program.__dict__.get("_compiled")
    if code is None:
        code = program.__dict__["_compiled"] = _Codegen(program).generate()
    return code


#: libc's ``malloc_trim``, resolved on first use; ``False`` where there
#: is none (not Linux, or a libc without it).
_malloc_trim = None


def _trim_heap() -> None:
    """Give the C heap's free pages back to the OS now.

    Compiling the whole-program function (a cache miss) takes about
    8 MB of transient compiler memory (AST and control-flow graph) for
    a kernel program.  glibc keeps it after ``compile`` returns, and
    returns it only when a later ``free`` finds the top of the heap
    free: a moment that differed between identical runs, so the peak
    RSS of a warm re-sweep read 42 or 45 MB by chance.  Trimming here
    returns it at one fixed point (DESIGN.md, "The compiler's transient
    memory").
    """
    global _malloc_trim
    if _malloc_trim is None:
        _malloc_trim = False
        if sys.platform.startswith("linux"):
            try:
                import ctypes

                _malloc_trim = ctypes.CDLL(None).malloc_trim
            except (OSError, AttributeError):
                pass
    if _malloc_trim:
        _malloc_trim(0)


class CompiledMachine(Machine):
    """Drop-in :class:`Machine` running generated superblocks.

    Everything observable — state, digests, traps, snapshots, serial,
    detections, cycle counts — is bit-identical to the interpreter; the
    per-instruction handlers remain available and are used for golden
    recording (``tracer``), an armed stuck-at latch and budget tails.
    Any other pc enters generated code: the superblock function at a
    block leader, the block's entrant twin inside it.
    """

    def __init__(self, program: Program, *, tracer=None, oracle=None):
        super().__init__(program, tracer=tracer, oracle=oracle)
        self._jit = compile_program(program)

    # -- lifecycle: keep the RAM views in sync with the buffer ---------------

    def reset(self) -> None:
        super().reset()
        # Only ``reset`` replaces the RAM buffer (``restore`` copies into
        # it).  ``cast`` needs a length divisible by the item size;
        # aligned in-bounds accesses never reach past the aligned prefix.
        ram = self.ram
        self._mv4 = memoryview(ram)[:len(ram) & ~3].cast("I")
        self._mv2 = memoryview(ram)[:len(ram) & ~1].cast("H")
        oracle = self.oracle
        self._olen = len(oracle) if oracle is not None else 0

    # -- execution -----------------------------------------------------------

    def _run_until(self, limit: int, ceiling: int | None = None) -> None:
        jit = getattr(self, "_jit", None)
        if jit is None or self.tracer is not None:
            # Golden recording wants the traced per-access hooks; exotic
            # hosts have no JIT artifact at all.
            super()._run_until(limit, ceiling)
            return
        if ceiling is None:
            ceiling = limit  # exact
        enter = jit.enter
        exec_rom = self._exec
        rom_len = len(exec_rom)
        while not self.halted:
            cycle = self.cycle
            if cycle >= limit:
                break
            pc = self.pc
            if 0 <= pc < rom_len:
                if self._stuck is None:
                    # Generated code inlines its stores (memoryview
                    # writes), which would bypass the stuck-at release
                    # hook in ``_store_raw`` — so an armed latch pins
                    # execution to the interpreter path until the
                    # releasing store clears it; from there on the
                    # machine may finish its block like any other.
                    enter[pc](self, limit, ceiling)
                    if self.halted or self.cycle != cycle:
                        continue
                # The block (or what is left of it) fits neither budget
                # nor ceiling: one interpreter step, then try again.
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
                self.halted = True
            else:
                self.halted = True
                raise IllegalPC(f"pc {pc} outside ROM", pc=pc, cycle=cycle)
