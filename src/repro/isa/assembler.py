"""Two-pass assembler for the simple RISC machine.

Source syntax (whitespace-insensitive, ``;`` or ``#`` start a comment)::

            .equ   N, 8            ; symbolic constant
            .data                  ; data segment (loaded into RAM at 0)
    msg:    .byte  0, 0
    table:  .word  1, 2, 3
            .space 16              ; 16 zero bytes
            .asciiz "hello"
            .align 4
            .text                  ; code segment (ROM)
    start:  li     r1, 'H'
            sb     r1, msg(zero)   ; label or offset(reg) addressing
            lw     r2, 0(sp)
            beq    r1, r2, done
            call   subroutine      ; jal ra, subroutine
    done:   halt

Branch and jump targets are *absolute ROM indices*; the assembler resolves
labels.  ``li``/``la`` expand to one or two real instructions depending on
the immediate value, so runtime cycle counts always reflect the actual
instruction stream.

The assembler is deliberately strict: unknown mnemonics, out-of-range
immediates and duplicate labels raise :class:`AssemblyError` with the
offending line number instead of producing a silently wrong program.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field, fields

from .errors import AssemblyError
from .isa import (
    Instruction,
    NUM_REGS,
    Op,
    REG_ALIASES,
    LINK_REG,
)

_LABEL_RE = re.compile(r"^[A-Za-z_.$][A-Za-z0-9_.$]*$")
_CHAR_RE = re.compile(r"^'(\\.|[^\\'])'$")

#: Default RAM size for assembled programs (bytes).
DEFAULT_RAM_SIZE = 4096

_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0",
    "\\": "\\", "'": "'", '"': '"',
}

# Mnemonic tables -----------------------------------------------------------

_R_TYPE = {
    "add": Op.ADD, "sub": Op.SUB, "and": Op.AND, "or": Op.OR,
    "xor": Op.XOR, "sll": Op.SLL, "srl": Op.SRL, "sra": Op.SRA,
    "slt": Op.SLT, "sltu": Op.SLTU, "mul": Op.MUL,
    "divu": Op.DIVU, "remu": Op.REMU,
}
_I_TYPE = {
    "addi": Op.ADDI, "andi": Op.ANDI, "ori": Op.ORI, "xori": Op.XORI,
    "slli": Op.SLLI, "srli": Op.SRLI, "srai": Op.SRAI,
    "slti": Op.SLTI, "sltiu": Op.SLTIU,
}
_LOADS = {"lw": Op.LW, "lh": Op.LH, "lhu": Op.LHU, "lb": Op.LB,
          "lbu": Op.LBU}
_STORES = {"sw": Op.SW, "sh": Op.SH, "sb": Op.SB}
_BRANCHES = {"beq": Op.BEQ, "bne": Op.BNE, "blt": Op.BLT, "bge": Op.BGE,
             "bltu": Op.BLTU, "bgeu": Op.BGEU}
#: Pseudo-branches: a real branch with its operands swapped.
_SWAPPED_BRANCHES = {"bgt": Op.BLT, "ble": Op.BGE, "bgtu": Op.BLTU,
                     "bleu": Op.BGEU}


@dataclass
class Program:
    """An assembled program: ROM image, initial RAM image and symbols.

    The ROM (``rom``) is immune to faults per the paper's machine model.
    ``data`` is copied to RAM address 0 on machine reset; the rest of RAM
    is zero-filled.  ``ram_size`` defines the benchmark's memory usage
    Δm (in bytes) and thereby the spatial extent of the fault space.
    """

    rom: list[Instruction]
    data: bytes
    ram_size: int
    entry: int = 0
    labels: dict[str, int] = field(default_factory=dict)
    data_labels: dict[str, int] = field(default_factory=dict)
    symbols: dict[str, int] = field(default_factory=dict)
    source: str = ""
    name: str = "program"

    def __post_init__(self) -> None:
        if len(self.data) > self.ram_size:
            raise AssemblyError(
                f"data segment ({len(self.data)} bytes) exceeds RAM size "
                f"({self.ram_size} bytes)")

    def __getstate__(self) -> dict:
        # Engines cache per-process artifacts derived from the program
        # (generated code) in its ``__dict__``; only the fields travel.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def rom_size(self) -> int:
        return len(self.rom)

    def symbol(self, name: str) -> int:
        """Look up a data label or ``.equ`` constant by name."""
        if name in self.data_labels:
            return self.data_labels[name]
        if name in self.symbols:
            return self.symbols[name]
        raise KeyError(name)

    def disassemble(self) -> str:
        """Return a human-readable listing of the ROM."""
        lines = []
        targets = {i.imm for i in self.rom
                   if i.op in (Op.JAL, Op.BEQ, Op.BNE, Op.BLT, Op.BGE,
                               Op.BLTU, Op.BGEU)}
        rev_labels = {v: k for k, v in self.labels.items()}
        for idx, instr in enumerate(self.rom):
            label = rev_labels.get(idx)
            prefix = f"{label}:" if label else ""
            marker = "*" if idx in targets and not label else " "
            lines.append(f"{idx:5d} {marker} {prefix:<12s} {instr}")
        return "\n".join(lines)


class _Segment:
    TEXT = "text"
    DATA = "data"


@dataclass(slots=True)
class _PendingInstruction:
    """An instruction parsed in pass one, possibly with unresolved labels.

    ``fixup`` names the field (``imm``) that still needs a text-label
    resolution in pass two.
    """

    op: Op
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    fixup: str | None = None
    text: str = ""
    lineno: int = 0


class Assembler:
    """Two-pass assembler producing :class:`Program` objects."""

    def __init__(self, ram_size: int = DEFAULT_RAM_SIZE):
        self.ram_size = ram_size

    # -- public API ---------------------------------------------------------

    def assemble(self, source: str, *, name: str = "program",
                 ram_size: int | None = None) -> Program:
        """Assemble ``source`` into a :class:`Program`.

        Raises :class:`AssemblyError` on any syntactic or semantic problem.
        """
        ram_size = self.ram_size if ram_size is None else ram_size
        self._reset()
        self._scan(source)
        rom = self._resolve()
        entry = self.text_labels.get("start", 0)
        return Program(
            rom=rom,
            data=bytes(self.data),
            ram_size=ram_size,
            entry=entry,
            labels=dict(self.text_labels),
            data_labels=dict(self.data_labels),
            symbols=dict(self.equs),
            source=source,
            name=name,
        )

    # -- pass machinery -----------------------------------------------------

    def _reset(self) -> None:
        self.segment = _Segment.TEXT
        self.pending: list[_PendingInstruction] = []
        self.data = bytearray()
        self.text_labels: dict[str, int] = {}
        self.data_labels: dict[str, int] = {}
        self.equs: dict[str, int] = {}
        self._deferred_words: list[tuple[int, str, int]] = []
        #: Text statement → the instructions it parsed to.  Parsing
        #: reads only constants, which keep their values once defined,
        #: so a repeat re-emits them under its own line number — until
        #: a data label moves (:meth:`_align_data`).  A statement that
        #: failed is never stored.
        self._parsed: dict[str, list[_PendingInstruction]] = {}

    def _scan(self, source: str) -> None:
        """Pass one: parse lines, lay out data, expand pseudos."""
        for lineno, raw in enumerate(source.splitlines(), start=1):
            line = self._strip_comment(raw)
            if not line.strip():
                continue
            line = self._take_labels(line, lineno)
            if not line.strip():
                continue
            self._parse_statement(line.strip(), lineno)
        # Patch .word entries that referenced forward data labels.
        for offset, label, lineno in self._deferred_words:
            value = self._lookup_data_symbol(label, lineno)
            struct.pack_into("<I", self.data, offset, value & 0xFFFFFFFF)

    def _resolve(self) -> list[Instruction]:
        """Pass two: resolve text labels into absolute ROM indices."""
        rom = []
        for p in self.pending:
            imm = p.imm
            if p.fixup is not None:
                if p.fixup in self.text_labels:
                    imm = self.text_labels[p.fixup]
                else:
                    raise AssemblyError(
                        f"undefined label '{p.fixup}'", p.lineno)
            rom.append(Instruction(op=p.op, rd=p.rd, rs1=p.rs1, rs2=p.rs2,
                                   imm=imm, text=p.text))
        return rom

    # -- line-level parsing --------------------------------------------------

    @staticmethod
    def _strip_comment(line: str) -> str:
        if '"' not in line:
            # No string to protect: the comment starts at the first
            # ``;`` or ``#``.
            return line.split(";", 1)[0].split("#", 1)[0]
        out = []
        in_string = False
        for ch in line:
            if ch == '"':
                in_string = not in_string
            if ch in ";#" and not in_string:
                break
            out.append(ch)
        return "".join(out)

    def _take_labels(self, line: str, lineno: int) -> str:
        while True:
            stripped = line.lstrip()
            colon = stripped.find(":")
            if colon <= 0:
                return stripped
            candidate = stripped[:colon].strip()
            if not _LABEL_RE.match(candidate):
                return stripped
            self._define_label(candidate, lineno)
            line = stripped[colon + 1:]

    def _define_label(self, name: str, lineno: int) -> None:
        table = (self.text_labels if self.segment == _Segment.TEXT
                 else self.data_labels)
        if (name in self.text_labels or name in self.data_labels
                or name in self.equs):
            raise AssemblyError(f"duplicate label '{name}'", lineno)
        position = (len(self.pending) if self.segment == _Segment.TEXT
                    else len(self.data))
        table[name] = position

    def _parse_statement(self, stmt: str, lineno: int) -> None:
        if self.segment == _Segment.TEXT:
            parsed = self._parsed.get(stmt)
            if parsed is not None:
                self.pending += [
                    _PendingInstruction(p.op, p.rd, p.rs1, p.rs2, p.imm,
                                        p.fixup, p.text, lineno)
                    for p in parsed]
                return
        mnemonic, _, rest = stmt.partition(" ")
        mnemonic = mnemonic.lower()
        if mnemonic.startswith("."):
            self._directive(mnemonic, rest.strip(), lineno)
            return
        if self.segment != _Segment.TEXT:
            raise AssemblyError(
                f"instruction '{mnemonic}' in data segment", lineno)
        first = len(self.pending)
        self._instruction(mnemonic, rest.strip(), stmt, lineno)
        self._parsed[stmt] = self.pending[first:]

    # -- directives ----------------------------------------------------------

    def _directive(self, name: str, rest: str, lineno: int) -> None:
        if name == ".text":
            self.segment = _Segment.TEXT
        elif name == ".data":
            self.segment = _Segment.DATA
        elif name == ".equ":
            parts = [p.strip() for p in rest.split(",")]
            if len(parts) != 2:
                raise AssemblyError(".equ needs 'name, value'", lineno)
            sym, value = parts
            if not _LABEL_RE.match(sym):
                raise AssemblyError(f"bad .equ name '{sym}'", lineno)
            if (sym in self.equs or sym in self.text_labels
                    or sym in self.data_labels):
                raise AssemblyError(f"duplicate .equ '{sym}'", lineno)
            self.equs[sym] = self._constant(value, lineno)
        elif name == ".byte":
            for value in self._value_list(rest, lineno):
                self.data.append(value & 0xFF)
        elif name == ".half":
            self._align_data(2)
            for value in self._value_list(rest, lineno):
                self.data += struct.pack("<H", value & 0xFFFF)
        elif name == ".word":
            self._align_data(4)
            for item in self._split_operands(rest, lineno):
                try:
                    value = self._constant(item, lineno)
                except AssemblyError:
                    # Forward reference to a data label: patch later.
                    if _LABEL_RE.match(item):
                        self._deferred_words.append(
                            (len(self.data), item, lineno))
                        value = 0
                    else:
                        raise
                self.data += struct.pack("<I", value & 0xFFFFFFFF)
        elif name == ".space":
            count = self._constant(rest, lineno)
            if count < 0:
                raise AssemblyError(".space needs a non-negative count",
                                    lineno)
            self.data += bytes(count)
        elif name == ".align":
            boundary = self._constant(rest, lineno)
            if boundary <= 0 or boundary & (boundary - 1):
                raise AssemblyError(".align needs a power of two", lineno)
            self._align_data(boundary)
        elif name in (".ascii", ".asciiz"):
            text = self._string_literal(rest, lineno)
            self.data += text.encode("latin-1")
            if name == ".asciiz":
                self.data.append(0)
        else:
            raise AssemblyError(f"unknown directive '{name}'", lineno)

    def _value_list(self, rest: str, lineno: int) -> list[int]:
        return [self._constant(item, lineno)
                for item in self._split_operands(rest, lineno)]

    def _align_data(self, boundary: int) -> None:
        old_end = len(self.data)
        while len(self.data) % boundary:
            self.data.append(0)
        if len(self.data) != old_end:
            # Labels defined at the (unaligned) segment end mean the datum
            # about to be emitted; carry them across the padding.
            for name, value in self.data_labels.items():
                if value == old_end:
                    self.data_labels[name] = len(self.data)
                    self._parsed.clear()

    @staticmethod
    def _string_literal(rest: str, lineno: int) -> str:
        rest = rest.strip()
        if len(rest) < 2 or rest[0] != '"' or rest[-1] != '"':
            raise AssemblyError("expected a double-quoted string", lineno)
        body = rest[1:-1]
        out = []
        i = 0
        while i < len(body):
            ch = body[i]
            if ch == "\\":
                i += 1
                if i >= len(body) or body[i] not in _ESCAPES:
                    raise AssemblyError("bad escape in string", lineno)
                out.append(_ESCAPES[body[i]])
            else:
                out.append(ch)
            i += 1
        return "".join(out)

    # -- instructions --------------------------------------------------------

    def _instruction(self, mnemonic: str, rest: str, stmt: str,
                     lineno: int) -> None:
        ops = self._split_operands(rest, lineno) if rest else []
        emit = lambda **kw: self._emit(text=stmt, lineno=lineno, **kw)

        if mnemonic in _R_TYPE:
            rd, rs1, rs2 = self._expect(ops, 3, lineno, "rd, rs1, rs2")
            emit(op=_R_TYPE[mnemonic], rd=self._reg(rd, lineno),
                 rs1=self._reg(rs1, lineno), rs2=self._reg(rs2, lineno))
        elif mnemonic in _I_TYPE:
            rd, rs1, imm = self._expect(ops, 3, lineno, "rd, rs1, imm")
            value = self._constant(imm, lineno)
            self._check_imm(mnemonic, value, lineno)
            emit(op=_I_TYPE[mnemonic], rd=self._reg(rd, lineno),
                 rs1=self._reg(rs1, lineno), imm=value)
        elif mnemonic == "lui":
            rd, imm = self._expect(ops, 2, lineno, "rd, imm")
            value = self._constant(imm, lineno)
            if not 0 <= value <= 0xFFFF:
                raise AssemblyError("lui immediate out of range", lineno)
            emit(op=Op.LUI, rd=self._reg(rd, lineno), imm=value)
        elif mnemonic in _LOADS:
            rd, addr = self._expect(ops, 2, lineno, "rd, offset(rs)")
            base, offset = self._address(addr, lineno)
            emit(op=_LOADS[mnemonic], rd=self._reg(rd, lineno),
                 rs1=base, imm=offset)
        elif mnemonic in _STORES:
            rs2, addr = self._expect(ops, 2, lineno, "rs, offset(rs)")
            base, offset = self._address(addr, lineno)
            emit(op=_STORES[mnemonic], rs2=self._reg(rs2, lineno),
                 rs1=base, imm=offset)
        elif mnemonic in _BRANCHES:
            rs1, rs2, target = self._expect(ops, 3, lineno,
                                            "rs1, rs2, label")
            emit(op=_BRANCHES[mnemonic], rs1=self._reg(rs1, lineno),
                 rs2=self._reg(rs2, lineno),
                 **self._target(target, lineno))
        elif mnemonic in _SWAPPED_BRANCHES:
            rs1, rs2, target = self._expect(ops, 3, lineno,
                                            "rs1, rs2, label")
            emit(op=_SWAPPED_BRANCHES[mnemonic],
                 rs1=self._reg(rs2, lineno), rs2=self._reg(rs1, lineno),
                 **self._target(target, lineno))
        elif mnemonic in ("beqz", "bnez"):
            rs1, target = self._expect(ops, 2, lineno, "rs, label")
            op = Op.BEQ if mnemonic == "beqz" else Op.BNE
            emit(op=op, rs1=self._reg(rs1, lineno), rs2=0,
                 **self._target(target, lineno))
        elif mnemonic == "jal":
            rd, target = self._expect(ops, 2, lineno, "rd, label")
            emit(op=Op.JAL, rd=self._reg(rd, lineno),
                 **self._target(target, lineno))
        elif mnemonic == "jalr":
            rd, addr = self._expect(ops, 2, lineno, "rd, offset(rs)")
            base, offset = self._address(addr, lineno)
            emit(op=Op.JALR, rd=self._reg(rd, lineno), rs1=base,
                 imm=offset)
        elif mnemonic == "j":
            (target,) = self._expect(ops, 1, lineno, "label")
            emit(op=Op.JAL, rd=0, **self._target(target, lineno))
        elif mnemonic == "call":
            (target,) = self._expect(ops, 1, lineno, "label")
            emit(op=Op.JAL, rd=LINK_REG, **self._target(target, lineno))
        elif mnemonic == "ret":
            self._expect(ops, 0, lineno, "")
            emit(op=Op.JALR, rd=0, rs1=LINK_REG, imm=0)
        elif mnemonic == "jr":
            (rs,) = self._expect(ops, 1, lineno, "rs")
            emit(op=Op.JALR, rd=0, rs1=self._reg(rs, lineno), imm=0)
        elif mnemonic == "mv":
            rd, rs = self._expect(ops, 2, lineno, "rd, rs")
            emit(op=Op.ADDI, rd=self._reg(rd, lineno),
                 rs1=self._reg(rs, lineno), imm=0)
        elif mnemonic == "lpc":
            # Load the ROM index of a text label (for computed jumps and
            # thread entry points). Always one instruction; resolved in
            # pass two like branch targets.
            rd, target = self._expect(ops, 2, lineno, "rd, text_label")
            emit(op=Op.ADDI, rd=self._reg(rd, lineno), rs1=0,
                 **self._target(target, lineno))
        elif mnemonic in ("li", "la"):
            rd, imm = self._expect(ops, 2, lineno, "rd, value")
            self._emit_li(self._reg(rd, lineno),
                          self._constant(imm, lineno), stmt, lineno)
        elif mnemonic == "not":
            rd, rs = self._expect(ops, 2, lineno, "rd, rs")
            emit(op=Op.XORI, rd=self._reg(rd, lineno),
                 rs1=self._reg(rs, lineno), imm=0xFFFF)
        elif mnemonic == "neg":
            rd, rs = self._expect(ops, 2, lineno, "rd, rs")
            emit(op=Op.SUB, rd=self._reg(rd, lineno), rs1=0,
                 rs2=self._reg(rs, lineno))
        elif mnemonic == "out":
            (rs,) = self._expect(ops, 1, lineno, "rs")
            emit(op=Op.OUT, rs1=self._reg(rs, lineno))
        elif mnemonic == "detect":
            (code,) = self._expect(ops, 1, lineno, "code")
            emit(op=Op.DETECT, imm=self._constant(code, lineno))
        elif mnemonic == "halt":
            self._expect(ops, 0, lineno, "")
            emit(op=Op.HALT)
        elif mnemonic == "nop":
            self._expect(ops, 0, lineno, "")
            emit(op=Op.NOP)
        else:
            raise AssemblyError(f"unknown mnemonic '{mnemonic}'", lineno)

    def _emit(self, *, op: Op, text: str, lineno: int, rd: int = 0,
              rs1: int = 0, rs2: int = 0, imm: int = 0,
              fixup: str | None = None) -> None:
        self.pending.append(_PendingInstruction(
            op=op, rd=rd, rs1=rs1, rs2=rs2, imm=imm, fixup=fixup,
            text=" ".join(text.split()), lineno=lineno))

    def _emit_li(self, rd: int, value: int, stmt: str, lineno: int) -> None:
        if -32768 <= value <= 32767:
            self._emit(op=Op.ADDI, rd=rd, rs1=0, imm=value, text=stmt,
                       lineno=lineno)
            return
        unsigned = value & 0xFFFFFFFF
        self._emit(op=Op.LUI, rd=rd, imm=unsigned >> 16, text=stmt,
                   lineno=lineno)
        self._emit(op=Op.ORI, rd=rd, rs1=rd, imm=unsigned & 0xFFFF,
                   text=f"{stmt} [lo]", lineno=lineno)

    # -- operand parsing -----------------------------------------------------

    @staticmethod
    def _split_operands(rest: str, lineno: int) -> list[str]:
        # Split on commas that are not inside quotes or parentheses.
        if "'" not in rest:
            items = rest.split(",")
            if all(item.count("(") == item.count(")") for item in items):
                # No comma inside parentheses: every comma splits, and
                # a trailing one is dropped.
                items = [item.strip() for item in items]
                if not items[-1]:
                    items.pop()
                if not all(items):
                    raise AssemblyError("empty operand", lineno)
                return items
        items, depth, current, quote = [], 0, [], False
        for ch in rest:
            if ch == "'":
                quote = not quote
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            if ch == "," and depth == 0 and not quote:
                items.append("".join(current).strip())
                current = []
            else:
                current.append(ch)
        tail = "".join(current).strip()
        if tail:
            items.append(tail)
        if any(not item for item in items):
            raise AssemblyError("empty operand", lineno)
        return items

    @staticmethod
    def _expect(ops: list[str], count: int, lineno: int,
                shape: str) -> list[str]:
        if len(ops) != count:
            raise AssemblyError(
                f"expected operands '{shape}', got {len(ops)}", lineno)
        return ops

    def _reg(self, token: str, lineno: int) -> int:
        token = token.strip().lower()
        if token in REG_ALIASES:
            return REG_ALIASES[token]
        if token.startswith("r") and token[1:].isdigit():
            index = int(token[1:])
            if 0 <= index < NUM_REGS:
                return index
        raise AssemblyError(f"bad register '{token}'", lineno)

    def _address(self, token: str, lineno: int) -> tuple[int, int]:
        """Parse ``offset(rs)`` or a bare symbol/number (base ``zero``)."""
        token = token.strip()
        if token.endswith(")") and "(" in token:
            offset_text, _, reg_text = token[:-1].rpartition("(")
            base = self._reg(reg_text, lineno)
            offset = (self._constant(offset_text.strip(), lineno)
                      if offset_text.strip() else 0)
            return base, offset
        return 0, self._constant(token, lineno)

    def _target(self, token: str, lineno: int) -> dict:
        """Parse a branch/jump target: a text label or an absolute index."""
        token = token.strip()
        if _LABEL_RE.match(token) and not self._is_numeric(token):
            return {"fixup": token}
        return {"imm": self._constant(token, lineno)}

    @staticmethod
    def _is_numeric(token: str) -> bool:
        try:
            int(token, 0)
            return True
        except ValueError:
            return False

    def _constant(self, token: str, lineno: int) -> int:
        """Evaluate an immediate: int, char, symbol, or ``a+b``/``a-b``."""
        token = token.strip()
        match = _CHAR_RE.match(token)
        if match:
            body = match.group(1)
            if body.startswith("\\"):
                if body[1] not in _ESCAPES:
                    raise AssemblyError(f"bad escape '{body}'", lineno)
                return ord(_ESCAPES[body[1]])
            return ord(body)
        # Simple additive expressions: sym+4, sym-4, 3+5.
        for op_char in "+-":
            split = self._split_additive(token, op_char)
            if split:
                left, right = split
                lhs = self._constant(left, lineno)
                rhs = self._constant(right, lineno)
                return lhs + rhs if op_char == "+" else lhs - rhs
        try:
            return int(token, 0)
        except ValueError:
            pass
        value = self._lookup_symbol(token)
        if value is None:
            raise AssemblyError(f"cannot evaluate constant '{token}'",
                                lineno)
        return value

    @staticmethod
    def _split_additive(token: str, op_char: str) -> tuple[str, str] | None:
        # Find a top-level operator not at position 0 (to allow -5).
        index = token.rfind(op_char)
        if index <= 0:
            return None
        left, right = token[:index].strip(), token[index + 1:].strip()
        if not left or not right:
            return None
        return left, right

    def _lookup_symbol(self, name: str) -> int | None:
        if name in self.equs:
            return self.equs[name]
        if name in self.data_labels:
            return self.data_labels[name]
        return None

    def _lookup_data_symbol(self, name: str, lineno: int) -> int:
        value = self._lookup_symbol(name)
        if value is None:
            raise AssemblyError(f"undefined data symbol '{name}'", lineno)
        return value

    @staticmethod
    def _check_imm(mnemonic: str, value: int, lineno: int) -> None:
        if mnemonic in ("slli", "srli", "srai"):
            if not 0 <= value <= 31:
                raise AssemblyError("shift amount out of range", lineno)
        elif not -32768 <= value <= 0xFFFF:
            raise AssemblyError(
                f"immediate {value} out of 16-bit range", lineno)


def assemble(source: str, *, name: str = "program",
             ram_size: int = DEFAULT_RAM_SIZE) -> Program:
    """Convenience wrapper: assemble ``source`` with default settings."""
    return Assembler(ram_size=ram_size).assemble(source, name=name)
