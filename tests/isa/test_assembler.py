"""Unit tests for the two-pass assembler."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign.database import program_fingerprint
from repro.isa import AssemblyError, Machine, Op, assemble
from repro.isa.assembler import Assembler
from repro.programs import all_programs


def run_program(source, ram_size=64, max_cycles=10_000):
    machine = Machine(assemble(source, ram_size=ram_size))
    machine.run(max_cycles)
    return machine


class TestDirectives:
    def test_byte_directive_lays_out_bytes(self):
        prog = assemble("""
            .data
a:      .byte 1, 2, 255
            .text
            halt
""")
        assert prog.data == bytes([1, 2, 255])
        assert prog.data_labels["a"] == 0

    def test_word_directive_is_little_endian_and_aligned(self):
        prog = assemble("""
            .data
b:      .byte 1
w:      .word 0x11223344
            .text
            halt
""")
        assert prog.data_labels["w"] == 4  # aligned past the byte
        assert prog.data[4:8] == bytes([0x44, 0x33, 0x22, 0x11])

    def test_word_forward_reference_to_data_label(self):
        prog = assemble("""
            .data
ptr:    .word target
target: .word 7
            .text
            halt
""")
        assert prog.data[0:4] == (4).to_bytes(4, "little")

    def test_space_reserves_zero_bytes(self):
        prog = assemble("""
            .data
gap:    .space 5
end:    .byte 9
            .text
            halt
""")
        assert prog.data_labels["end"] == 5
        assert prog.data[:5] == bytes(5)

    def test_align_pads_to_boundary(self):
        prog = assemble("""
            .data
a:      .byte 1
        .align 8
b:      .byte 2
            .text
            halt
""")
        assert prog.data_labels["b"] == 8

    def test_asciiz_appends_nul(self):
        prog = assemble("""
            .data
s:      .asciiz "hi"
            .text
            halt
""")
        assert prog.data == b"hi\0"

    def test_ascii_with_escapes(self):
        prog = assemble("""
            .data
s:      .ascii "a\\nb"
            .text
            halt
""")
        assert prog.data == b"a\nb"

    def test_equ_constant_usable_as_immediate(self):
        machine = run_program("""
            .equ VALUE, 42
            .text
start:  addi r1, zero, VALUE
            out  r1
            halt
""")
        assert machine.serial == bytes([42])

    def test_duplicate_equ_rejected(self):
        with pytest.raises(AssemblyError, match="duplicate"):
            assemble(".equ A, 1\n.equ A, 2\n.text\nhalt")

    def test_unknown_directive_rejected(self):
        with pytest.raises(AssemblyError, match="unknown directive"):
            assemble(".bogus 3")

    def test_align_requires_power_of_two(self):
        with pytest.raises(AssemblyError, match="power of two"):
            assemble(".data\n.align 3\n.text\nhalt")


class TestLabels:
    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblyError, match="duplicate"):
            assemble(".text\na: nop\na: nop")

    def test_undefined_branch_target_rejected(self):
        with pytest.raises(AssemblyError, match="undefined label"):
            assemble(".text\n j nowhere")

    def test_label_and_instruction_on_one_line(self):
        prog = assemble(".text\nstart: nop\n j start")
        assert prog.labels["start"] == 0
        assert prog.rom[1].imm == 0

    def test_entry_defaults_to_zero_without_start(self):
        prog = assemble(".text\nnop\nhalt")
        assert prog.entry == 0

    def test_entry_is_start_label(self):
        prog = assemble(".text\nnop\nstart: halt")
        assert prog.entry == 1


class TestPseudoInstructions:
    def test_li_small_is_one_instruction(self):
        prog = assemble(".text\n li r1, 100")
        assert len(prog.rom) == 1
        assert prog.rom[0].op == Op.ADDI

    def test_li_large_expands_to_lui_ori(self):
        prog = assemble(".text\n li r1, 0x12345678")
        assert [i.op for i in prog.rom] == [Op.LUI, Op.ORI]
        machine = Machine(prog)
        machine.run(10)
        assert machine.regs[1] == 0x12345678

    def test_li_negative(self):
        machine = run_program(".text\nstart: li r1, -2\n halt")
        assert machine.regs[1] == 0xFFFFFFFE

    def test_li_large_negative_roundtrips(self):
        machine = run_program(".text\nstart: li r1, -100000\n halt")
        assert machine.regs[1] == (-100000) & 0xFFFFFFFF

    def test_mv_copies_register(self):
        machine = run_program(".text\nstart: li r1, 7\n mv r2, r1\n halt")
        assert machine.regs[2] == 7

    def test_call_and_ret(self):
        machine = run_program("""
            .text
start:  call sub
        li   r2, 2
        halt
sub:    li   r1, 1
        ret
""")
        assert machine.regs[1] == 1
        assert machine.regs[2] == 2

    def test_swapped_branch_bgt(self):
        machine = run_program("""
            .text
start:  li   r1, 5
        li   r2, 3
        bgt  r1, r2, big
        li   r3, 0
        halt
big:    li   r3, 1
        halt
""")
        assert machine.regs[3] == 1

    def test_beqz_branches_on_zero(self):
        machine = run_program("""
            .text
start:  beqz r1, taken
        halt
taken:  li   r2, 9
        halt
""")
        assert machine.regs[2] == 9

    def test_lpc_loads_text_label_index(self):
        machine = run_program("""
            .text
start:  lpc  r1, target
        jr   r1
        halt
target: li   r2, 4
        halt
""")
        assert machine.regs[2] == 4

    def test_char_immediates(self):
        machine = run_program(".text\nstart: li r1, 'A'\n out r1\n halt")
        assert machine.serial == b"A"

    def test_escaped_char_immediate(self):
        machine = run_program(".text\nstart: li r1, '\\n'\n out r1\n halt")
        assert machine.serial == b"\n"


class TestOperandParsing:
    def test_register_aliases(self):
        prog = assemble(".text\n addi sp, zero, 4\n addi ra, zero, 1")
        assert prog.rom[0].rd == 15
        assert prog.rom[1].rd == 14

    def test_bad_register_rejected(self):
        with pytest.raises(AssemblyError, match="bad register"):
            assemble(".text\n addi r16, zero, 0")

    def test_address_with_label_offset(self):
        machine = run_program("""
            .data
v:      .word 0
w:      .word 0
            .text
start:  li   r1, 3
        sw   r1, w(zero)
        lw   r2, w(zero)
        halt
""")
        assert machine.regs[2] == 3

    def test_address_label_plus_offset(self):
        machine = run_program("""
            .data
arr:    .word 0, 0
            .text
start:  li   r1, 9
        sw   r1, arr+4(zero)
        lw   r2, arr+4(zero)
        halt
""")
        assert machine.regs[2] == 9

    def test_label_as_offset_with_base_register(self):
        machine = run_program("""
            .data
arr:    .word 11, 22
            .text
start:  li   r3, 4
        lw   r1, arr(r3)
        halt
""")
        assert machine.regs[1] == 22

    def test_immediate_out_of_range_rejected(self):
        with pytest.raises(AssemblyError, match="16-bit range"):
            assemble(".text\n addi r1, zero, 70000")

    def test_shift_amount_out_of_range_rejected(self):
        with pytest.raises(AssemblyError, match="shift amount"):
            assemble(".text\n slli r1, r1, 32")

    def test_wrong_operand_count_rejected(self):
        with pytest.raises(AssemblyError, match="expected operands"):
            assemble(".text\n add r1, r2")

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(AssemblyError, match="unknown mnemonic"):
            assemble(".text\n frobnicate r1")

    def test_comments_are_stripped(self):
        prog = assemble(".text\n nop ; comment\n nop # other\n")
        assert len(prog.rom) == 2

    def test_instruction_in_data_segment_rejected(self):
        with pytest.raises(AssemblyError, match="data segment"):
            assemble(".data\n nop")

    def test_data_exceeding_ram_rejected(self):
        with pytest.raises(AssemblyError, match="exceeds RAM"):
            assemble(".data\n.space 100\n.text\nhalt", ram_size=50)


class TestDisassembly:
    def test_disassemble_lists_every_instruction(self):
        prog = assemble(".text\nstart: nop\n j start")
        listing = prog.disassemble()
        assert "start:" in listing
        assert listing.count("\n") == 1


def _reference_strip_comment(line: str) -> str:
    """The character loop ``Assembler._strip_comment`` falls back to for
    a line with a ``"``: the reference its fast path must agree with."""
    out = []
    in_string = False
    for ch in line:
        if ch == '"':
            in_string = not in_string
        if ch in ";#" and not in_string:
            break
        out.append(ch)
    return "".join(out)


def _reference_split_operands(rest: str, lineno: int) -> list[str]:
    """The character loop ``Assembler._split_operands`` falls back to
    for operands with a ``'``, or with a comma inside parentheses."""
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


def _split(split, rest):
    try:
        return split(rest, 1)
    except AssemblyError as exc:
        return str(exc)


class TestLineSplittingFastPaths:
    """``_strip_comment`` and ``_split_operands`` skip their character
    loops when nothing on the line needs them; the results must be the
    loops' own, quirks included."""

    def test_every_program_assembles_as_with_the_loops(self, monkeypatch):
        fast = {name: factory() for name, factory in all_programs().items()}
        monkeypatch.setattr(Assembler, "_strip_comment",
                            staticmethod(_reference_strip_comment))
        monkeypatch.setattr(Assembler, "_split_operands",
                            staticmethod(_reference_split_operands))
        reference = {name: factory()
                     for name, factory in all_programs().items()}
        assert len(fast) == 22
        for name, program in fast.items():
            assert program == reference[name], name
            assert program_fingerprint(program) \
                == program_fingerprint(reference[name]), name

    @pytest.mark.parametrize("rest, expected", [
        ("r1, r2, 3,", ["r1", "r2", "3"]),   # a trailing comma is dropped
        ("r1, ,r2", "line 1: empty operand"),
        (", r1", "line 1: empty operand"),
        ("r1,,", "line 1: empty operand"),
        ("  ", []),
    ])
    def test_operand_quirks(self, rest, expected):
        assert _split(Assembler._split_operands, rest) == expected
        assert _split(_reference_split_operands, rest) == expected

    def test_comment_marks_inside_a_string_are_kept(self):
        line = ' .ascii "a;b#c" ; real comment'
        assert Assembler._strip_comment(line) == ' .ascii "a;b#c" '
        assert Assembler._strip_comment("li r1, 1 # x ; y") == "li r1, 1 "

    @settings(max_examples=300, deadline=None)
    @given(line=st.text(alphabet=st.sampled_from(
        list("ab1 ,;#\"'()\t")), max_size=24))
    def test_fast_paths_agree_with_the_loops(self, line):
        assert Assembler._strip_comment(line) \
            == _reference_strip_comment(line)
        assert _split(Assembler._split_operands, line) \
            == _split(_reference_split_operands, line)


class _Forgetful(dict):
    """A statement memo that never remembers."""

    def __setitem__(self, key, value):
        pass


def _unmemoised(monkeypatch):
    """Assemble from here on with every statement parsed afresh."""
    reset = Assembler._reset

    def forgetful_reset(self):
        reset(self)
        self._parsed = _Forgetful()

    monkeypatch.setattr(Assembler, "_reset", forgetful_reset)


def _texts(program):
    return [instruction.text for instruction in program.rom]


class TestStatementMemo:
    """A repeated text statement re-emits what it parsed to; the
    program must be the one parsing every statement afresh builds."""

    def test_every_program_assembles_as_without_the_memo(self, monkeypatch):
        memoised = {name: factory()
                    for name, factory in all_programs().items()}
        _unmemoised(monkeypatch)
        reference = {name: factory()
                     for name, factory in all_programs().items()}
        assert len(memoised) == 22
        for name, program in memoised.items():
            assert program == reference[name], name
            assert _texts(program) == _texts(reference[name]), name

    def test_repeats_are_parsed_once(self, monkeypatch):
        parsed = []
        instruction = Assembler._instruction

        def counted(self, mnemonic, rest, stmt, lineno):
            parsed.append(stmt)
            instruction(self, mnemonic, rest, stmt, lineno)

        monkeypatch.setattr(Assembler, "_instruction", counted)
        program = assemble("li r1, 70000\nli r1, 70000\nli  r1, 70000\n"
                           "li r1, 70000\nhalt")
        assert parsed == ["li r1, 70000", "li  r1, 70000", "halt"]
        assert [i.op for i in program.rom] == [Op.LUI, Op.ORI] * 4 + [Op.HALT]

    SOURCE = """\
        .data
a:      .byte 1
v:      {}
        .byte 9
w:
        .text
start:  la   r1, w
        lbu  r2, w(zero)
        .data
        .align 4
        .word 7
        .text
        la   r1, w
        lbu  r2, w(zero)
        halt
"""

    @pytest.mark.parametrize("datum, before, after", [
        (".word 3", 9, 12), (".half 3", 5, 8), (".byte 3", 3, 4)])
    def test_a_data_label_moved_under_align(self, monkeypatch, datum,
                                            before, after):
        """``w`` is defined at an unaligned end, used, and carried
        across the padding of ``.align``: the same statements mean its
        new address the second time."""
        source = self.SOURCE.format(datum)
        program = assemble(source, ram_size=16)
        assert program.data_labels["w"] == after
        assert [i.imm for i in program.rom[:-1]] == [before] * 2 + [after] * 2
        _unmemoised(monkeypatch)
        assert assemble(source, ram_size=16) == program

    def test_an_equ_shadowing_a_data_label(self):
        """An ``.equ`` may not take a label's name, as a label may not
        take a constant's: the clash is refused in either order, so a
        name never changes its meaning between two repeats."""
        for source in (
                ".data\nx: .byte 5\n.text\nli r1, x\n.equ x, 9\nli r1, x\n",
                ".text\nx: nop\n.equ x, 9\n",
                ".equ x, 9\n.data\nx: .byte 5\n",
                ".equ x, 9\n.text\nx: nop\n"):
            with pytest.raises(AssemblyError, match="duplicate"):
                assemble(source, ram_size=4)

    def test_a_repeat_carries_its_own_line(self):
        assembler = Assembler()
        assembler.assemble("li r1, 70000\nnop\n\nli r1, 70000\nj end\n"
                           "end: j end")
        assert [p.lineno for p in assembler.pending] == [1, 1, 2, 4, 4, 5, 6]
        with pytest.raises(AssemblyError, match="line 2"):
            assemble("nop\nj nowhere\nj nowhere")

    def test_a_failed_statement_is_never_stored(self):
        """``li r1, later`` fails while ``later`` is undefined; a
        statement that failed ends the assembly, so nothing parses
        after it that could reuse it."""
        with pytest.raises(AssemblyError, match="line 1"):
            assemble("li r1, later\n.data\nlater: .byte 1\n.text\n"
                     "li r1, later")
        assembler = Assembler()
        with pytest.raises(AssemblyError):
            assembler.assemble("nop\nli r1, later")
        assert "li r1, later" not in assembler._parsed
        assert "nop" in assembler._parsed
