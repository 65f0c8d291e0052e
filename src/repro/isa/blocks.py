"""Basic blocks of a program's ROM, computed once per program.

A *leader* is the entry point, pc 0, an in-range branch or ``jal``
target, or the successor of a control transfer; a block runs from a
leader to the next one, so blocks tile the ROM and each ends in at most
one control transfer, its last instruction.

A *block boundary* is a cycle after which the next pc starts a block
(a leader, or the end of the ROM), or after which the instruction just
executed transferred control (a ``jalr`` can land inside a block).
It is the one place where a block-granular engine can stop, so the
compiled engine's code generation, the interpreter's
:meth:`~repro.isa.cpu.Machine.run_to_boundary`, the golden checkpoint
ladder and the section map all read the same :class:`Blocks` of a
program (:func:`program_blocks`).
"""

from __future__ import annotations

from typing import NamedTuple

from .isa import Op

#: Branches: conditional pc change, fall through otherwise.
BRANCH_OPS = frozenset({Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU})
#: All control transfers — they terminate a basic block.
CONTROL_OPS = BRANCH_OPS | {Op.JAL, Op.JALR, Op.HALT}


class Blocks(NamedTuple):
    """The block structure of one ROM."""

    #: Ascending block-leader pcs, all inside the ROM.
    leaders: tuple[int, ...]
    #: ``ends[pc]``: one past the last pc of ``pc``'s block (the next
    #: leader, or the ROM's length).  Executing ``pc`` and arriving at
    #: ``next`` ends a block iff ``next != pc + 1 or next == ends[pc]``.
    ends: tuple[int, ...]


def block_leaders(rom, entry: int) -> tuple[int, ...]:
    """The ascending leader pcs of ``rom`` entered at ``entry``."""
    n = len(rom)
    leaders = {0}
    if 0 <= entry < n:
        leaders.add(entry)
    for pc, ins in enumerate(rom):
        op = ins.op
        if (op in BRANCH_OPS or op is Op.JAL) and 0 <= ins.imm < n:
            leaders.add(ins.imm)
        if op in CONTROL_OPS and pc + 1 < n:
            leaders.add(pc + 1)
    return tuple(sorted(pc for pc in leaders if pc < n))


def program_blocks(program) -> Blocks:
    """``program``'s :class:`Blocks`, computed on first use.

    Cached on the program object beside the compiled engine's artifact,
    outside its fields, so outside ``==``, fingerprints and pickles.
    """
    blocks = program.__dict__.get("_blocks")
    if blocks is None:
        leaders = block_leaders(program.rom, program.entry)
        ends = []
        for start, end in zip(leaders, leaders[1:] + (len(program.rom),)):
            ends += [end] * (end - start)
        blocks = program.__dict__["_blocks"] = Blocks(leaders, tuple(ends))
    return blocks
