"""Dead code elimination over SSA form.

Removes instructions whose results are unused and which have no side
effects (stores, impure calls and terminators always stay).  Iterates
because removing one use can kill the instruction feeding it.  A temp
recorded as a region's constant or key value counts as used: the
splitter's dispatch code reads it later.
"""

from __future__ import annotations

from typing import List

from ..ir.builder import FrameAddr
from ..ir.cfg import Function
from ..ir.instructions import (
    Assign, BinOp, Call, Instr, Load, Phi, UnOp,
)
from ..ir.ssa import region_value_names
from ..ir.values import Temp

_REMOVABLE = (Assign, BinOp, UnOp, Load, Phi, FrameAddr)


def dead_code_elimination(func: Function) -> int:
    """Delete dead instructions; returns the number removed."""
    removed = 0
    while True:
        used = region_value_names(func)
        removable: List[Instr] = []
        for block in func.blocks.values():
            for instr in block.all_instrs():
                for value in instr.uses():
                    if value.__class__ is Temp:
                        used.add(value.name)
                cls = instr.__class__
                if cls in _REMOVABLE or (cls is Call and instr.pure):
                    removable.append(instr)
        dead = {id(instr) for instr in removable
                if instr.dst is not None and instr.dst.name not in used}
        if not dead:
            return removed
        for block in func.blocks.values():
            kept = [instr for instr in block.instrs if id(instr) not in dead]
            if len(kept) != len(block.instrs):
                block.instrs = kept
        removed += len(dead)
