"""Global common subexpression elimination (dominator-based value
numbering) over SSA form.

Pure computations (binary/unary operations and frame-address
calculations) that recompute an expression already available in a
dominating block are replaced with the earlier result.  Loads are not
value-numbered (no alias analysis here); the run-time constants
analysis -- not CSE -- is what removes constant loads, matching the
paper's division of labour.

``HoleRef`` operands participate in value numbering: two instructions
reading the same table slot compute the same (unknown) constant, which
is exactly the "hole markers are compile-time constants of unknown
value" treatment the paper prescribes.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..ir.builder import FrameAddr
from ..ir.cfg import Function
from ..ir.dominance import DominatorTree
from ..ir.instructions import Assign, BinOp, COMMUTATIVE_OPS, UnOp
from ..ir.values import Value


def common_subexpression_elimination(func: Function) -> int:
    """Dominator-tree scoped value numbering; returns replacements made."""
    if func.entry is None:
        return 0
    dom = DominatorTree(func)
    replaced = 0
    region_entries = {region.entry for region in func.regions}
    # A preorder walk of the dominator tree on an explicit stack; each
    # block starts from a copy of its dominator's table.
    walk: List[Tuple[str, Dict[Tuple, Value]]] = [(func.entry, {})]
    while walk:
        block_name, table = walk.pop()
        if block_name in region_entries:
            # Do not reuse pre-region values inside the region: a value
            # recomputed from annotated constants *inside* the region is
            # a run-time constant there, the hoisted copy is not.
            table = {}
        else:
            table = dict(table)
        block = func.blocks[block_name]
        new_instrs = []
        for instr in block.instrs:
            key = _key_of(instr)
            if key is not None:
                if key in table:
                    new_instrs.append(Assign(instr.defs(), table[key]))
                    replaced += 1
                    continue
                table[key] = instr.defs()
            new_instrs.append(instr)
        block.instrs = new_instrs
        walk.extend((child, table)
                    for child in reversed(dom.children[block_name]))
    return replaced


def _key_of(instr):
    if isinstance(instr, BinOp):
        lhs, rhs = instr.lhs, instr.rhs
        if instr.op in COMMUTATIVE_OPS and repr(rhs) < repr(lhs):
            lhs, rhs = rhs, lhs
        return ("bin", instr.op, lhs, rhs)
    if isinstance(instr, UnOp):
        return ("un", instr.op, instr.src)
    if isinstance(instr, FrameAddr):
        return ("frame", instr.offset)
    return None
