"""Algebraic simplification and CFG cleanup.

Algebraic identities rewrite cheap special cases (``x+0``, ``x*1``,
``x*0``, ``x-x``, ``x/1``, shifts by zero...).  CFG cleanup merges
straight-line block chains and threads trivial jumps, keeping the
printed IR and generated code small.

Static strength reduction (multiply by a literal power of two, etc.) is
deliberately *not* done here: the interesting strength reduction in
this system happens in the stitcher's value-based peepholes, where the
paper does it, so we keep a single implementation there.  (Literal
power-of-two divisions in statically compiled code are instead handled
by the code generator's lowering peepholes.)
"""

from __future__ import annotations

from typing import Optional

from ..ir.cfg import Function
from ..ir.instructions import Assign, BinOp, Jump, Phi, UnOp
from ..ir.values import IntConst, Temp, Value


def simplify_algebraic(func: Function) -> int:
    """Apply algebraic identities; returns the rewrite count."""
    changes = 0
    for block in func.blocks.values():
        instrs = block.instrs
        for index, instr in enumerate(instrs):
            # Every identity needs a literal operand or ``x op x``.
            if instr.__class__ is BinOp and (
                    instr.lhs.__class__ is IntConst
                    or instr.rhs.__class__ is IntConst
                    or instr.op in _SELF_OPS):
                replacement = _simplify_instr(instr)
                if replacement is not None:
                    instrs[index] = replacement
                    changes += 1
    return changes


#: operators with an ``x op x`` identity.
_SELF_OPS = frozenset(("sub", "and", "xor"))


def _zero(v: Value) -> bool:
    return isinstance(v, IntConst) and v.value == 0


def _one(v: Value) -> bool:
    return isinstance(v, IntConst) and v.value == 1


def _simplify_instr(instr: BinOp) -> Optional[Assign]:
    op, lhs, rhs = instr.op, instr.lhs, instr.rhs
    if op == "add":
        if _zero(rhs):
            return Assign(instr.dst, lhs)
        if _zero(lhs):
            return Assign(instr.dst, rhs)
    elif op == "sub":
        if _zero(rhs):
            return Assign(instr.dst, lhs)
        if isinstance(lhs, Temp) and lhs == rhs:
            return Assign(instr.dst, IntConst(0))
    elif op == "mul":
        if _one(rhs):
            return Assign(instr.dst, lhs)
        if _one(lhs):
            return Assign(instr.dst, rhs)
        if _zero(rhs) or _zero(lhs):
            return Assign(instr.dst, IntConst(0))
    elif op in ("div", "udiv"):
        if _one(rhs):
            return Assign(instr.dst, lhs)
    elif op in ("shl", "lshr", "ashr"):
        if _zero(rhs):
            return Assign(instr.dst, lhs)
    elif op in ("and",):
        if _zero(rhs) or _zero(lhs):
            return Assign(instr.dst, IntConst(0))
        if isinstance(lhs, Temp) and lhs == rhs:
            return Assign(instr.dst, lhs)
    elif op in ("or", "xor"):
        if _zero(rhs):
            return Assign(instr.dst, lhs)
        if _zero(lhs):
            return Assign(instr.dst, rhs)
        if op == "xor" and isinstance(lhs, Temp) and lhs == rhs:
            return Assign(instr.dst, IntConst(0))
    return None


def merge_blocks(func: Function) -> int:
    """Merge ``A -> jump B`` where B has exactly one predecessor.

    Skips pairs that region metadata treats as structurally meaningful
    (region entries/exits and unrolled-loop boundary blocks), so the
    splitter's assumptions survive.
    """
    protected = set()
    for region in func.regions:
        protected.add(region.entry)
        protected.add(region.exit)
        for loop in region.unrolled_loops:
            protected.add(loop.header)
            protected.add(loop.latch)
    merged = 0
    changed = True
    while changed:
        changed = False
        preds = func.predecessors()
        for name in list(func.blocks):
            block = func.blocks.get(name)
            if block is None or not isinstance(block.terminator, Jump):
                continue
            succ_name = block.terminator.target
            if succ_name == name or succ_name in protected:
                continue
            succ = func.blocks[succ_name]
            if len(preds[succ_name]) != 1 or succ.phis():
                continue
            if succ_name == func.entry:
                continue
            # Splice succ into block.
            block.terminator = None
            for instr in succ.all_instrs():
                block.append(instr)
            for other_succ in succ.successors():
                for phi in func.blocks[other_succ].phis():
                    if succ_name in phi.args:
                        phi.args[name] = phi.args.pop(succ_name)
            del func.blocks[succ_name]
            _rename_in_regions(func, succ_name, name)
            merged += 1
            changed = True
            break
    return merged


def _rename_in_regions(func: Function, old: str, new: str) -> None:
    for region in func.regions:
        if old in region.blocks:
            region.blocks.discard(old)
            region.blocks.add(new)
        for loop in region.unrolled_loops:
            if old in loop.body:
                loop.body.discard(old)
                loop.body.add(new)
            if loop.entry_pred == old:
                loop.entry_pred = new


def simplify_phis(func: Function) -> int:
    """Replace single-entry phis with copies."""
    changes = 0
    preds = func.predecessors()
    for name, block in func.blocks.items():
        if len(preds[name]) != 1:
            continue
        instrs = block.instrs
        for index, instr in enumerate(instrs):
            if not isinstance(instr, Phi):
                break
            (value,) = instr.args.values()
            instrs[index] = Assign(instr.dst, value)
            changes += 1
    return changes
