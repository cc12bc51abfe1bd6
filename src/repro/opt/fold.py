"""Constant folding and propagation over SSA form.

Folds operations whose operands are literals, propagates the results,
and folds branches with literal predicates (removing the dead sides).
Trapping operations with a zero divisor are left in place so run-time
behaviour is preserved.

Template holes (:class:`~repro.ir.values.HoleRef`) are constants of
*unknown* value, so nothing involving them folds here; the stitcher
folds them at dynamic-compile time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from ..ir.cfg import Function
from ..ir.instructions import (
    Assign, BinOp, CondBr, Jump, Phi, Switch, UnOp,
)
from ..ir.semantics import EvalTrap, eval_binop, eval_unop
from ..ir.values import FloatConst, IntConst, Temp, Value

_Literal = Union[IntConst, FloatConst]


#: the literal value classes (no subclasses exist, so a class test
#: is an isinstance test).
_LITERALS = (IntConst, FloatConst)


def _as_literal(value: Value) -> Optional[_Literal]:
    if value.__class__ in _LITERALS:
        return value  # type: ignore[return-value]
    return None


def _make_literal(value: Union[int, float]) -> _Literal:
    if isinstance(value, float):
        return FloatConst(value)
    return IntConst(value)


def fold_constants(func: Function) -> int:
    """Fold and propagate literal computations; returns a change count."""
    changes = 0
    known: Dict[Value, Value] = {}
    rpo = func.rpo()
    acyclic = _acyclic(func, rpo)
    # Iterate to a fixpoint: SSA guarantees each name is defined once, so
    # a reverse-postorder sweep converges quickly; loops may need two.
    # The order changes only when a branch folds.  Without a back edge,
    # every definition and predecessor a block depends on comes before
    # it in the order, so one sweep reaches the fixpoint -- unless it
    # turned a phi into a copy, which the next sweep may fold.
    for _ in range(len(func.blocks) + 2):
        round_changes = 0
        folded_branch = False
        folded_phi = False
        for name in rpo:
            block = func.blocks[name]
            # Phis stay a leading run: a phi folded to an Assign joins
            # the rest of the block, after every surviving phi.
            new_phis = []
            new_instrs = []
            block_changes = 0
            for instr in block.instrs:
                if known:
                    instr.replace_uses(known)
                cls = instr.__class__
                if cls is Assign:
                    if instr.src.__class__ in _LITERALS:
                        known[instr.dst] = instr.src
                        block_changes += 1
                        continue
                elif cls is BinOp:
                    lhs, rhs = instr.lhs, instr.rhs
                    if lhs.__class__ in _LITERALS \
                            and rhs.__class__ in _LITERALS:
                        try:
                            result = eval_binop(instr.op, lhs.value, rhs.value)
                        except EvalTrap:
                            new_instrs.append(instr)
                            continue
                        known[instr.dst] = _make_literal(result)
                        block_changes += 1
                        continue
                elif cls is UnOp:
                    src = instr.src
                    if src.__class__ in _LITERALS:
                        result = eval_unop(instr.op, src.value)
                        known[instr.dst] = _make_literal(result)
                        block_changes += 1
                        continue
                elif cls is Phi:
                    values = list(instr.args.values())
                    if values and all(v == values[0] for v in values[1:]):
                        first = values[0]
                        if not (isinstance(first, Temp)
                                and first.name == instr.dst.name):
                            new_instrs.append(Assign(instr.dst, first))
                            block_changes += 1
                            folded_phi = True
                            continue
                    new_phis.append(instr)
                    continue
                new_instrs.append(instr)
            if block_changes:
                block.instrs = new_phis + new_instrs
                round_changes += block_changes
            term = block.terminator
            if term is not None and known:
                term.replace_uses(known)
            if isinstance(term, CondBr):
                lit = _as_literal(term.cond)
                if lit is not None:
                    target = term.if_true if lit.value != 0 else term.if_false
                    block.terminator = Jump(target)
                    _remove_phi_edges(func, name, term, keep=target)
                    round_changes += 1
                    folded_branch = True
            elif isinstance(term, Switch):
                lit = _as_literal(term.value)
                if lit is not None:
                    target = term.default
                    for case_value, label in term.cases:
                        if case_value == int(lit.value):
                            target = label
                            break
                    block.terminator = Jump(target)
                    _remove_phi_edges(func, name, term, keep=target)
                    round_changes += 1
                    folded_branch = True
        changes += round_changes
        if round_changes == 0 or (acyclic and not folded_phi):
            break
        if folded_branch:
            rpo = func.rpo()
    if changes:
        for region in func.regions:
            if region.const_temps is not None:
                region.const_temps = [known.get(v, v)
                                      for v in region.const_temps]
            if region.key_temps is not None:
                region.key_temps = [known.get(v, v)
                                    for v in region.key_temps]
        func.remove_unreachable_blocks()
    return changes


def _acyclic(func: Function, rpo: List[str]) -> bool:
    """True if no edge goes back to a block at or before its source in
    ``rpo``."""
    index = {name: i for i, name in enumerate(rpo)}
    for i, name in enumerate(rpo):
        for succ in func.blocks[name].successors():
            if index[succ] <= i:
                return False
    return True


def _remove_phi_edges(func: Function, pred: str, old_term, keep: str) -> None:
    """After folding a branch, drop ``pred``'s phi edges into the
    no-longer-reached successors."""
    for succ in set(old_term.successors()):
        if succ == keep or succ not in func.blocks:
            continue
        for phi in func.blocks[succ].phis():
            phi.args.pop(pred, None)
