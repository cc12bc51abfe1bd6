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

from typing import Dict, Optional, Union

from ..ir.cfg import Function
from ..ir.instructions import (
    Assign, BinOp, CondBr, Jump, Phi, Switch, UnOp,
)
from ..ir.semantics import EvalTrap, eval_binop, eval_unop
from ..ir.values import FloatConst, IntConst, Temp, Value

_Literal = Union[IntConst, FloatConst]


def _as_literal(value: Value) -> Optional[_Literal]:
    if isinstance(value, (IntConst, FloatConst)):
        return value
    return None


def _make_literal(value: Union[int, float]) -> _Literal:
    if isinstance(value, float):
        return FloatConst(value)
    return IntConst(value)


def fold_constants(func: Function) -> int:
    """Fold and propagate literal computations; returns a change count."""
    changes = 0
    known: Dict[Value, Value] = {}
    # Iterate to a fixpoint: SSA guarantees each name is defined once, so
    # a reverse-postorder sweep converges quickly; loops may need two.
    for _ in range(len(func.blocks) + 2):
        round_changes = 0
        for name in func.rpo():
            block = func.blocks[name]
            # Phis stay a leading run: a phi folded to an Assign joins
            # the rest of the block, after every surviving phi.
            new_phis = []
            new_instrs = []
            for instr in block.instrs:
                if known:
                    instr.replace_uses(known)
                if isinstance(instr, Assign):
                    lit = _as_literal(instr.src)
                    if lit is not None:
                        known[instr.dst] = lit
                        round_changes += 1
                        continue
                elif isinstance(instr, BinOp):
                    lhs = _as_literal(instr.lhs)
                    rhs = _as_literal(instr.rhs)
                    if lhs is not None and rhs is not None:
                        try:
                            result = eval_binop(instr.op, lhs.value, rhs.value)
                        except EvalTrap:
                            new_instrs.append(instr)
                            continue
                        known[instr.dst] = _make_literal(result)
                        round_changes += 1
                        continue
                elif isinstance(instr, UnOp):
                    src = _as_literal(instr.src)
                    if src is not None:
                        result = eval_unop(instr.op, src.value)
                        known[instr.dst] = _make_literal(result)
                        round_changes += 1
                        continue
                elif isinstance(instr, Phi):
                    values = list(instr.args.values())
                    if values and all(v == values[0] for v in values[1:]):
                        first = values[0]
                        if not (isinstance(first, Temp)
                                and first.name == instr.dst.name):
                            new_instrs.append(Assign(instr.dst, first))
                            round_changes += 1
                            continue
                    new_phis.append(instr)
                    continue
                new_instrs.append(instr)
            block.instrs = new_phis + new_instrs
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
        changes += round_changes
        if round_changes == 0:
            break
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


def _remove_phi_edges(func: Function, pred: str, old_term, keep: str) -> None:
    """After folding a branch, drop ``pred``'s phi edges into the
    no-longer-reached successors."""
    for succ in set(old_term.successors()):
        if succ == keep or succ not in func.blocks:
            continue
        for phi in func.blocks[succ].phis():
            phi.args.pop(pred, None)
