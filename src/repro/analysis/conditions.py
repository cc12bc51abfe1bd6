"""Reachability conditions: disjunctions of conjunctions of branch outcomes.

The paper (section 3.1 / appendix A.2) represents the condition under
which a program point executes as a set of sets of *branch conditions*
``B -> S`` ("run-time constant branch B takes successor S").  The outer
set is a disjunction, each inner set a conjunction.  ``{{}}`` (one empty
conjunction) is *true*; ``{}`` (no disjuncts) is *false* / unreachable.

Two conditions are mutually exclusive when every pair of disjuncts
contains contradictory atoms -- the test that lets a control-flow merge
use the idempotent phi rule even in unstructured graphs.

The worst-case size of a condition is exponential in the number of
constant branches (the paper notes sizes stay small in practice); a
disjunct-count cap widens oversized conditions to *true*, which is safe
(it only makes merges look non-exclusive, i.e. more conservative).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Tuple

from ..obs.metrics import registry as obs_metrics

#: One atom: the run-time-constant branch terminating block ``block``
#: goes to successor ``succ``.
Atom = Tuple[str, str]

#: A conjunction of atoms.
Conjunct = FrozenSet[Atom]

#: Maximum number of disjuncts before widening to TRUE.
MAX_DISJUNCTS = 64


@dataclass(frozen=True)
class Condition:
    """An immutable reachability condition in disjunctive normal form."""

    disjuncts: FrozenSet[Conjunct]

    def is_true(self) -> bool:
        return frozenset() in self.disjuncts

    def is_false(self) -> bool:
        return not self.disjuncts

    def __repr__(self) -> str:
        if self.is_false():
            return "false"
        parts = []
        for conj in sorted(self.disjuncts, key=sorted):
            if not conj:
                return "true"
            parts.append(
                "(" + " & ".join("%s->%s" % atom for atom in sorted(conj)) + ")"
            )
        return " | ".join(parts)


TRUE = Condition(frozenset([frozenset()]))
FALSE = Condition(frozenset())


def _conjunct_consistent(conj: Iterable[Atom]) -> bool:
    """False if the conjunct asserts two different outcomes for a branch."""
    seen: Dict[str, str] = {}
    for block, succ in conj:
        if block in seen and seen[block] != succ:
            return False
        seen[block] = succ
    return True


def and_atom(cond: Condition, atom: Atom) -> Condition:
    """``cond AND (B -> S)``: add the atom to every disjunct."""
    result = set()
    for conj in cond.disjuncts:
        extended = conj | {atom}
        if _conjunct_consistent(extended):
            result.add(frozenset(extended))
    return Condition(frozenset(result))


def or_(a: Condition, b: Condition, branch_arity: Dict[str, int]) -> Condition:
    """``a OR b`` with the paper's merge simplifications.

    ``branch_arity`` maps a constant branch's block name to its number
    of distinct successors, enabling the reduction
    ``{{A->s1,cs}, ..., {A->sn,cs}, ds} -> {{cs}, ds}`` when the
    outcomes s1..sn cover every successor of A.
    """
    return simplify(Condition(a.disjuncts | b.disjuncts), branch_arity)


def simplify(cond: Condition, branch_arity: Dict[str, int]) -> Condition:
    """Apply absorption and full-cover reduction until a fixpoint."""
    if obs_metrics._enabled:
        obs_metrics.counter("conditions.simplify_calls").inc()
        obs_metrics.histogram("conditions.disjuncts").observe(
            len(cond.disjuncts))
    if len(cond.disjuncts) <= 1:
        # Absorption needs two disjuncts, and a lone disjunct covers at
        # most one successor of each branch it names.
        if all(branch_arity.get(block, 2) > 1
               for conj in cond.disjuncts for block, _ in conj):
            return cond
    disjuncts = set(cond.disjuncts)
    changed = True
    while changed:
        changed = False
        # Absorption: a disjunct subsumed by a weaker (subset) one is gone.
        for conj in sorted(disjuncts, key=len):
            for other in disjuncts:
                if other is not conj and other < conj:
                    disjuncts.discard(conj)
                    changed = True
                    break
            if changed:
                break
        if changed:
            continue
        # Full-cover: if for some branch B every successor outcome occurs
        # with the same residue cs, the B atoms cancel out.
        by_residue: Dict[Tuple[Conjunct, str], set] = {}
        for conj in disjuncts:
            for atom in conj:
                block, succ = atom
                residue = conj - {atom}
                by_residue.setdefault((residue, block), set()).add(succ)
        for (residue, block), succs in by_residue.items():
            arity = branch_arity.get(block)
            if arity is not None and len(succs) >= arity:
                for succ in succs:
                    disjuncts.discard(residue | {(block, succ)})
                disjuncts.add(residue)
                changed = True
                break
    if len(disjuncts) > MAX_DISJUNCTS:
        return TRUE
    return Condition(frozenset(disjuncts))


def exclusive(a: Condition, b: Condition) -> bool:
    """True if ``a`` and ``b`` cannot hold simultaneously.

    Checked syntactically, as in the paper: every pair of disjuncts must
    contain contradictory atoms.  FALSE is exclusive with anything.
    """
    if obs_metrics._enabled:
        obs_metrics.counter("conditions.exclusive_checks").inc()
    if a.is_false() or b.is_false():
        return True
    for conj_a in a.disjuncts:
        for conj_b in b.disjuncts:
            if _conjunct_consistent(conj_a | conj_b):
                return False
    return True


def pairwise_exclusive(conditions: Iterable[Condition]) -> bool:
    """True if every pair of the given conditions is mutually exclusive."""
    items = list(conditions)
    for i, first in enumerate(items):
        for second in items[i + 1:]:
            if not exclusive(first, second):
                return False
    return True


def drop_branch(cond: Condition, block: str,
                branch_arity: Dict[str, int]) -> Condition:
    """Remove all atoms mentioning ``block`` (used when a branch loses
    its run-time-constant status during the combined fixpoint)."""
    disjuncts = set()
    for conj in cond.disjuncts:
        disjuncts.add(frozenset(a for a in conj if a[0] != block))
    return simplify(Condition(frozenset(disjuncts)), branch_arity)
