"""The static optimization pipeline.

Runs the standard global optimizations over an SSA-form function, in
rounds, until nothing changes.  Used both before the region splitter
(full-strength, as the paper runs Multiflow's optimizer) and -- with
``post_split=True`` -- after setup/template extraction, where the only
difference is that passes already honour hole barriers by construction
(holes never fold, never propagate, and value-number only to themselves
within the template subgraph).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.cfg import Function
from ..ir.ssa import eliminate_dead_phis
from ..obs import trace as obs_trace
from .copyprop import copy_propagation
from .cse import common_subexpression_elimination
from .dce import dead_code_elimination
from .fold import fold_constants
from .simplify import merge_blocks, simplify_algebraic, simplify_phis


@dataclass
class OptStats:
    """Counts of rewrites applied by each pass, for reporting/tests."""

    folds: int = 0
    copies: int = 0
    cse: int = 0
    algebraic: int = 0
    dead: int = 0
    merged_blocks: int = 0
    rounds: int = 0

    def total(self) -> int:
        return (self.folds + self.copies + self.cse + self.algebraic
                + self.dead + self.merged_blocks)


@dataclass
class OptOptions:
    """Pass toggles (used by ablation benchmarks)."""

    fold: bool = True
    copyprop: bool = True
    cse: bool = True
    algebraic: bool = True
    dce: bool = True
    merge: bool = True
    max_rounds: int = 8


def _dce_pass(func: Function) -> int:
    return dead_code_elimination(func) + eliminate_dead_phis(func)


#: (pass name, OptOptions toggle or None for always-on, OptStats field
#: or None for unattributed, pass function).  Order is the round order.
_PASS_ORDER = (
    ("fold", "fold", "folds", fold_constants),
    ("algebraic", "algebraic", "algebraic", simplify_algebraic),
    ("phis", None, None, simplify_phis),
    ("copyprop", "copyprop", "copies", copy_propagation),
    ("cse", "cse", "cse", common_subexpression_elimination),
    ("dce", "dce", "dead", _dce_pass),
    ("merge", "merge", "merged_blocks", merge_blocks),
)


def _ir_size(func: Function) -> int:
    """Instruction count incl. phis and terminators (trace size deltas)."""
    return sum(len(block.all_instrs()) for block in func.blocks.values())


def optimize(func: Function, options: OptOptions = OptOptions()) -> OptStats:
    """Optimize an SSA-form function in place; returns pass statistics.

    Runs the enabled passes in rounds, in ``_PASS_ORDER``, for at most
    ``options.max_rounds`` rounds.  A pass that returns 0 leaves the IR
    untouched, so once every enabled pass has run, in order, with no
    change since the last change, the IR is at its fixpoint and the
    loop stops: a further round would change nothing.
    """
    stats = OptStats()
    passes = [entry for entry in _PASS_ORDER
              if entry[1] is None or getattr(options, entry[1])]
    unchanged = 0
    while stats.rounds < options.max_rounds and unchanged < len(passes):
        for name, _, stat_field, pass_fn in passes:
            if obs_trace._current is None:
                n = pass_fn(func)
            else:
                with obs_trace.span("opt." + name, "opt",
                                    func=func.name,
                                    round=stats.rounds) as span:
                    before = _ir_size(func)
                    n = pass_fn(func)
                    span["rewrites"] = n
                    span["instrs_before"] = before
                    span["instrs_after"] = _ir_size(func)
            if n:
                if stat_field is not None:
                    setattr(stats, stat_field, getattr(stats, stat_field) + n)
                unchanged = 0
            else:
                unchanged += 1
                if unchanged == len(passes):
                    break
        stats.rounds += 1
    func.verify()
    return stats
