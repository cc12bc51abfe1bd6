"""SSA construction and destruction.

Construction is the classic Cytron et al. algorithm (phi placement at
iterated dominance frontiers, then a dominator-tree renaming walk).
The paper's analyses assume dynamic regions are in SSA form (section
3.1), so the whole function is converted before analysis.

While renaming, the SSA versions of each dynamic region's annotated
constant and key variables that reach the region entry are recorded on
the region metadata (``const_temps`` / ``key_temps``); the run-time
constants analysis seeds its initial set from them.

Destruction splits critical edges and lowers phis to parallel copies in
predecessor blocks, sequentialized with a scratch temp to handle the
swap problem.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .cfg import BasicBlock, Function
from .dominance import DominatorTree
from .instructions import Assign, Instr, Phi
from .values import FloatConst, IntConst, Temp, Value


def base_name(name: str) -> str:
    """Strip an SSA version suffix: ``x.3`` -> ``x``."""
    dot = name.rfind(".")
    if dot > 0 and name[dot + 1:].isdigit():
        return name[:dot]
    return name


def to_ssa(func: Function) -> None:
    """Convert ``func`` to SSA form in place."""
    func.remove_unreachable_blocks()
    dom = DominatorTree(func)
    preds = dom.preds

    # 1. Collect definition sites per variable.
    def_blocks: Dict[str, Set[str]] = {}
    for name, block in func.blocks.items():
        for instr in block.all_instrs():
            dst = instr.defs()
            if dst is not None:
                def_blocks.setdefault(dst.name, set()).add(name)
    for param in func.params:
        assert func.entry is not None
        def_blocks.setdefault(param.name, set()).add(func.entry)

    # 2. Phi placement at iterated dominance frontiers.
    phi_vars: Dict[str, Set[str]] = {name: set() for name in func.blocks}
    for var, blocks in def_blocks.items():
        if len(blocks) == 0:
            continue
        work = list(blocks)
        placed: Set[str] = set()
        while work:
            block = work.pop()
            for frontier_block in dom.frontier[block]:
                if frontier_block in placed:
                    continue
                placed.add(frontier_block)
                phi_vars[frontier_block].add(var)
                if frontier_block not in blocks:
                    work.append(frontier_block)
    for name, variables in phi_vars.items():
        block = func.blocks[name]
        new_phis = [
            Phi(Temp(var), {p: Temp(var) for p in preds[name]})
            for var in sorted(variables)
        ]
        block.instrs[0:0] = new_phis

    # 3. Renaming walk over the dominator tree.
    counters: Dict[str, int] = {}
    stacks: Dict[str, List[Temp]] = {}
    region_entries = {region.entry: region for region in func.regions}

    def fresh(var: str) -> Temp:
        counters[var] = counters.get(var, 0) + 1
        new = Temp("%s.%d" % (var, counters[var]))
        func.temp_types[new.name] = func.temp_types.get(var, "int")
        return new

    def top(var: str) -> Optional[Temp]:
        stack = stacks.get(var)
        if stack:
            return stack[-1]
        return None

    def lookup(var: str) -> Value:
        current = top(var)
        if current is not None:
            return current
        # A use on a path with no reaching definition; MiniC zero-inits
        # declared variables, so this only occurs on dead paths.
        if func.temp_types.get(var) == "float":
            return FloatConst(0.0)
        return IntConst(0)

    # Parameters are "defined" at entry with their own names.
    for param in func.params:
        stacks.setdefault(param.name, []).append(param)

    # A preorder walk of the dominator tree on an explicit stack (a
    # self-recursive nested function would tie a reference cycle
    # through its own closure cell, keeping the IR alive until the
    # cyclic collector runs).  An item is (block, None) to rename the
    # block, or (block, pushed) to pop the versions it pushed once its
    # subtree is done.
    assert func.entry is not None
    walk: List[Tuple[str, Optional[List[str]]]] = [(func.entry, None)]
    while walk:
        name, pushed = walk.pop()
        if pushed is not None:
            for var in pushed:
                stacks[var].pop()
            continue
        block = func.blocks[name]
        pushed = []

        region = region_entries.get(name)
        if region is not None:
            region.const_temps = [
                lookup(v) for v in region.const_vars
            ]
            region.key_temps = [
                lookup(v) for v in region.key_vars
            ]

        for instr in block.all_instrs():
            if not isinstance(instr, Phi):
                mapping: Dict[Value, Value] = {}
                for used in instr.uses():
                    if isinstance(used, Temp):
                        mapping[used] = lookup(used.name)
                if mapping:
                    instr.replace_uses(mapping)
            dst = instr.defs()
            if dst is not None:
                new = fresh(dst.name)
                stacks.setdefault(dst.name, []).append(new)
                pushed.append(dst.name)
                _set_def(instr, new)

        for succ in block.successors():
            for phi in func.blocks[succ].phis():
                var = base_name(phi.dst.name)
                # The phi may already be renamed if succ was visited; the
                # argument slot for this predecessor still holds Temp(var).
                arg = phi.args.get(name)
                if isinstance(arg, Temp) and arg.name == var:
                    phi.args[name] = lookup(var)

        walk.append((name, pushed))
        walk.extend((child, None) for child in reversed(dom.children[name]))

    eliminate_dead_phis(func)


def _set_def(instr: Instr, new: Temp) -> None:
    if hasattr(instr, "dst"):
        instr.dst = new  # type: ignore[attr-defined]
    else:
        raise ValueError("instruction %r has no destination" % instr)


def eliminate_dead_phis(func: Function) -> int:
    """Remove phis never used by non-phi code (transitively).  Returns
    the number removed."""
    used: Set[str] = set()
    for block in func.blocks.values():
        for instr in block.all_instrs():
            if isinstance(instr, Phi):
                continue
            for value in instr.uses():
                if isinstance(value, Temp):
                    used.add(value.name)
    # Propagate usefulness through phi arguments.
    changed = True
    while changed:
        changed = False
        for block in func.blocks.values():
            for phi in block.phis():
                if phi.dst.name in used:
                    for value in phi.args.values():
                        if isinstance(value, Temp) and value.name not in used:
                            used.add(value.name)
                            changed = True
    removed = 0
    for block in func.blocks.values():
        kept: List[Instr] = []
        for instr in block.instrs:
            if isinstance(instr, Phi) and instr.dst.name not in used:
                removed += 1
            else:
                kept.append(instr)
        block.instrs = kept
    return removed


def from_ssa(func: Function) -> List[tuple]:
    """Destroy SSA form: lower phis to copies in predecessors.

    Returns the critical-edge split records (see
    :meth:`Function.split_critical_edges`) so region plans can update
    their block-membership sets.
    """
    split_records = func.split_critical_edges()
    preds = func.predecessors()
    for name in list(func.blocks):
        block = func.blocks[name]
        phis = block.phis()
        if not phis:
            continue
        for pred_name in preds[name]:
            pred = func.blocks[pred_name]
            copies: List[Tuple[Temp, Value]] = []
            for phi in phis:
                value = phi.args[pred_name]
                if not (isinstance(value, Temp) and value.name == phi.dst.name):
                    copies.append((phi.dst, value))
            _insert_parallel_copies(func, pred, copies)
        block.instrs = block.instrs[len(phis):]
    return split_records


def _insert_parallel_copies(func: Function, block: BasicBlock,
                            copies: List[Tuple[Temp, Value]]) -> None:
    """Append ``copies`` (parallel semantics) as sequential Assigns."""
    pending = list(copies)
    insert_at = len(block.instrs)
    emitted: List[Assign] = []
    while pending:
        progress = False
        for i, (dst, src) in enumerate(pending):
            others = pending[:i] + pending[i + 1:]
            read_later = any(
                isinstance(osrc, Temp) and osrc.name == dst.name
                for _, osrc in others
            )
            if not read_later:
                emitted.append(Assign(dst, src))
                pending.pop(i)
                progress = True
                break
        if not progress:
            # A cycle: break it with a scratch temp.
            dst, src = pending[0]
            scratch = func.new_temp(func.temp_types.get(dst.name, "int"),
                                    prefix="swap")
            emitted.append(Assign(scratch, dst))
            for j, (odst, osrc) in enumerate(pending):
                if isinstance(osrc, Temp) and osrc.name == dst.name:
                    pending[j] = (odst, scratch)
    block.instrs[insert_at:insert_at] = emitted


def is_ssa(func: Function) -> bool:
    """True if every temp has at most one definition."""
    seen: Set[str] = set()
    for block in func.blocks.values():
        for instr in block.all_instrs():
            dst = instr.defs()
            if dst is not None:
                if dst.name in seen:
                    return False
                seen.add(dst.name)
    return True
