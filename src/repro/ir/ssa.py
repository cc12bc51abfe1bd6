"""SSA construction and destruction.

Construction is semi-pruned SSA (Briggs, Cooper, Harvey & Simpson,
"Practical Improvements to the Construction and Destruction of Static
Single Assignment Form", 1998): phis are placed at iterated dominance
frontiers (Cytron et al.) only for the names some block reads before it
defines them, followed by a dominator-tree renaming walk.  A name that
every block defines before reading it is never live across a block
boundary, so minimal placement would only give it phis that dead-phi
elimination deletes.  The paper's analyses assume dynamic regions are
in SSA form (section 3.1), so the whole function is converted before
analysis.

While renaming, the SSA versions of each dynamic region's annotated
constant and key variables that reach the region entry are recorded on
the region metadata (``const_temps`` / ``key_temps``); the run-time
constants analysis seeds its initial set from them, and the dispatch
code the splitter adds reads them at the region entry.  So those
variables count as read at the region entry when placing phis, and
their recorded values stay live through dead-code elimination (see
:func:`region_value_names`).

Destruction splits critical edges and lowers phis to parallel copies in
predecessor blocks, sequentialized with a scratch temp to handle the
swap problem.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Set, Tuple

from .cfg import BasicBlock, Function
from .dominance import DominatorTree
from .instructions import Assign, Phi
from .values import FloatConst, IntConst, Temp, Value


def base_name(name: str) -> str:
    """Strip an SSA version suffix: ``x.3`` -> ``x``."""
    dot = name.rfind(".")
    if dot > 0 and name[dot + 1:].isdigit():
        return name[:dot]
    return name


def region_value_names(func: Function) -> Set[str]:
    """Names of the temps recorded as a region's constant or key values.

    The splitter's dispatch code (``RegionLookup`` / ``RegionStitch``)
    and set-up code read them after optimization, so dead-code
    elimination counts them as used even when no instruction does yet.
    """
    names: Set[str] = set()
    for region in func.regions:
        for values in (region.const_temps, region.key_temps):
            for value in values or ():
                if isinstance(value, Temp):
                    names.add(value.name)
    return names


def to_ssa(func: Function) -> None:
    """Convert ``func`` to SSA form in place."""
    func.remove_unreachable_blocks()
    dom = DominatorTree(func)
    preds = dom.preds
    blocks = func.blocks

    # 1. Definition sites per name, and the names some block reads
    #    before it defines them.  A region's constant and key variables
    #    count as read at the region entry.
    def_blocks: Dict[str, Set[str]] = {}
    upward_exposed: Set[str] = set()
    redefined: Set[str] = set()
    for name, block in blocks.items():
        defined: Set[str] = set()
        for instr in block.all_instrs():
            for used in instr.uses():
                if isinstance(used, Temp) and used.name not in defined:
                    upward_exposed.add(used.name)
            dst = instr.defs()
            if dst is not None:
                if dst.name in defined:
                    redefined.add(dst.name)
                defined.add(dst.name)
                def_blocks.setdefault(dst.name, set()).add(name)
    assert func.entry is not None
    for region in func.regions:
        upward_exposed.update(region.const_vars)
        upward_exposed.update(region.key_vars)
    # A name defined once and read only after that definition, in its
    # block, is already in SSA form: it keeps its name.  Except a name
    # that would then sort differently against another one than its
    # versioned form does ("x" sorts before "x$1.2", "x.1" after it):
    # the splitter orders table slots by name.
    shadowed = {name[:i]
                for name in itertools.chain(def_blocks, upward_exposed,
                                            (p.name for p in func.params))
                for i, char in enumerate(name) if char == "$"}
    keep = {var for var, def_sites in def_blocks.items()
            if len(def_sites) == 1 and var not in upward_exposed
            and var not in redefined and var not in shadowed}
    for param in func.params:
        def_blocks.setdefault(param.name, set()).add(func.entry)
        keep.discard(param.name)

    # 2. Phi placement at iterated dominance frontiers, for those names.
    phi_vars: Dict[str, List[str]] = {}
    for var in upward_exposed:
        def_sites = def_blocks.get(var)
        if not def_sites:
            continue
        work = list(def_sites)
        placed: Set[str] = set()
        while work:
            block_name = work.pop()
            for frontier_block in dom.frontier[block_name]:
                if frontier_block in placed:
                    continue
                placed.add(frontier_block)
                phi_vars.setdefault(frontier_block, []).append(var)
                if frontier_block not in def_sites:
                    work.append(frontier_block)
    #: block -> its phis with their variables, for filling phi arguments.
    block_phis: Dict[str, List[Tuple[Phi, str]]] = {}
    for name, variables in phi_vars.items():
        variables.sort()
        new_phis = [
            Phi(Temp(var), {p: Temp(var) for p in preds[name]})
            for var in variables
        ]
        blocks[name].instrs[0:0] = new_phis
        block_phis[name] = list(zip(new_phis, variables))

    # 3. Renaming walk over the dominator tree.
    counters: Dict[str, int] = {}
    stacks: Dict[str, List[Temp]] = {}
    temp_types = func.temp_types
    region_entries = {region.entry: region for region in func.regions}

    def lookup(var: str) -> Value:
        stack = stacks.get(var)
        if stack:
            return stack[-1]
        # A use on a path with no reaching definition; MiniC zero-inits
        # declared variables, so this only occurs on dead paths.
        if temp_types.get(var) == "float":
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
    walk: List[Tuple[str, Optional[List[str]]]] = [(func.entry, None)]
    while walk:
        name, pushed = walk.pop()
        if pushed is not None:
            for var in pushed:
                stacks[var].pop()
            continue
        block = blocks[name]
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
                mapping: Dict[Value, Value] = {
                    used: lookup(used.name) for used in instr.uses()
                    if isinstance(used, Temp) and used.name not in keep}
                if mapping:
                    instr.replace_uses(mapping)
            dst = instr.defs()
            if dst is not None and dst.name not in keep:
                var = dst.name
                version = counters.get(var, 0) + 1
                counters[var] = version
                new = Temp("%s.%d" % (var, version))
                temp_types[new.name] = temp_types.get(var, "int")
                stack = stacks.get(var)
                if stack is None:
                    stacks[var] = [new]
                else:
                    stack.append(new)
                pushed.append(var)
                instr.dst = new  # type: ignore[attr-defined]

        for succ in dict.fromkeys(block.successors()):
            for phi, var in block_phis.get(succ, ()):
                phi.args[name] = lookup(var)

        walk.append((name, pushed))
        walk.extend((child, None) for child in reversed(dom.children[name]))

    if block_phis:
        eliminate_dead_phis(func)


def eliminate_dead_phis(func: Function) -> int:
    """Remove phis never used by non-phi code (transitively) nor
    recorded as a region's constant or key value.  Returns the number
    removed."""
    phi_blocks = [block for block in func.blocks.values()
                  if block.instrs and isinstance(block.instrs[0], Phi)]
    if not phi_blocks:
        return 0
    used = region_value_names(func)
    for block in func.blocks.values():
        for instr in block.all_instrs():
            if isinstance(instr, Phi):
                continue
            for value in instr.uses():
                if isinstance(value, Temp):
                    used.add(value.name)
    # Propagate usefulness through phi arguments.
    phis: Dict[str, Phi] = {}
    for block in phi_blocks:
        for phi in block.phis():
            phis[phi.dst.name] = phi
    work = [name for name in phis if name in used]
    while work:
        for value in phis[work.pop()].args.values():
            if isinstance(value, Temp) and value.name not in used:
                used.add(value.name)
                if value.name in phis:
                    work.append(value.name)
    removed = 0
    for block in phi_blocks:
        kept = [instr for instr in block.instrs
                if not (isinstance(instr, Phi) and instr.dst.name not in used)]
        if len(kept) != len(block.instrs):
            removed += len(block.instrs) - len(kept)
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
