"""SSA construction with minimal phi placement, as it was before
semi-pruned placement.

A test-only reference: the differential property in
``test_property_middle_end.py`` checks that programs compiled with the
shipped :func:`repro.ir.ssa.to_ssa` and with this :func:`to_ssa`
produce the same words.  It places a phi for every name at the iterated dominance
frontier of its definitions (Cytron et al.), renames, then calls the
shipped :func:`~repro.ir.ssa.eliminate_dead_phis`.  Nothing under
``src/`` imports it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir.cfg import Function
from repro.ir.dominance import DominatorTree
from repro.ir.instructions import Phi
from repro.ir.ssa import base_name, eliminate_dead_phis
from repro.ir.values import FloatConst, IntConst, Temp, Value


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

    def lookup(var: str) -> Value:
        stack = stacks.get(var)
        if stack:
            return stack[-1]
        if func.temp_types.get(var) == "float":
            return FloatConst(0.0)
        return IntConst(0)

    for param in func.params:
        stacks.setdefault(param.name, []).append(param)

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
            region.const_temps = [lookup(v) for v in region.const_vars]
            region.key_temps = [lookup(v) for v in region.key_vars]

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
                instr.dst = new  # type: ignore[attr-defined]

        for succ in block.successors():
            for phi in func.blocks[succ].phis():
                var = base_name(phi.dst.name)
                arg = phi.args.get(name)
                if isinstance(arg, Temp) and arg.name == var:
                    phi.args[name] = lookup(var)

        walk.append((name, pushed))
        walk.extend((child, None) for child in reversed(dom.children[name]))

    eliminate_dead_phis(func)
