"""The paper-style flat directive stream (Table 1).

The stitcher in this reproduction works from structured per-block
templates, but the paper presents the static-compiler/stitcher
interface as a flat instruction set of *directives*::

    START(inst)  END(inst)  HOLE(inst, operand#, table index)
    CONST_BRANCH(inst, test table index)  ENTER_LOOP(inst, header index)
    EXIT_LOOP(inst)  RESTART_LOOP(inst, next table index)
    BRANCH(inst)  LABEL(inst)

This module renders a region's templates as exactly that stream (in
template block layout order), reproducing the shape of Figure 1's
"Stitcher directives" listing.  It is used by the CLI's
``--dump-directives`` and by tests that check the directive program
against the paper's example.
"""

from __future__ import annotations

from typing import List, Optional

from ..codegen.objects import RegionCode
from .table import SlotRef


def _slot_str(slot: SlotRef) -> str:
    loop_id, index = slot
    if loop_id is None:
        return str(index)
    return "%d:%d" % (loop_id, index)


def directive_listing(region: RegionCode) -> List[str]:
    """The flat directive stream for ``region``'s templates."""
    order = _layout_order(region)
    lines: List[str] = []
    position = 0

    def emit(text: str) -> None:
        lines.append(text)

    emit("START(L0)")
    for block_name in order:
        block = region.blocks[block_name]
        loop = region.table.loop_of_header(block_name)
        if loop is not None:
            emit("ENTER_LOOP(L%d, %s)"
                 % (position, loop.head_slot))
        holes = {h.offset: h for h in block.holes}
        fixups = {f.offset: f for f in block.fixups}
        for offset, _ in enumerate(block.instrs):
            label = "L%d" % (position + offset)
            hole = holes.get(offset)
            if hole is not None:
                emit("HOLE(%s, %s, %s)"
                     % (label, hole.kind, _slot_str(hole.slot)))
            fixup = fixups.get(offset)
            if fixup is not None:
                if fixup.label.startswith("ext:"):
                    emit("BRANCH(%s)  ; -> %s" % (label, fixup.label[4:]))
                elif _is_latch_edge(region, block_name, fixup.label):
                    next_slot = region.table.loop_of_header(
                        fixup.label).next_offset
                    emit("RESTART_LOOP(%s, %s)" % (label, next_slot))
                elif _leaves_loop(region, block_name, fixup.label):
                    emit("EXIT_LOOP(%s)" % label)
                else:
                    emit("BRANCH(%s)  ; -> %s" % (label, fixup.label))
        term = block.term
        label = "L%d" % (position + len(block.instrs))
        if term.kind == "const_branch":
            emit("CONST_BRANCH(%s, %s)" % (label, _slot_str(term.slot)))
            targets = ([term.if_true, term.if_false]
                       if term.if_true is not None
                       else [l for _, l in term.cases] + [term.default])
            for target in targets:
                if target is not None and _leaves_loop(region, block_name,
                                                       target):
                    emit("EXIT_LOOP(%s)" % label)
        position += len(block.instrs) + 1
        emit("LABEL(L%d)" % position)
    emit("END(L%d)" % position)
    return lines


def _layout_order(region: RegionCode) -> List[str]:
    """Deterministic template block order: entry first, then a DFS over
    fallthrough successors, then anything left (alphabetical)."""
    order: List[str] = []
    seen = set()
    # Preorder walks on an explicit stack, from each root in turn.
    walk: List[Optional[str]] = []
    for root in [region.entry, *sorted(region.blocks)]:
        walk.append(root)
        while walk:
            name = walk.pop()
            if name is None or name in seen or name not in region.blocks:
                continue
            seen.add(name)
            order.append(name)
            block = region.blocks[name]
            term = block.term
            succs: List[str] = []
            if term.kind == "const_branch":
                if term.if_true is not None:
                    succs = [term.if_true, term.if_false or ""]
                else:
                    succs = [l for _, l in term.cases]
                    if term.default:
                        succs.append(term.default)
            else:
                succs = list(term.succs)
            for fixup in block.fixups:
                if not fixup.label.startswith("ext:"):
                    succs.append(fixup.label)
            walk.extend(succ for succ in reversed(succs)
                        if succ and not succ.startswith("ext:"))
    return order


def _is_latch_edge(region: RegionCode, source: str, target: str) -> bool:
    loop = region.table.loop_of_header(target)
    return loop is not None and loop.latch == source


def _leaves_loop(region: RegionCode, source: str, target: str) -> bool:
    for loop in region.table.loops.values():
        inside = source in loop.body
        target_inside = (not target.startswith("ext:")
                         and (target in loop.body
                              or target in loop.extended_body))
        if inside and not target_inside:
            return True
    return False


def format_directives(region: RegionCode) -> str:
    header = "; stitcher directives for region %d of %s" % (
        region.region_id, region.func_name)
    return "\n".join([header] + directive_listing(region))
