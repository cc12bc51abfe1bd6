"""Human-readable disassembly of compiled functions and templates.

Used by the CLI (``python -m repro --dump-asm``), by examples, and by
golden tests that want to look at generated code without poking at
:class:`MInstr` fields.
"""

from __future__ import annotations

from typing import Dict, List

from ..machine.isa import ALU_OPS, FALU_OPS, MInstr, reg_name
from .objects import CompiledFunction, RegionCode, TemplateBlock


def format_instr(instr: MInstr) -> str:
    """One instruction, assembler style."""
    op = instr.op
    if op in ("ldq", "ldt"):
        return "%-6s %s, %d(%s)" % (op, reg_name(instr.rd), instr.imm,
                                    reg_name(instr.ra))
    if op in ("stq", "stt"):
        return "%-6s %s, %d(%s)" % (op, reg_name(instr.rb), instr.imm,
                                    reg_name(instr.ra))
    if op == "lda":
        return "%-6s %s, %d(%s)" % (op, reg_name(instr.rd), instr.imm,
                                    reg_name(instr.ra))
    if op == "ldih":
        return "%-6s %s, #0x%04x" % (op, reg_name(instr.rd),
                                     instr.imm & 0xFFFF)
    if op in ALU_OPS or op in FALU_OPS:
        rhs = reg_name(instr.rb) if instr.rb is not None else "#%d" % instr.imm
        return "%-6s %s, %s, %s" % (op, reg_name(instr.rd),
                                    reg_name(instr.ra), rhs)
    if op in ("mov", "fmov", "negq", "ornot", "fneg", "cvtqt", "cvttq"):
        return "%-6s %s, %s" % (op, reg_name(instr.rd), reg_name(instr.ra))
    if op == "br":
        return "%-6s %s" % (op, instr.label or ("@%d" % instr.target))
    if op in ("beq", "bne"):
        return "%-6s %s, %s" % (op, reg_name(instr.ra),
                                instr.label or ("@%d" % instr.target))
    if op == "jtab":
        return "%-6s %s, base=%d" % (op, reg_name(instr.ra), instr.imm)
    if op == "jmp":
        return "%-6s (%s)" % (op, reg_name(instr.ra))
    if op == "jsr":
        return "%-6s %s" % (op, instr.label or ("@%d" % instr.target))
    if op == "call_rt":
        return "%-6s %s" % (op, instr.name)
    return op


def format_function(function: CompiledFunction,
                    with_offsets: bool = True) -> str:
    """Disassemble a compiled function with its labels."""
    by_offset: Dict[int, List[str]] = {}
    for label, offset in function.labels.items():
        by_offset.setdefault(offset, []).append(label)
    lines: List[str] = ["; function %s (frame %d words)"
                        % (function.name, function.frame_size)]
    for i, instr in enumerate(function.code):
        for label in sorted(by_offset.get(i, [])):
            lines.append("%s:" % label)
        prefix = "  %4d  " % i if with_offsets else "  "
        lines.append(prefix + format_instr(instr))
    return "\n".join(lines)


def format_template_block(block: TemplateBlock) -> str:
    """Disassemble one template block with its directives inline."""
    holes = {h.offset: h for h in block.holes}
    fixups = {f.offset: f for f in block.fixups}
    actions: Dict[int, List] = {}
    for action in block.actions:
        actions.setdefault(action.offset, []).append(action)
    lines = ["%s:" % block.name]
    for i, instr in enumerate(block.instrs):
        annotations = []
        if i in holes:
            hole = holes[i]
            loop_id, index = hole.slot
            where = ("t[%d]" % index if loop_id is None
                     else "loop%d[%d]" % (loop_id, index))
            annotations.append("HOLE %s %s" % (hole.kind, where))
        if i in fixups:
            annotations.append("BRANCH -> %s" % fixups[i].label)
        for action in actions.get(i, []):
            annotations.append("ACTION %s array@%d" % (action.kind,
                                                       action.array_offset))
        suffix = ("    ; " + "; ".join(annotations)) if annotations else ""
        lines.append("  %4d  %s%s" % (i, format_instr(instr), suffix))
    term = block.term
    if term.kind == "const_branch":
        loop_id, index = term.slot  # type: ignore[misc]
        where = ("t[%d]" % index if loop_id is None
                 else "loop%d[%d]" % (loop_id, index))
        if term.if_true is not None:
            lines.append("  CONST_BRANCH %s ? %s : %s"
                         % (where, term.if_true, term.if_false))
        else:
            cases = ", ".join("%d->%s" % (v, l) for v, l in term.cases)
            lines.append("  CONST_SWITCH %s {%s} default %s"
                         % (where, cases, term.default))
    return "\n".join(lines)


def format_region(region: RegionCode) -> str:
    """Disassemble a region's templates, with the table plan summary."""
    lines = ["; region %d of %s" % (region.region_id, region.func_name)]
    table = region.table
    lines.append(";  top-level table: %d slots %r" % (table.top_size,
                                                      table.slots))
    for loop in table.loops.values():
        lines.append(
            ";  unrolled loop %d: header %s, record %d words, slots %r"
            % (loop.loop_id, loop.header, loop.record_size, loop.slots))
    if region.promotable_arrays:
        lines.append(";  register-action candidates: frame offsets %r, "
                     "free regs %r" % (region.promotable_arrays,
                                       region.free_registers))
    for name in sorted(region.blocks):
        lines.append(format_template_block(region.blocks[name]))
    return "\n".join(lines)
