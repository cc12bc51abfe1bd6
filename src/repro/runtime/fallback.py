"""The static fallback tier: generic code for a dynamic region.

The paper's system always has a statically compiled version of every
dynamic region available -- the baseline its speedups are measured
against.  This module materializes that baseline from the region's own
templates so that when run-time code generation fails (stitch error,
arena exhaustion, budget trip, injected fault) the engine can transfer
control to correct generic code instead of dying.

The fallback is built from the same :class:`TemplateBlock` objects the
stitcher consumes, so its register allocation is identical to stitched
code and the dispatch glue's jump lands with the right live state.
Where the stitcher *specializes* -- patching run-time constants into
the code, resolving constant branches, unrolling loops -- the fallback
stays *generic*:

* every hole becomes a run-time load from the region's constants
  table, reached through a per-region heap cell holding the current
  table base (the engine stores the table address there on each
  fallback transfer, mirroring how stitched code gets fresh constants
  by being re-stitched);
* constant branches become real compare-and-branch sequences on the
  table value;
* unrolled loops run as actual loops, walking the per-iteration record
  chain through a per-loop *cursor cell*: an enter stub loads the head
  record pointer, the latch's back edge advances the cursor to the
  next record, and the header's predicate test (record slot 0, zero in
  the final record) terminates the loop.

Register discipline matches the stitcher's contract: inside a block
only ``SCRATCH2`` is free at hole sites (``SCRATCH`` may carry a live
left operand or store value), while at block boundaries -- where the
enter/restart stubs and predicate tests live -- both scratches are
dead.

Cycles executed in fallback code are charged to a ``fallback:`` owner,
so break-even accounting sees exactly what degradation costs.

Reentrancy limitation: the per-region table/cursor cells assume one
active generic execution of a region at a time.  A region whose
callees recurse back into the *same* region would need a cell stack;
the MiniC programs the reproduction targets (and the fuzzer generates)
only call leaf helpers from regions, so this is documented rather than
engineered around (see ``docs/ROBUSTNESS.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..codegen.objects import CompiledFunction, RegionCode, TemplateBlock
from ..errors import StitchError
from ..machine.isa import (
    MInstr, SCRATCH, SCRATCH2, fits_imm, materialize_int,
)

#: SlotRef context: loop id (None = top-level table) -> address of the
#: heap cell holding the current table base / record pointer.


@dataclass
class FallbackCode:
    """One region's installed generic code."""

    func_name: str
    region_id: int
    #: absolute pc the engine jumps to instead of a stitched entry.
    entry: int = -1
    base: int = -1
    words: int = 0
    #: heap cell the engine stores the table address into on transfer.
    table_cell: int = -1
    #: loop id -> heap cell holding the current iteration record.
    cursor_cells: Dict[int, int] = field(default_factory=dict)
    owner: str = ""


class _FallbackBuilder:
    def __init__(self, vm, compiled: CompiledFunction, region: RegionCode,
                 functions: Dict[str, CompiledFunction], backend):
        self.vm = vm
        self.compiled = compiled
        self.region = region
        self.functions = functions
        #: execution backend the block installs through.  A degraded
        #: pycode run must get pycode fallback code, not silently
        #: re-enter per-instruction rvm dispatch with differently-shaped
        #: host behavior.
        self.backend = backend
        self.owner = "fallback:%s:%d" % (region.func_name, region.region_id)
        self.out: List[MInstr] = []
        self.labels: Dict[str, int] = {}
        self.scheduled: set = set()
        self.queue: List[str] = []
        self.headers = {
            loop.header: loop for loop in region.table.loops.values()
        }
        self.table_cell = vm.alloc(1)
        self.cursor_cells = {
            loop_id: vm.alloc(1)
            for loop_id in sorted(region.table.loops)
        }

    # -- emission helpers --------------------------------------------------

    def _emit(self, instr: MInstr) -> None:
        instr.owner = self.owner
        self.out.append(instr)

    def _slot_context(self, reg: int, loop_id) -> None:
        """Emit: ``reg`` = current table base (loop_id None) or current
        iteration record (unrolled loop) -- one cell load."""
        if loop_id is None:
            materialize_int(self._emit, reg, self.table_cell)
        else:
            materialize_int(self._emit, reg, self.cursor_cells[loop_id])
        self._emit(MInstr("ldq", rd=reg, ra=reg, imm=0))

    # -- control-flow labeling ---------------------------------------------

    def _branch_label(self, source: str, target: str) -> str:
        """Map a template branch label to a fallback label, routing
        loop-header edges through the enter/restart stubs."""
        if target.startswith("ext:") or target.startswith("func:"):
            return target
        plan = self.headers.get(target)
        if plan is not None:
            stub = ("restart@%d" if source == plan.latch
                    else "enter@%d") % plan.loop_id
            if stub not in self.scheduled:
                self.scheduled.add(stub)
                self.queue.append(stub)
            return stub
        if target not in self.scheduled:
            self.scheduled.add(target)
            self.queue.append(target)
        return target

    # -- block emission -----------------------------------------------------

    def _emit_stub(self, stub: str) -> None:
        """Enter ("enter@N") / back-edge ("restart@N") stubs: maintain
        the loop's cursor cell, then branch to the header.  Block
        boundary: both scratches are free here."""
        kind, _, loop_text = stub.partition("@")
        plan = self.region.table.loops[int(loop_text)]
        self.labels[stub] = len(self.out)
        cursor = self.cursor_cells[plan.loop_id]
        if kind == "enter":
            # SCRATCH2 = head record pointer, read from the top-level
            # table (top loops) or the parent's current record (nested).
            self._slot_context(SCRATCH2, plan.parent)
            self._emit(MInstr("ldq", rd=SCRATCH2, ra=SCRATCH2,
                              imm=plan.head_slot))
        else:
            # SCRATCH2 = current record's next pointer.
            self._slot_context(SCRATCH2, plan.loop_id)
            self._emit(MInstr("ldq", rd=SCRATCH2, ra=SCRATCH2,
                              imm=plan.next_offset))
        materialize_int(self._emit, SCRATCH, cursor)
        self._emit(MInstr("stq", ra=SCRATCH, rb=SCRATCH2, imm=0))
        self._emit(MInstr("br", label=self._header_body_label(plan.header)))

    def _header_body_label(self, header: str) -> str:
        """Label of the header block *body* (bypassing the stubs)."""
        if header not in self.scheduled:
            self.scheduled.add(header)
            self.queue.append(header)
        return header

    def _emit_block(self, name: str) -> None:
        template = self.region.blocks[name]
        self.labels[name] = len(self.out)
        holes = {h.offset: h for h in template.holes}
        fixups = {f.offset: f for f in template.fixups}
        for offset, instr in enumerate(template.instrs):
            hole = holes.get(offset)
            if hole is not None:
                self._emit_hole(instr, hole)
                continue
            clone = instr.copy()
            fixup = fixups.get(offset)
            if fixup is not None:
                clone.label = self._branch_label(name, fixup.label)
            elif clone.label is not None \
                    and not clone.label.startswith(("ext:", "func:")):
                # Defensive: any local label routes through the same
                # mapping (templates put branches in fixups, but
                # hand-built test blocks may not).
                clone.label = self._branch_label(name, clone.label)
            self._emit(clone)
        term = template.term
        if term.kind == "const_branch":
            self._emit_predicate_branch(name, template)

    def _emit_hole(self, instr: MInstr, hole) -> None:
        """Generic expansion of a HOLE: load the value from the table
        at run time.  Only SCRATCH2 may be clobbered here."""
        loop_id, index = hole.slot
        self._slot_context(SCRATCH2, loop_id)
        if hole.kind == "materialize":
            # Placeholder was "lda rd, zero, 0": load the value.
            self._emit(MInstr("ldq", rd=instr.rd, ra=SCRATCH2, imm=index))
        elif hole.kind == "fpool":
            # The table slot holds the float value itself.
            clone = instr.copy()
            clone.ra = SCRATCH2
            clone.imm = index
            self._emit(clone)
        elif hole.kind == "alu_imm":
            # Value becomes the rb operand.
            self._emit(MInstr("ldq", rd=SCRATCH2, ra=SCRATCH2, imm=index))
            clone = instr.copy()
            clone.rb = SCRATCH2
            clone.imm = 0
            self._emit(clone)
        elif hole.kind == "loadbase":
            # Value is the address the load/store uses.
            self._emit(MInstr("ldq", rd=SCRATCH2, ra=SCRATCH2, imm=index))
            clone = instr.copy()
            clone.ra = SCRATCH2
            clone.imm = 0
            self._emit(clone)
        else:
            raise StitchError("unknown hole kind %r" % hole.kind,
                              func=self.region.func_name,
                              region_id=self.region.region_id)

    def _emit_predicate_branch(self, name: str,
                               template: TemplateBlock) -> None:
        """A stitch-time CONST_BRANCH becomes a real test on the table
        value.  Terminator position: both scratches are free."""
        term = template.term
        loop_id, index = term.slot
        self._slot_context(SCRATCH, loop_id)
        self._emit(MInstr("ldq", rd=SCRATCH, ra=SCRATCH, imm=index))
        if term.if_true is not None:
            self._emit(MInstr("bne", ra=SCRATCH,
                              label=self._branch_label(name, term.if_true)))
            self._emit(MInstr("br",
                              label=self._branch_label(name, term.if_false)))
            return
        # n-way: compare-and-branch chain, mirroring lower.py's Switch.
        for case_value, case_label in term.cases:
            if fits_imm(case_value):
                self._emit(MInstr("cmpeq", rd=SCRATCH2, ra=SCRATCH,
                                  imm=case_value))
            else:
                materialize_int(self._emit, SCRATCH2, case_value)
                self._emit(MInstr("cmpeq", rd=SCRATCH2, ra=SCRATCH,
                                  rb=SCRATCH2))
            self._emit(MInstr("bne", ra=SCRATCH2,
                              label=self._branch_label(name, case_label)))
        self._emit(MInstr("br",
                          label=self._branch_label(name, term.default)))

    # -- build --------------------------------------------------------------

    def build(self) -> FallbackCode:
        entry_label = self._branch_label("", self.region.entry)
        while self.queue:
            name = self.queue.pop()
            if "@" in name and name.split("@", 1)[0] in ("enter", "restart"):
                self._emit_stub(name)
            else:
                self._emit_block(name)
        base = self.vm.install_code(self.out)
        for n, instr in enumerate(self.out):
            label = instr.label
            if label is None:
                continue
            if label.startswith("ext:"):
                instr.target = self.compiled.resolve(label[4:])
            elif label.startswith("func:"):
                callee = self.functions.get(label[5:])
                if callee is None or callee.base < 0:
                    raise StitchError(
                        "fallback call to unknown function %s" % label[5:],
                        func=self.region.func_name,
                        region_id=self.region.region_id)
                instr.target = callee.base
            else:
                instr.target = base + self.labels[label]
        # Targets are resolved only now, so the backend hook runs
        # after the loop above.
        self.backend.block_installed(
            self.vm, base, len(self.out), base + self.labels[entry_label])
        return FallbackCode(
            func_name=self.region.func_name,
            region_id=self.region.region_id,
            entry=base + self.labels[entry_label],
            base=base,
            words=len(self.out),
            table_cell=self.table_cell,
            cursor_cells=self.cursor_cells,
            owner=self.owner,
        )


def build_fallback(vm, compiled: CompiledFunction, region: RegionCode,
                   functions: Dict[str, CompiledFunction],
                   backend) -> FallbackCode:
    """Materialize and install the generic fallback for ``region``.

    Lazy by design: the engine only calls this on a region's first
    stitch failure, so faults-disabled runs allocate no cells, install
    no code, and stay bit-identical to the seed goldens.  ``backend``
    routes the install through the execution-backend seam so degraded
    runs keep backend-consistent host execution."""
    return _FallbackBuilder(vm, compiled, region, functions,
                            backend=backend).build()
