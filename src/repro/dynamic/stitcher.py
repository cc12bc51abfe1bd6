"""The stitcher: the dynamic compiler (section 4 of the paper).

Given a region's machine-code templates, directives, and the constants
table that the set-up code just filled in, the stitcher produces
executable code:

* copies template blocks, following control flow from the region entry;
* patches holes with constant values from the table -- into immediate
  fields when they fit, otherwise into the *linearized* table of large
  constants addressed off a dedicated base register (r27);
* resolves constant branches, emitting only the reachable side
  (dynamic dead-code elimination);
* fully unrolls annotated loops by walking the per-iteration record
  chain, emitting one copy of the loop body per record and renaming
  labels per iteration;
* fixes up pc-relative branches in the copied code; and
* applies value-based peephole optimizations (multiply/divide/modulus
  strength reduction).

Every action is charged cycles per the stitcher cost model, reproducing
the paper's directive-interpretation overhead; a
:class:`StitchReport` records what happened for the Table 2 / Table 3
harnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..codecache.entry import (
    CachedEntry, CacheKey, Relocation, WalkStep,
)
from ..codegen.objects import (
    CompiledFunction, RegionCode, TemplateBlock, linearize_block,
)
from ..errors import (  # noqa: F401  (StitchError re-exported)
    StitchBudgetExceeded, StitchError, mark_injected,
)
from ..machine.costs import StitcherCosts
from ..machine.isa import CPOOL, MInstr, SCRATCH2, ZERO, fits_imm
from ..obs import trace as obs_trace
from .peephole import reduce_alu
from .table import LoopPlan, SlotRef

Number = Union[int, float]

#: Safety cap on unrolled iterations per loop.
MAX_UNROLL = 1 << 16

#: Environment: active unrolled loops, innermost last:
#: tuple of (loop_id, record address).
Env = Tuple[Tuple[int, int], ...]


@dataclass
class StitchReport:
    """What one stitch did -- input to Tables 2 and 3."""

    func_name: str
    region_id: int
    key: Tuple[Number, ...] = ()
    instrs_emitted: int = 0
    holes_patched: int = 0
    directives: int = 0
    const_branches_resolved: int = 0
    dead_sides_eliminated: int = 0
    branch_fixups: int = 0
    pool_entries: int = 0
    records_followed: int = 0
    #: loop id -> number of unrolled iterations.
    loop_iterations: Dict[int, int] = field(default_factory=dict)
    #: peephole event -> count (mul_to_shift, div_to_shift, ...).
    peepholes: Dict[str, int] = field(default_factory=dict)
    #: register-action statistics (elements promoted, loads/stores
    #: rewritten to moves, address computations deleted).
    reg_actions: Dict[str, int] = field(default_factory=dict)
    cycles: int = 0
    entry: int = -1
    pool_base: int = 0

    @property
    def loops_unrolled(self) -> int:
        return sum(1 for n in self.loop_iterations.values() if n >= 0)

    def optimizations_applied(self) -> Dict[str, bool]:
        """The Table 3 row for this stitch."""
        strength = any(k.startswith(("mul_to", "div_to", "mod_to"))
                       for k in self.peepholes)
        return {
            "constant_folding": self.holes_patched > 0,
            "static_branch_elimination": self.const_branches_resolved > 0,
            "dead_code_elimination": self.dead_sides_eliminated > 0,
            "complete_loop_unrolling": any(
                n > 1 for n in self.loop_iterations.values()),
            "strength_reduction": strength,
        }


class Stitcher:
    """Stitches one region instance (one key value) into executable code."""

    def __init__(self, vm, compiled: CompiledFunction, region: RegionCode,
                 table_addr: int, costs: StitcherCosts,
                 key: Tuple[Number, ...] = (),
                 register_actions: bool = False,
                 functions: Optional[Dict[str, CompiledFunction]] = None,
                 faults=None, budget=None):
        self.vm = vm
        #: fault-injection plan (repro.faults.FaultPlan) or None.
        self.faults = faults
        #: resource guard (repro.runtime.guards.StitchBudget) or None.
        self.budget = budget if budget is not None and budget.enabled() \
            else None
        self.compiled = compiled
        #: Symbol table for calls out of stitched code.
        self.functions = functions if functions is not None \
            else {compiled.name: compiled}
        self.region = region
        self.table_addr = table_addr
        self.costs = costs
        self.register_actions = register_actions
        #: out index -> (ElementAction, concrete element index).
        self.out_tags: Dict[int, Tuple[object, int]] = {}
        self.owner = "stitched:%s:%d" % (region.func_name, region.region_id)
        self.report = StitchReport(region.func_name, region.region_id,
                                   key=key)
        self.out: List[MInstr] = []
        self.labels: Dict[str, int] = {}
        self.pending: List[Tuple[int, str]] = []  # (out index, label)
        self.pool: List[Number] = []
        #: every load from the constants table and the loop records,
        #: in order (see :attr:`CachedEntry.walk`); its values are the
        #: table fingerprint for invalidation.
        self.walk: List[WalkStep] = []
        #: record address -> its number in the walk (1, 2, ... by
        #: first appearance; the table is base 0).
        self.records: Dict[int, int] = {}
        #: the relocatable product of the stitch (set by _finalize).
        self.entry: Optional[CachedEntry] = None
        self.emitted: Dict[Tuple[str, Env], str] = {}
        self.queue: List[Tuple[str, Env]] = []
        #: loop header -> plan, for edge transitions.
        self.headers: Dict[str, LoopPlan] = {
            loop.header: loop for loop in region.table.loops.values()
        }
        self.loop_of_block: Dict[str, List[LoopPlan]] = {}
        for loop in region.table.loops.values():
            for name in loop.body:
                self.loop_of_block.setdefault(name, []).append(loop)

    # -- table access -----------------------------------------------------

    def _slot_value(self, slot: SlotRef, env: Env) -> Number:
        if self.faults is not None and self.faults.should_fire("stitch.table"):
            raise mark_injected(StitchError(
                "injected fault: run-time constants table read",
                func=self.region.func_name, region_id=self.region.region_id))
        loop_id, index = slot
        if loop_id is None:
            value = self.vm.load(self.table_addr + index)
            self.walk.append((0, index, value, 0))
            return value
        for active_id, rec in env:
            if active_id == loop_id:
                value = self.vm.load(rec + index)
                self.walk.append((self.records[rec], index, value, 0))
                return value
        raise StitchError("hole references inactive loop %d" % loop_id)

    def _load_record(self, base: int, offset: int,
                     table: bool = False) -> int:
        """Follow the record-chain pointer at ``base + offset``, where
        ``base`` is the table or a record; 0 ends the chain."""
        rec = int(self.vm.load(base + offset))
        if rec:
            records = self.records
            number = records.get(rec)
            if number is None:
                number = records[rec] = len(records) + 1
            self.walk.append((0 if table else records[base], offset,
                              None, number))
        return rec

    def _pool_index(self, value: Number) -> int:
        self.pool.append(value)
        self.report.pool_entries += 1
        return len(self.pool) - 1

    # -- main -------------------------------------------------------------

    def stitch(self) -> StitchReport:
        report = self.report
        entry_env: Env = ()
        self._schedule(self.region.entry, (), "", entry_env)
        while self.queue:
            block_name, env = self.queue.pop()
            self._emit_block(block_name, env)
        self._finalize()
        report.directives += 2  # START / END
        report.cycles = stitch_cost(report, self.costs)
        return report

    # -- scheduling with loop-environment transitions ------------------------

    def _edge_env(self, source: str, target: str, env: Env) -> Env:
        """Environment after the edge source -> target."""
        new_env = list(env)
        # Leave loops whose body does not contain the target.  Blocks in
        # a loop's *extended body* (early exits consuming iteration
        # constants) keep the environment alive, so they get stitched
        # once per iteration that reaches them.
        while new_env:
            loop_id, _ = new_env[-1]
            loop = self.region.table.loops[loop_id]
            if target in loop.body or target in loop.extended_body:
                break
            new_env.pop()
            self.report.directives += 1  # EXIT_LOOP
        # Enter or restart a loop at its header.
        header_plan = self.headers.get(target)
        if header_plan is not None:
            active_ids = [l for l, _ in new_env]
            if header_plan.loop_id in active_ids:
                if source == header_plan.latch:
                    # Back edge: advance to the next record (RESTART_LOOP).
                    for i, (loop_id, rec) in enumerate(new_env):
                        if loop_id == header_plan.loop_id:
                            next_rec = self._load_record(
                                rec, header_plan.next_offset)
                            if next_rec == 0:
                                raise StitchError(
                                    "broken record chain for loop %d"
                                    % loop_id)
                            new_env[i] = (loop_id, next_rec)
                            self.report.records_followed += 1
                            self.report.directives += 1  # RESTART_LOOP
                            count = self.report.loop_iterations.get(
                                header_plan.loop_id, 1)
                            budget = self.budget
                            if budget is not None \
                                    and budget.max_unroll is not None \
                                    and count >= budget.max_unroll:
                                raise StitchBudgetExceeded(
                                    "stitch budget: loop %d exceeds "
                                    "max_unroll=%d iterations"
                                    % (loop_id, budget.max_unroll),
                                    limit="unroll",
                                    func=self.region.func_name,
                                    region_id=self.region.region_id)
                            if count > MAX_UNROLL:
                                raise StitchError(
                                    "loop %d unrolled past %d iterations "
                                    "(is its bound really constant?)"
                                    % (loop_id, MAX_UNROLL))
                            self.report.loop_iterations[
                                header_plan.loop_id] = count + 1
                            break
                else:
                    raise StitchError(
                        "re-entering active loop %d from %s (not the latch)"
                        % (header_plan.loop_id, source))
            else:
                # ENTER_LOOP: read the head record pointer.
                if header_plan.parent is None:
                    rec = self._load_record(self.table_addr,
                                            header_plan.head_slot,
                                            table=True)
                else:
                    parent_rec = dict(new_env).get(header_plan.parent)
                    if parent_rec is None:
                        raise StitchError(
                            "nested loop %d entered outside its parent"
                            % header_plan.loop_id)
                    rec = self._load_record(parent_rec,
                                            header_plan.head_slot)
                if rec == 0:
                    raise StitchError(
                        "loop %d has no iteration records"
                        % header_plan.loop_id)
                new_env.append((header_plan.loop_id, rec))
                self.report.records_followed += 1
                self.report.directives += 1  # ENTER_LOOP
                self.report.loop_iterations.setdefault(
                    header_plan.loop_id, 1)
        return tuple(new_env)

    def _label_of(self, block: str, env: Env) -> str:
        suffix = "/".join("%d.%x" % (l, r) for l, r in env)
        return "%s@%s" % (block, suffix) if suffix else block

    def _schedule(self, target: str, env: Env, source: str,
                  precomputed_env: Optional[Env] = None) -> str:
        """Queue ``target`` for emission (if new); returns its label."""
        new_env = (precomputed_env if precomputed_env is not None
                   else self._edge_env(source, target, env))
        key = (target, new_env)
        if key not in self.emitted:
            label = self._label_of(target, new_env)
            self.emitted[key] = label
            self.queue.append(key)
        return self.emitted[key]

    def _resolve_target(self, label: str, env: Env, source: str) -> str:
        """Branch label -> stitched label (scheduling the target)."""
        if label.startswith("ext:"):
            return label  # resolved against the function in _finalize
        return self._schedule(label, env, source)

    # -- block emission -----------------------------------------------------

    def _emit_block(self, block_name: str, env: Env) -> None:
        template = self.region.blocks[block_name]
        label = self.emitted[(block_name, env)]
        out = self.out
        self.labels[label] = len(out)
        linear = template.linear
        if linear is None:
            # Hand-assembled template (unit tests): linearize on first
            # use and cache the result on the block.
            linear = template.linear = linearize_block(template, self.owner)
        report = self.report
        tagging = self.register_actions
        for item in linear.items:
            kind = item[0]
            if kind == 0:  # shared run: the "copy" of copy-and-patch
                instrs = item[1]
                out_base = len(out)
                out.extend(instrs)
                report.instrs_emitted += len(instrs)
                if tagging:
                    for run_index, action in item[2]:
                        self._tag(out_base + run_index, action, env)
            elif kind == 1:  # hole: patch a fresh copy
                _, instr, hole, action = item
                out_start = len(out)
                self._emit_patched(instr, hole, env)
                # An action only survives on 1:1 emission (a hole that
                # expanded into a pool load + use cannot be rewritten).
                if tagging and action is not None \
                        and len(out) == out_start + 1:
                    self._tag(out_start, action, env)
            elif kind == 2:  # branch fixup: clone + per-stitch label
                _, proto, fix_label, action = item
                clone = proto.copy()
                clone.label = self._resolve_target(fix_label, env,
                                                   block_name)
                report.branch_fixups += 1
                report.directives += 1  # BRANCH
                out_start = len(out)
                out.append(clone)
                report.instrs_emitted += 1
                if tagging and action is not None:
                    self._tag(out_start, action, env)
            else:  # symbolic label/extra: private copy, patched later
                _, proto, action = item
                out_start = len(out)
                out.append(proto.copy())
                report.instrs_emitted += 1
                if tagging and action is not None:
                    self._tag(out_start, action, env)
        term = template.term
        if term.kind == "const_branch":
            self._emit_const_branch(block_name, template, env)
        budget = self.budget
        if budget is not None:
            if budget.max_words is not None and len(out) > budget.max_words:
                raise StitchBudgetExceeded(
                    "stitch budget: %d words emitted exceeds max_words=%d"
                    % (len(out), budget.max_words), limit="words",
                    func=self.region.func_name,
                    region_id=self.region.region_id)
            if budget.max_cycles is not None \
                    and stitch_cost(report, self.costs) > budget.max_cycles:
                raise StitchBudgetExceeded(
                    "stitch budget: stitcher cycles exceed max_cycles=%d"
                    % budget.max_cycles, limit="cycles",
                    func=self.region.func_name,
                    region_id=self.region.region_id)

    def _tag(self, out_index: int, action, env: Env) -> None:
        """Record a register-action tag for the instruction just emitted."""
        if action.slot is not None:
            element = int(self._slot_value(tuple(action.slot), env))
        else:
            element = action.const_index
        self.out_tags[out_index] = (action, element)

    def _emit_const_branch(self, block_name: str, template: TemplateBlock,
                           env: Env) -> None:
        term = template.term
        assert term.slot is not None
        value = int(self._slot_value(term.slot, env))
        self.report.directives += 1  # CONST_BRANCH
        # Resolving an unrolled loop's termination test is part of
        # complete unrolling, not of branch elimination -- only count
        # genuine constant branches for the Table 3 accounting.
        is_loop_header = block_name in self.headers
        if not is_loop_header:
            self.report.const_branches_resolved += 1
        if term.if_true is not None:
            chosen = term.if_true if value != 0 else term.if_false
            if not is_loop_header:
                self.report.dead_sides_eliminated += 1
        else:
            chosen = term.default
            for case_value, case_label in term.cases:
                if case_value == value:
                    chosen = case_label
                    break
            self.report.dead_sides_eliminated += max(
                0, len(set(l for _, l in term.cases) | {term.default}) - 1)
        assert chosen is not None
        target_label = self._resolve_target(chosen, env, block_name)
        branch = MInstr("br", label=target_label, owner=self.owner)
        self.out.append(branch)
        self.report.instrs_emitted += 1

    # -- hole patching --------------------------------------------------------

    def _emit_patched(self, instr: MInstr, hole, env: Env) -> None:
        if self.faults is not None and self.faults.should_fire("stitch.hole"):
            raise mark_injected(StitchError(
                "injected fault: hole patching (%s)" % hole.kind,
                func=self.region.func_name, region_id=self.region.region_id))
        value = self._slot_value(tuple(hole.slot), env)
        self.report.holes_patched += 1
        self.report.directives += 1  # HOLE
        emitted: List[MInstr]
        if hole.kind == "fpool":
            clone = instr.copy()
            clone.imm = self._pool_index(float(value))
            emitted = [clone]
        elif hole.kind == "materialize":
            ivalue = int(value)
            if fits_imm(ivalue):
                emitted = [MInstr("lda", rd=instr.rd, ra=ZERO, imm=ivalue)]
            else:
                emitted = [MInstr("ldq", rd=instr.rd, ra=CPOOL,
                                  imm=self._pool_index(ivalue))]
        elif hole.kind == "loadbase":
            ivalue = int(value)
            if fits_imm(ivalue):
                clone = instr.copy()
                clone.ra = ZERO
                clone.imm = ivalue
                emitted = [clone]
            else:
                load = MInstr("ldq", rd=SCRATCH2, ra=CPOOL,
                              imm=self._pool_index(ivalue))
                clone = instr.copy()
                clone.ra = SCRATCH2
                clone.imm = 0
                emitted = [load, clone]
        elif hole.kind == "alu_imm":
            ivalue = int(value)
            rewrite = None
            if self.costs.enable_peepholes:
                rewrite = reduce_alu(
                    _with_imm(instr, ivalue if fits_imm(ivalue) else 0),
                    ivalue)
            if rewrite is not None and (fits_imm(ivalue)
                                        or _rewrite_immfree(rewrite[0])):
                emitted, event = rewrite
                self.report.peepholes[event] = \
                    self.report.peepholes.get(event, 0) + 1
            elif fits_imm(ivalue):
                clone = instr.copy()
                clone.imm = ivalue
                emitted = [clone]
            else:
                load = MInstr("ldq", rd=SCRATCH2, ra=CPOOL,
                              imm=self._pool_index(ivalue))
                clone = instr.copy()
                clone.rb = SCRATCH2
                clone.imm = 0
                emitted = [load, clone]
        else:
            raise StitchError("unknown hole kind %r" % hole.kind)
        for out_instr in emitted:
            out_instr.owner = self.owner
            self.out.append(out_instr)
            self.report.instrs_emitted += 1

    # -- finalization -----------------------------------------------------------

    def _apply_register_actions(self) -> None:
        """Promote the hottest constant-index frame-array elements to the
        function's free registers, rewriting the stitched code: loads
        and stores become register moves, dead address arithmetic is
        deleted (section 5's register-actions extension)."""
        promotable = set(self.region.promotable_arrays)
        free = list(self.region.free_registers)
        if not promotable or not free or not self.out_tags:
            return
        counts: Dict[Tuple[int, int], int] = {}
        for action, element in self.out_tags.values():
            if action.kind in ("load", "store") \
                    and action.array_offset in promotable:
                key = (action.array_offset, element)
                counts[key] = counts.get(key, 0) + 1
        chosen = sorted(counts, key=lambda k: -counts[k])[:len(free)]
        assignment = {key: free[i] for i, key in enumerate(chosen)}
        if not assignment:
            return
        stats = {"elements_promoted": len(assignment),
                 "loads_rewritten": 0, "stores_rewritten": 0,
                 "addr_calcs_removed": 0}
        keep: List[MInstr] = []
        index_map: Dict[int, int] = {}
        for i, instr in enumerate(self.out):
            index_map[i] = len(keep)
            tag = self.out_tags.get(i)
            if tag is None:
                keep.append(instr)
                continue
            action, element = tag
            reg = assignment.get((action.array_offset, element))
            if reg is None:
                keep.append(instr)
                continue
            if action.kind == "addr" and action.removable:
                stats["addr_calcs_removed"] += 1
                continue  # deleted
            if action.kind == "load":
                keep.append(MInstr("mov", rd=instr.rd, ra=reg,
                                   owner=self.owner))
                stats["loads_rewritten"] += 1
                continue
            if action.kind == "store":
                keep.append(MInstr("mov", rd=reg, ra=instr.rb,
                                   owner=self.owner))
                stats["stores_rewritten"] += 1
                continue
            keep.append(instr)
        index_map[len(self.out)] = len(keep)
        self.labels = {name: index_map[idx]
                       for name, idx in self.labels.items()}
        self.out = keep
        self.out_tags = {}
        self.report.reg_actions = stats
        rewrites = (stats["loads_rewritten"] + stats["stores_rewritten"]
                    + stats["addr_calcs_removed"])
        self.report.directives += rewrites  # register-action directives
        self.report.instrs_emitted -= stats["addr_calcs_removed"]

    def _finalize(self) -> None:
        """Package the stitched code as a relocatable
        :class:`CachedEntry` -- no VM memory is touched here; the code
        cache chooses the address and applies the relocations."""
        if self.register_actions:
            self._apply_register_actions()
        # Elide branches to the immediately following instruction.
        keep: List[MInstr] = []
        index_map: Dict[int, int] = {}
        for i, instr in enumerate(self.out):
            index_map[i] = len(keep)
            if instr.op == "br" and instr.label in self.labels \
                    and self.labels[instr.label] == i + 1:
                continue
            keep.append(instr)
        index_map[len(self.out)] = len(keep)
        labels = {name: index_map[idx] for name, idx in self.labels.items()}
        # Relocation records: symbolic targets into the static image
        # (which never moves) resolve to absolutes right away; local
        # labels become entry-relative offsets.  Every label-bearing
        # instruction is a per-stitch clone, so applying relocations
        # never mutates template-shared words.
        relocs: List[Relocation] = []
        for n, instr in enumerate(keep):
            if instr.label is None:
                continue
            if instr.label.startswith("ext:"):
                relocs.append(Relocation(
                    n, "absolute", self.compiled.resolve(instr.label[4:])))
            elif instr.label.startswith("func:"):
                callee = self.functions.get(instr.label[5:])
                if callee is None or callee.base < 0:
                    raise StitchError("stitched call to unknown function "
                                      "%s" % instr.label[5:])
                relocs.append(Relocation(n, "absolute", callee.base))
            else:
                relocs.append(Relocation(n, "local", labels[instr.label]))
        self.entry = CachedEntry(
            key=CacheKey(self.region.func_name, self.region.region_id,
                         self.report.key),
            code=keep,
            relocs=relocs,
            pool=self.pool,
            entry_offset=labels[self.emitted[(self.region.entry, ())]],
            report=self.report,
            table_fingerprint=tuple(value for _, _, value, record
                                    in self.walk if not record),
            walk=tuple(self.walk),
            # Entries that call functions may have live frames beneath
            # them when the cache evicts or compacts: never move them.
            pinned=any(instr.op == "jsr" for instr in keep),
        )


def stitch_cost(report: StitchReport, costs: StitcherCosts) -> int:
    """The stitcher cost model applied to what a (possibly partial)
    stitch did so far -- also how aborted stitches are charged."""
    return (
        costs.per_region
        + report.directives * costs.per_directive
        + report.instrs_emitted * costs.per_instr_copied
        + report.holes_patched * costs.per_hole
        + report.branch_fixups * costs.per_branch_fixup
        + report.pool_entries * costs.per_pool_entry
        + report.records_followed * costs.per_loop_record
        + sum(report.peepholes.values()) * costs.per_peephole
    )


def _with_imm(instr: MInstr, imm: int) -> MInstr:
    clone = instr.copy()
    clone.imm = imm
    return clone


def _rewrite_immfree(instrs: List[MInstr]) -> bool:
    """True if a peephole rewrite does not embed the constant itself
    (so it is valid even for constants too large for immediates)."""
    return all(fits_imm(i.imm) for i in instrs)


def stitch_entry(vm, compiled: CompiledFunction, region: RegionCode,
                 table_addr: int, costs: StitcherCosts,
                 key: Tuple[Number, ...] = (),
                 register_actions: bool = False,
                 functions: Optional[Dict[str, CompiledFunction]] = None,
                 faults=None, budget=None) -> CachedEntry:
    """Run the stitcher, producing a relocatable (not yet installed)
    :class:`~repro.codecache.entry.CachedEntry`; the stitcher's cycles
    are charged to the region's ``stitcher:`` owner.

    An aborted stitch (injected fault, budget trip, malformed table)
    still charges the cycles spent up to the abort before re-raising --
    a failed dynamic compile is not free, and the break-even economics
    must see it."""
    stitcher = Stitcher(vm, compiled, region, table_addr, costs, key,
                        register_actions=register_actions,
                        functions=functions, faults=faults, budget=budget)
    with obs_trace.span("stitch.region", "stitch",
                        region="%s:%d" % (region.func_name,
                                          region.region_id)) as span:
        try:
            report = stitcher.stitch()
        except StitchError:
            partial = stitch_cost(stitcher.report, costs)
            charge_stitch(vm, region, partial)
            if span is not None:
                span["aborted"] = True
                span["stitcher_cycles"] = partial
            raise
        if span is not None:
            span["key"] = list(report.key)
            span["instrs_emitted"] = report.instrs_emitted
            span["holes_patched"] = report.holes_patched
            span["directives"] = report.directives
            span["const_branches_resolved"] = report.const_branches_resolved
            span["dead_sides_eliminated"] = report.dead_sides_eliminated
            span["pool_entries"] = report.pool_entries
            span["records_followed"] = report.records_followed
            span["loops_unrolled"] = {
                str(loop_id): count
                for loop_id, count in report.loop_iterations.items()}
            span["peepholes"] = dict(report.peepholes)
            span["stitcher_cycles"] = report.cycles
    charge_stitch(vm, region, report.cycles)
    assert stitcher.entry is not None
    return stitcher.entry


def charge_stitch(vm, region: RegionCode, cycles: int) -> None:
    """Charge stitcher cycles to the region's ``stitcher:`` owner: a
    stitch, an aborted stitch, or a revived one (which costs what its
    original stitch did)."""
    vm.charge("stitcher:%s:%d" % (region.func_name, region.region_id),
              cycles)

