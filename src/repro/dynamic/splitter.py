"""Splitting dynamic regions into set-up code and template code.

Implements section 3.2 of the paper.  Given the run-time constants /
reachability analysis of a region (in SSA form), this pass:

* plans the run-time constants table (:class:`~repro.dynamic.table
  .TablePlan`): a top-level slot for every loop-invariant constant that
  template code references, and per-iteration records for constants
  inside ``unrolled`` loops (predicate in slot 0, next-pointer last,
  exactly Figure 1's layout);
* builds the *set-up subgraph*: a copy of the region's CFG containing
  only the run-time constant computations (alpha-renamed ``su_*``),
  table allocation/stores, and the per-iteration record chaining for
  unrolled loops.  Constant branches remain real branches (set-up knows
  their predicates); non-constant branches are *cut* to a single
  successor -- safe because constant computations are speculatable --
  with validation that every table-resident constant is still computed;
* rewrites the region's blocks in place into *template code*: constant
  definitions disappear, their uses become :class:`HoleRef` operands,
  and constants needed after the region are rematerialized from the
  table so stitched code re-establishes them on every execution;
* wires the region entry through the first-time check: RegionLookup /
  set-up / RegionStitch / RegionEnter (the paper's "first time?"
  diamond).

The resulting function remains valid SSA and still verifies; the code
generator consumes the returned :class:`RegionPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.rtconst import RegionAnalysis, analyze_region
from ..frontend.errors import AnnotationError
from ..ir.cfg import BasicBlock, DynamicRegionInfo, Function, Module
from ..ir.instructions import (
    Assign, BinOp, Call, CondBr, Instr, Jump, Phi, Return, Store, Switch,
    Terminator, UnOp,
)
from ..ir.values import HoleRef, IntConst, Temp, Value
from ..obs import trace as obs_trace
from .regionops import RegionEnter, RegionLookup, RegionStitch
from .table import LoopPlan, SlotRef, TablePlan


@dataclass
class RegionPlan:
    """Everything the code generator and stitcher need for one region."""

    func_name: str
    region: DynamicRegionInfo
    analysis: RegionAnalysis
    table: TablePlan
    dispatch_block: str = ""
    setup_entry: str = ""
    stitch_block: str = ""
    enter_block: str = ""
    #: Template blocks (the original region blocks, rewritten in place).
    template_blocks: Set[str] = field(default_factory=set)
    template_entry: str = ""
    exit_block: str = ""
    #: Template block name -> slot holding its branch predicate, for
    #: blocks whose terminator the stitcher resolves (CONST_BRANCH).
    const_branch_slots: Dict[str, SlotRef] = field(default_factory=dict)
    #: All set-up blocks, for cost attribution.
    setup_blocks: Set[str] = field(default_factory=set)

    @property
    def region_id(self) -> int:
        return self.region.region_id


class _SetupNames:
    """Alpha-renaming of region-internal constant defs into set-up code."""

    def __init__(self, func: Function):
        self._func = func
        self.mapping: Dict[str, Temp] = {}

    def temp(self, name: str) -> Temp:
        if name not in self.mapping:
            new = Temp("su_" + name)
            self._func.temp_types[new.name] = \
                self._func.temp_types.get(name, "int")
            self.mapping[name] = new
        return self.mapping[name]


def split_function(func: Function,
                   use_reachability: bool = True) -> List[RegionPlan]:
    """Analyze and split every dynamic region of SSA-form ``func``."""
    plans = []
    for region in func.regions:
        if region.entry not in func.blocks:
            continue  # region optimized away entirely
        analysis = analyze_region(func, region,
                                  use_reachability=use_reachability)
        with obs_trace.span("split.region", "split",
                            region="%s:%d" % (func.name,
                                              region.region_id)) as span:
            plan = split_region(func, region, analysis)
            if span is not None:
                span["blocks"] = len(region.blocks)
                span["setup_blocks"] = len(plan.setup_blocks)
                span["template_blocks"] = len(plan.template_blocks)
                span["const_names"] = len(analysis.const_names)
                span["const_branches"] = len(analysis.const_branches)
                span["key_vars"] = len(region.key_vars)
        plans.append(plan)
    return plans


def split_module(module: Module,
                 use_reachability: bool = True) -> List[RegionPlan]:
    plans: List[RegionPlan] = []
    for func in module.functions.values():
        plans.extend(split_function(func, use_reachability))
    return plans


def split_region(func: Function, region: DynamicRegionInfo,
                 analysis: RegionAnalysis) -> RegionPlan:
    splitter = _RegionSplitter(func, region, analysis)
    return splitter.run()


class _RegionSplitter:
    def __init__(self, func: Function, region: DynamicRegionInfo,
                 analysis: RegionAnalysis):
        self.func = func
        self.region = region
        self.analysis = analysis
        self.blocks = [n for n in func.blocks if n in region.blocks]
        self.block_set = set(self.blocks)
        self.loops = [loop for loop in region.unrolled_loops
                      if loop.header in func.blocks]
        self.plan = RegionPlan(
            func_name=func.name,
            region=region,
            analysis=analysis,
            table=TablePlan(region.region_id),
        )
        self.names = _SetupNames(func)
        #: const SSA name -> block defining it (region-internal only).
        self.def_block: Dict[str, str] = {}
        self.def_instr: Dict[str, Instr] = {}
        for name in self.blocks:
            for instr in func.blocks[name].all_instrs():
                dst = instr.defs()
                if dst is not None:
                    self.def_block[dst.name] = name
                    self.def_instr[dst.name] = instr
        self._context_cache: Dict[str, Optional[int]] = {}
        #: loop containing each block (innermost unrolled loop id).
        self.block_loop: Dict[str, Optional[int]] = {}
        for name in self.blocks:
            inner: Optional[int] = None
            inner_size = None
            for loop in self.loops:
                if name in loop.body and (inner_size is None
                                          or len(loop.body) < inner_size):
                    inner = loop.loop_id
                    inner_size = len(loop.body)
            self.block_loop[name] = inner
        self.residents: Set[str] = set()
        self.outside_uses: Set[str] = set()
        self.setup_succs: Dict[str, List[str]] = {}
        #: set-up-unreachable block -> reachable dominator absorbing its
        #: constant defs (see _plan_hoists).
        self._hoist_target: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def run(self) -> RegionPlan:
        self._find_residents()
        self._plan_table()
        self._build_setup()
        self._validate_setup()
        self._rewrite_templates()
        self._wire_dispatch()
        self.func.verify()
        return self.plan

    # -- step 1: residency ------------------------------------------------

    def _is_const_name(self, name: str) -> bool:
        return name in self.analysis.const_names

    def _find_residents(self) -> None:
        """Constants that need table slots: used by template code, used
        as constant-branch predicates, or used outside the region."""
        const_names = self.analysis.const_names
        for name in self.blocks:
            block = self.func.blocks[name]
            for instr in block.all_instrs():
                dst = instr.defs()
                if dst is not None and dst.name in const_names:
                    continue  # moves to set-up; its uses there need no slot
                if isinstance(instr, Phi):
                    values = instr.args.values()
                else:
                    values = instr.uses()
                for value in values:
                    if isinstance(value, Temp) and value.name in const_names:
                        self.residents.add(value.name)
        # Constant branch predicates.
        for name in self.analysis.const_branches:
            term = self.func.blocks[name].terminator
            pred = term.cond if isinstance(term, CondBr) else term.value  # type: ignore[union-attr]
            if isinstance(pred, Temp):
                self.residents.add(pred.name)
        # Region constants used by code after the region.
        for name, block in self.func.blocks.items():
            if name in self.block_set:
                continue
            for instr in block.all_instrs():
                for value in instr.uses():
                    if isinstance(value, Temp) and value.name in const_names \
                            and self.def_block.get(value.name) in self.block_set:
                        self.residents.add(value.name)
                        self.outside_uses.add(value.name)

    # -- step 2: table layout -----------------------------------------------

    def _context_of(self, name: str,
                    _visiting: Optional[Set[str]] = None) -> Optional[int]:
        """The unrolled loop owning constant ``name`` (None = top level).

        A constant's context is the innermost unrolled loop among its
        defining block's loop and its constant operands' contexts: a
        value computed *outside* a loop body from an iteration-scoped
        constant (e.g. ``return -dir`` on a loop-exit path) still takes
        a fresh value per iteration and must live in the iteration
        record."""
        if name in self._context_cache:
            return self._context_cache[name]
        block = self.def_block.get(name)
        if block is None:
            return None  # defined outside the region (annotated constant)
        context = self.block_loop.get(block)
        visiting = _visiting if _visiting is not None else set()
        if name in visiting:
            return context  # phi cycle: stays within its own loop
        visiting.add(name)
        instr = self.def_instr[name]
        operands = (list(instr.args.values()) if isinstance(instr, Phi)
                    else instr.uses())
        for operand in operands:
            if isinstance(operand, Temp) \
                    and operand.name in self.analysis.const_names \
                    and operand.name in self.def_block:
                context = self._inner_context(
                    context, self._context_of(operand.name, visiting), name)
        visiting.discard(name)
        self._context_cache[name] = context
        return context

    def _inner_context(self, a: Optional[int], b: Optional[int],
                       name: str) -> Optional[int]:
        if a is None:
            return b
        if b is None or a == b:
            return a
        body_a = next(l.body for l in self.loops if l.loop_id == a)
        body_b = next(l.body for l in self.loops if l.loop_id == b)
        if body_a < body_b:
            return a
        if body_b < body_a:
            return b
        raise AnnotationError(
            "unsupported region shape: run-time constant %s depends on "
            "two sibling unrolled loops" % name)

    def _plan_table(self) -> None:
        table = self.plan.table
        loop_plans: Dict[int, LoopPlan] = {}
        for loop in self.loops:
            term = self.func.blocks[loop.header].terminator
            pred = term.cond if isinstance(term, CondBr) else term.value  # type: ignore[union-attr]
            pred_name = pred.name if isinstance(pred, Temp) else ""
            parent: Optional[int] = None
            parent_size = None
            for other in self.loops:
                if other.loop_id == loop.loop_id:
                    continue
                if loop.header in other.body and (
                        parent_size is None or len(other.body) < parent_size):
                    parent = other.loop_id
                    parent_size = len(other.body)
            loop_plans[loop.loop_id] = LoopPlan(
                loop_id=loop.loop_id,
                header=loop.header,
                latch=loop.latch,
                entry_pred=loop.entry_pred,
                body=sorted(loop.body),
                parent=parent,
                predicate=pred_name,
            )
        table.loops = loop_plans

        # Assign slots context by context.
        for name in sorted(self.residents):
            context = self._context_of(name)
            if context is None:
                if name not in table.slots:
                    table.slots[name] = len(table.slots)
            else:
                loop = loop_plans[context]
                if name == loop.predicate:
                    continue  # record slot 0, implicitly
                if name not in loop.slots:
                    loop.slots[name] = 1 + len(loop.slots)
            table.float_names[name] = \
                self.func.temp_types.get(name) == "float"
        # Head slots: top-level loops go after the top-level constants;
        # nested loops get a slot inside the parent record.
        top_base = len(table.slots)
        for loop in loop_plans.values():
            if loop.parent is None:
                loop.head_slot = top_base
                top_base += 1
            else:
                parent = loop_plans[loop.parent]
                parent.inner_head_slots[loop.loop_id] = 0  # placeholder
        for loop in loop_plans.values():
            offset = 1 + len(loop.slots)
            for inner_id in sorted(loop.inner_head_slots):
                loop.inner_head_slots[inner_id] = offset
                loop_plans[inner_id].head_slot = offset
                offset += 1
        table.top_size = top_base

    # -- step 3: set-up subgraph ---------------------------------------------

    def _setup_name(self, block: str) -> str:
        return "su%d_%s" % (self.region.region_id, block)

    def _choose_cut(self, block_name: str, term: Terminator) -> str:
        """Pick the single successor set-up code follows at a
        non-constant branch."""
        candidates = [s for s in dict.fromkeys(term.successors())
                      if s in self.block_set]
        if not candidates:
            return ""  # all successors leave the region
        if len(candidates) == 1:
            return candidates[0]
        resident_blocks = {
            self.def_block[n] for n in self.residents
            if n in self.def_block
        }

        def score(succ: str) -> Tuple[int, int, int]:
            reach = self._reachable_from(succ)
            count = len(reach & resident_blocks)
            same_loop = int(self.block_loop.get(succ)
                            == self.block_loop.get(block_name)
                            and self.block_loop.get(succ) is not None)
            # Acyclicity is judged modulo unrolled back edges (like the
            # set-up validation): inside an unrolled loop every block is
            # trivially cyclic through the loop's own latch, which would
            # blind this criterion and let set-up code follow a nested
            # run-time loop's body instead of its exit.
            acyclic = int(block_name not in self._reachable_forward(succ))
            return (count, acyclic, same_loop)

        chosen = max(candidates, key=score)
        if obs_trace._current is not None:
            obs_trace.instant(
                "split.cut", "split",
                region="%s:%d" % (self.func.name, self.region.region_id),
                block=block_name, chosen=chosen,
                candidates={succ: list(score(succ))
                            for succ in candidates})
        return chosen

    def _reachable_from(self, start: str) -> Set[str]:
        seen = {start}
        work = [start]
        while work:
            current = work.pop()
            for succ in self.func.blocks[current].successors():
                if succ in self.block_set and succ not in seen:
                    seen.add(succ)
                    work.append(succ)
        return seen

    def _reachable_forward(self, start: str) -> Set[str]:
        """Like :meth:`_reachable_from`, but unrolled back edges
        (latch -> header) are not followed."""
        back_edges = {(loop.latch, loop.header) for loop in self.loops}
        seen = {start}
        work = [start]
        while work:
            current = work.pop()
            for succ in self.func.blocks[current].successors():
                if (current, succ) in back_edges:
                    continue
                if succ in self.block_set and succ not in seen:
                    seen.add(succ)
                    work.append(succ)
        return seen

    def _remap_setup_value(self, value: Value) -> Value:
        if isinstance(value, Temp) and value.name in self.names.mapping:
            return self.names.mapping[value.name]
        if isinstance(value, Temp) and self.def_block.get(value.name) \
                in self.block_set and self._is_const_name(value.name):
            return self.names.temp(value.name)
        return value

    def _build_setup(self) -> None:
        func = self.func
        table = self.plan.table
        const_names = self.analysis.const_names

        # Pre-create set-up twin blocks so terminators can be retargeted.
        twins: Dict[str, BasicBlock] = {}
        for name in self.blocks:
            twin = BasicBlock(self._setup_name(name))
            func.add_block(twin)
            twins[name] = twin
            self.plan.setup_blocks.add(twin.name)

        # Pre-intern su_ names for every region-internal constant def, so
        # operand remapping is order-independent.
        for name in self.blocks:
            for instr in func.blocks[name].all_instrs():
                dst = instr.defs()
                if dst is not None and dst.name in const_names:
                    self.names.temp(dst.name)

        # Preamble: allocate the top-level table, store the constants
        # that are defined outside the region (annotated variables).
        pre = func.new_block("su%d_pre" % self.region.region_id)
        self.plan.setup_blocks.add(pre.name)
        self.plan.setup_entry = pre.name
        tbl = func.new_temp("int", prefix="tbl")
        pre.append(Call(tbl, "alloc",
                        [IntConst(max(1, table.top_size))], intrinsic=True))
        self.tbl_temp = tbl
        for name, idx in sorted(table.slots.items(), key=lambda kv: kv[1]):
            if self.def_block.get(name) in self.block_set:
                continue  # stored at its definition point below
            addr = func.new_temp("int", prefix="sua")
            pre.append(BinOp(addr, "add", tbl, IntConst(idx)))
            pre.append(Store(addr, Temp(name),
                             is_float=table.float_names.get(name, False)))
        pre.append(Jump(twins[self.region.entry].name))

        # The stitch block every set-up exit funnels into.
        stitch = func.new_block("su%d_stitch" % self.region.region_id)
        self.plan.stitch_block = stitch.name
        self.plan.setup_blocks.add(stitch.name)

        loop_recs: Dict[int, Temp] = {}
        loop_cursors: Dict[int, Temp] = {}
        loop_heads: Dict[int, Temp] = {}
        for loop_id, loop in table.loops.items():
            loop_recs[loop_id] = func.new_temp("int", prefix="rec%d_" % loop_id)
            loop_cursors[loop_id] = func.new_temp(
                "int", prefix="cur%d_" % loop_id)
            loop_heads[loop_id] = func.new_temp(
                "int", prefix="head%d_" % loop_id)

        cut_edges: Set[Tuple[str, str]] = set()
        kept_edges: Set[Tuple[str, str]] = set()

        # First pass: decide terminators (so phi edges are known).
        setup_term: Dict[str, Terminator] = {}
        for name in self.blocks:
            block = func.blocks[name]
            term = block.terminator
            assert term is not None
            succs_in = [s for s in dict.fromkeys(term.successors())
                        if s in self.block_set]
            if isinstance(term, Return) or not succs_in:
                setup_term[name] = Jump(stitch.name)
                continue
            if name in self.analysis.const_branches and len(
                    set(term.successors())) > 1:
                # Keep the constant branch; successors leaving the region
                # become exits to the stitch block.
                if isinstance(term, CondBr):
                    new_term: Terminator = CondBr(
                        self._remap_setup_value(term.cond),
                        self._setup_target(term.if_true, twins, stitch),
                        self._setup_target(term.if_false, twins, stitch))
                else:
                    assert isinstance(term, Switch)
                    new_term = Switch(
                        self._remap_setup_value(term.value),
                        [(v, self._setup_target(l, twins, stitch))
                         for v, l in term.cases],
                        self._setup_target(term.default, twins, stitch))
                setup_term[name] = new_term
                for succ in succs_in:
                    kept_edges.add((name, succ))
                continue
            if len(succs_in) == 1 and len(set(term.successors())) == 1:
                setup_term[name] = Jump(twins[succs_in[0]].name)
                kept_edges.add((name, succs_in[0]))
                continue
            # Non-constant multi-way branch: cut to one successor.
            chosen = self._choose_cut(name, term)
            if not chosen:
                setup_term[name] = Jump(stitch.name)
                continue
            setup_term[name] = Jump(twins[chosen].name)
            kept_edges.add((name, chosen))
            for succ in succs_in:
                if succ != chosen:
                    cut_edges.add((name, succ))
        self.setup_succs = {}
        for (a, b) in kept_edges:
            self.setup_succs.setdefault(a, []).append(b)

        # Constant defs in blocks set-up code cannot reach (guarded by a
        # non-constant branch we cut) are *hoisted* to the nearest
        # reachable dominator: safe because constant computations are
        # speculatable by definition.
        hoists = self._plan_hoists()

        # Second pass: fill the twin blocks.
        for name in self.blocks:
            self._fill_setup_block(
                name, twins, stitch, setup_term[name], cut_edges,
                loop_recs, loop_cursors, loop_heads,
                hoisted=hoists.get(name, []))

        # Stitch block: call the stitcher, jump to the enter block (wired
        # later by _wire_dispatch).
        self.stitch_blockobj = stitch

    def _setup_reachable(self) -> Set[str]:
        """Region blocks whose set-up twins the preamble can reach."""
        reachable = {self.region.entry}
        work = [self.region.entry]
        while work:
            current = work.pop()
            for succ in self.setup_succs.get(current, []):
                if succ not in reachable:
                    reachable.add(succ)
                    work.append(succ)
        return reachable

    def _plan_hoists(self) -> Dict[str, List[str]]:
        """Map reachable block -> unreachable blocks (in RPO) whose
        constant defs it must absorb.  Raises for shapes we cannot
        speculate (constant phis, or defs whose loop context would be
        lost by hoisting)."""
        from ..ir.dominance import DominatorTree

        reachable = self._setup_reachable()
        unreachable_with_consts: List[str] = []
        const_names = self.analysis.const_names
        for name in self.blocks:
            if name in reachable:
                continue
            for instr in self.func.blocks[name].all_instrs():
                dst = instr.defs()
                if dst is not None and dst.name in const_names:
                    unreachable_with_consts.append(name)
                    break
        if not unreachable_with_consts:
            return {}
        dom = DominatorTree(self.func)
        hoists: Dict[str, List[str]] = {}
        rpo_index = {name: i for i, name in enumerate(self.func.rpo())}
        for name in sorted(unreachable_with_consts,
                           key=lambda n: rpo_index.get(n, 1 << 30)):
            for phi in self.func.blocks[name].phis():
                if phi.dst.name in const_names:
                    raise AnnotationError(
                        "unsupported region shape: constant merge %r in "
                        "block %s is unreachable by set-up code" % (phi, name))
            target = name
            while target not in reachable:
                parent = dom.idom.get(target)
                if parent is None or parent == target:
                    raise AnnotationError(
                        "unsupported region shape: no set-up placement "
                        "for constants of block %s" % name)
                target = parent
            target_ctx = self.block_loop.get(target)
            for instr in self.func.blocks[name].instrs:
                dst = instr.defs()
                if dst is None or dst.name not in const_names:
                    continue
                if self._context_of(dst.name) != target_ctx:
                    raise AnnotationError(
                        "unsupported region shape: constant %s of block "
                        "%s cannot be hoisted to %s (different unrolled-"
                        "loop context)" % (dst.name, name, target))
            hoists.setdefault(target, []).append(name)
            self._hoist_target[name] = target
        return hoists

    def _setup_target(self, succ: str, twins: Dict[str, BasicBlock],
                      stitch: BasicBlock) -> str:
        if succ in self.block_set:
            return twins[succ].name
        return stitch.name

    def _fill_setup_block(
        self,
        name: str,
        twins: Dict[str, BasicBlock],
        stitch: BasicBlock,
        terminator: Terminator,
        cut_edges: Set[Tuple[str, str]],
        loop_recs: Dict[int, Temp],
        loop_cursors: Dict[int, Temp],
        loop_heads: Dict[int, Temp],
        hoisted: Optional[List[str]] = None,
    ) -> None:
        func = self.func
        table = self.plan.table
        const_names = self.analysis.const_names
        block = func.blocks[name]
        twin = twins[name]
        loop_id = self.block_loop.get(name)
        header_plan = table.loop_of_header(name)

        def setup_pred_name(pred: str) -> str:
            return self._setup_name(pred)

        # Phis for constant merges.
        pending_phi_stores: List[str] = []
        for phi in block.phis():
            if phi.dst.name not in const_names:
                continue
            if phi.dst.name in self.residents:
                pending_phi_stores.append(phi.dst.name)
            args: Dict[str, Value] = {}
            for pred, value in phi.args.items():
                if pred not in self.block_set:
                    # Edge entering the region: in set-up the predecessor
                    # is the preamble (only the region entry has one).
                    args[self.plan.setup_entry] = self._remap_setup_value(value)
                    continue
                if name not in self.setup_succs.get(pred, []):
                    continue  # edge cut, or predecessor exits to stitch
                args[setup_pred_name(pred)] = self._remap_setup_value(value)
            if len(args) < len(phi.args):
                self._check_phi_cut_safe(name, phi, args)
            twin.append(Phi(self.names.temp(phi.dst.name), args))

        # Unrolled-loop header: allocate this iteration's record and link
        # it into the chain *before* the constant defs (whose table
        # stores need the record pointer).
        if header_plan is not None:
            rec = loop_recs[header_plan.loop_id]
            cursor = loop_cursors[header_plan.loop_id]
            # cursor phi: head address on entry, next-slot address on the
            # back edge -- unless folding removed the back edge (a body
            # that always returns), so that set-up has no latch to take.
            cursor_args: Dict[str, Value] = {
                setup_pred_name(header_plan.entry_pred):
                    loop_heads[header_plan.loop_id]}
            if name in self.setup_succs.get(header_plan.latch, ()):
                cursor_args[setup_pred_name(header_plan.latch)] = \
                    self._latch_next_temp(header_plan)
            twin.append(Phi(cursor, cursor_args))
            twin.append(Call(rec, "alloc",
                             [IntConst(header_plan.record_size)],
                             intrinsic=True))
            twin.append(Store(cursor, rec))

        # Table stores for resident phi-defined constants (they had to
        # wait for the iteration record to be allocated).
        for phi_name in pending_phi_stores:
            self._append_table_store(twin, phi_name, loop_recs)

        # Constant definitions, in original order, with table stores.
        # Then constants hoisted here from set-up-unreachable blocks.
        def emit_const_defs(source_block: BasicBlock) -> None:
            for instr in source_block.instrs:
                if isinstance(instr, Phi):
                    continue
                dst = instr.defs()
                if dst is None or dst.name not in const_names:
                    continue
                self._append_setup_instr(twin, instr)
                if dst.name in self.residents or (
                        header_plan is not None
                        and dst.name == header_plan.predicate):
                    self._append_table_store(twin, dst.name, loop_recs)

        emit_const_defs(block)
        for source_name in hoisted or []:
            emit_const_defs(func.blocks[source_name])

        # Header: store the predicate into record slot 0 (it may be
        # defined in an earlier block, in which case it was not stored by
        # the loop above).
        if header_plan is not None:
            if header_plan.predicate and \
                    self.def_block.get(header_plan.predicate) != name:
                self._append_table_store(twin, header_plan.predicate,
                                         loop_recs, force_loop=header_plan)
            # Initialize nested-loop head cursors.
            for inner_id, slot in header_plan.inner_head_slots.items():
                addr = self.func.new_temp("int", prefix="sua")
                twin.append(BinOp(addr, "add",
                                  loop_recs[header_plan.loop_id],
                                  IntConst(slot)))
                twin.append(Assign(loop_heads[inner_id], addr))

        # A block that enters a top-level unrolled loop computes the head
        # address (top-level table slot) for the cursor phi.
        for loop in table.loops.values():
            if loop.entry_pred == name and loop.parent is None:
                twin.append(BinOp(loop_heads[loop.loop_id], "add",
                                  self.tbl_temp, IntConst(loop.head_slot)))

        # Latch: compute the next-record slot address for the back edge.
        for loop in table.loops.values():
            if loop.latch == name:
                twin.append(BinOp(self._latch_next_temp(loop), "add",
                                  loop_recs[loop.loop_id],
                                  IntConst(loop.next_offset)))

        twin.append(terminator)

    def _latch_next_temp(self, loop: LoopPlan) -> Temp:
        attr = "_next_temps"
        if not hasattr(self, attr):
            self._next_temps: Dict[int, Temp] = {}
        if loop.loop_id not in self._next_temps:
            self._next_temps[loop.loop_id] = self.func.new_temp(
                "int", prefix="next%d_" % loop.loop_id)
        return self._next_temps[loop.loop_id]

    def _check_phi_cut_safe(self, block: str, phi: Phi,
                            remaining: Dict[str, Value]) -> None:
        """A constant phi that lost incoming edges to set-up cuts is only
        safe when all its values agree (then the cut cannot change it)."""
        original = list(phi.args.values())
        if all(v == original[0] for v in original[1:]):
            return
        if len(remaining) == len(phi.args):
            return
        raise AnnotationError(
            "unsupported region shape: run-time constant %r at merge %s "
            "depends on a path cut from set-up code (a constant merge "
            "reached through a non-constant branch)" % (phi, block))

    def _append_setup_instr(self, twin: BasicBlock, instr: Instr) -> None:
        dst = instr.defs()
        assert dst is not None
        new_dst = self.names.temp(dst.name)
        if isinstance(instr, Assign):
            twin.append(Assign(new_dst, self._remap_setup_value(instr.src)))
        elif isinstance(instr, BinOp):
            twin.append(BinOp(new_dst, instr.op,
                              self._remap_setup_value(instr.lhs),
                              self._remap_setup_value(instr.rhs)))
        elif isinstance(instr, UnOp):
            twin.append(UnOp(new_dst, instr.op,
                             self._remap_setup_value(instr.src)))
        elif isinstance(instr, Call):
            twin.append(Call(new_dst, instr.callee,
                             [self._remap_setup_value(a) for a in instr.args],
                             pure=instr.pure, intrinsic=instr.intrinsic))
        else:
            from ..ir.instructions import Load
            assert isinstance(instr, Load), instr
            twin.append(Load(new_dst, self._remap_setup_value(instr.addr),
                             dynamic=False, is_float=instr.is_float))

    def _append_table_store(self, twin: BasicBlock, name: str,
                            loop_recs: Dict[int, Temp],
                            force_loop: Optional[LoopPlan] = None) -> None:
        table = self.plan.table
        value = self.names.mapping.get(name, Temp(name))
        is_float = table.float_names.get(name, False)
        if force_loop is not None:
            base: Value = loop_recs[force_loop.loop_id]
            index = 0
        else:
            slot = table.slot_of(name)
            if slot is None:
                return
            loop_id, index = slot
            if loop_id is None:
                base = self.tbl_temp
            else:
                base = loop_recs[loop_id]
        addr = self.func.new_temp("int", prefix="sua")
        twin.append(BinOp(addr, "add", base, IntConst(index)))
        twin.append(Store(addr, value, is_float=is_float))

    # -- step 4: validation ------------------------------------------------

    def _validate_setup(self) -> None:
        """Coverage + acyclicity of the set-up graph."""
        entry = self._setup_name(self.region.entry)
        reachable = {self.plan.setup_entry}
        work = [self.plan.setup_entry]
        while work:
            current = work.pop()
            for succ in self.func.blocks[current].successors():
                if succ not in reachable and succ in self.plan.setup_blocks:
                    reachable.add(succ)
                    work.append(succ)
        for name in sorted(self.residents):
            block = self.def_block.get(name)
            if block is None:
                continue  # stored in the preamble
            block = self._hoist_target.get(block, block)
            if self._setup_name(block) not in reachable:
                raise AnnotationError(
                    "unsupported region shape: run-time constant %s is "
                    "defined in block %s, which set-up code cannot reach "
                    "(it is guarded by a non-constant branch)"
                    % (name, block))
        # Acyclicity modulo unrolled back edges.
        back_edges = {
            (self._setup_name(loop.latch), self._setup_name(loop.header))
            for loop in self.plan.table.loops.values()
        }
        if entry not in self.func.blocks:
            return
        # A depth-first search on an explicit stack of (block, its
        # successors not yet tried); 1 marks a block on the stack.
        blocks = self.func.blocks
        colors: Dict[str, int] = {self.plan.setup_entry: 1}
        dfs = [(self.plan.setup_entry,
                iter(blocks[self.plan.setup_entry].successors()))]
        while dfs:
            node, succs = dfs[-1]
            for succ in succs:
                if succ not in self.plan.setup_blocks:
                    continue
                if (node, succ) in back_edges:
                    continue
                state = colors.get(succ, 0)
                if state == 1:
                    raise AnnotationError(
                        "unsupported region shape: set-up code for region "
                        "%d contains a loop not marked 'unrolled' (a "
                        "run-time constant computation inside a "
                        "non-unrolled, non-constant loop)"
                        % self.region.region_id)
                if state == 0:
                    colors[succ] = 1
                    dfs.append((succ, iter(blocks[succ].successors())))
                    break
            else:
                colors[node] = 2
                dfs.pop()

    # -- step 5: template rewriting -----------------------------------------

    def _hole_for(self, name: str) -> HoleRef:
        slot = self.plan.table.slot_of(name)
        assert slot is not None, "no table slot for %s" % name
        loop_id, index = slot
        return HoleRef(index, loop_id,
                       is_float=self.plan.table.float_names.get(name, False))

    def _rewrite_templates(self) -> None:
        func = self.func
        const_names = self.analysis.const_names
        for name in self.blocks:
            block = func.blocks[name]
            new_instrs: List[Instr] = []
            for instr in block.instrs:
                dst = instr.defs()
                if dst is not None and dst.name in const_names:
                    continue  # moved to set-up code
                mapping: Dict[Value, Value] = {}
                for used in instr.uses():
                    if isinstance(used, Temp) and used.name in const_names:
                        mapping[used] = self._hole_for(used.name)
                if mapping:
                    instr.replace_uses(mapping)
                new_instrs.append(instr)
            # Rematerialize constants that are used after the region.
            remats = [
                Assign(Temp(const), self._hole_for(const))
                for const in sorted(self.outside_uses)
                if self.def_block.get(const) == name
            ]
            phis = [i for i in new_instrs if isinstance(i, Phi)]
            rest = [i for i in new_instrs if not isinstance(i, Phi)]
            block.instrs = phis + remats + rest
            term = block.terminator
            assert term is not None
            if name in self.analysis.const_branches and \
                    len(set(term.successors())) > 1:
                pred = term.cond if isinstance(term, CondBr) else term.value  # type: ignore[union-attr]
                if isinstance(pred, Temp):
                    slot = self.plan.table.slot_of(pred.name)
                    assert slot is not None
                    self.plan.const_branch_slots[name] = slot
                    term.replace_uses({pred: self._hole_for(pred.name)})
                else:
                    # Literal predicate: fold here (dead side never
                    # stitched anyway, but keep IR clean).
                    pass
            else:
                mapping = {}
                for used in term.uses():
                    if isinstance(used, Temp) and used.name in const_names:
                        mapping[used] = self._hole_for(used.name)
                if mapping:
                    term.replace_uses(mapping)
        self.plan.template_blocks = set(self.blocks)
        self.plan.template_entry = self.region.entry
        self.plan.exit_block = self.region.exit
        self._compute_extended_bodies()

    def _compute_extended_bodies(self) -> None:
        """Blocks outside an unrolled loop's body that consume its
        iteration-scoped constants must be stitched once per iteration:
        record them so the stitcher keeps the loop environment alive."""
        func = self.func

        def hole_loops(name: str) -> Set[int]:
            found: Set[int] = set()
            for instr in func.blocks[name].all_instrs():
                for used in instr.uses():
                    if isinstance(used, HoleRef) and used.loop_id is not None:
                        found.add(used.loop_id)
            return found

        for loop_plan in self.plan.table.loops.values():
            body = set(loop_plan.body)
            scope: Set[str] = set()
            changed = True
            while changed:
                changed = False
                for name in self.blocks:
                    if name in body or name in scope:
                        continue
                    refs = loop_plan.loop_id in hole_loops(name)
                    if not refs:
                        refs = any(
                            succ in scope
                            for succ in func.blocks[name].successors()
                            if succ in self.block_set)
                    if refs:
                        scope.add(name)
                        changed = True
            loop_plan.extended_body = sorted(scope)

    # -- step 6: dispatch wiring ---------------------------------------------

    def _wire_dispatch(self) -> None:
        func = self.func
        region = self.region
        keys = list(region.key_temps or [])

        dispatch = func.new_block("rd%d_dispatch" % region.region_id)
        enter = func.new_block("rd%d_enter" % region.region_id)
        self.plan.dispatch_block = dispatch.name
        self.plan.enter_block = enter.name

        code1 = func.new_temp("int", prefix="code")
        code2 = func.new_temp("int", prefix="code")
        code3 = func.new_temp("int", prefix="code")

        dispatch.append(RegionLookup(code1, region.region_id, keys))
        dispatch.append(CondBr(code1, enter.name, self.plan.setup_entry))

        stitch = self.stitch_blockobj
        stitch.append(RegionStitch(code2, region.region_id, self.tbl_temp,
                                   keys))
        stitch.append(Jump(enter.name))

        enter.append(Phi(code3, {dispatch.name: code1,
                                 stitch.name: code2}))
        enter.append(RegionEnter(code3, region.region_id, region.entry))

        # Retarget the region entry's external predecessors to dispatch.
        for name, block in func.blocks.items():
            if name in self.block_set or name in self.plan.setup_blocks:
                continue
            if name in (dispatch.name, enter.name):
                continue
            term = block.terminator
            if term is not None and region.entry in term.successors():
                term.replace_successor(region.entry, dispatch.name)
