"""The execution engine: compile MiniC, run it on the RVM, measure.

This is the library's main entry point.  :func:`compile_program`
drives the full static pipeline (parse, check, lower to IR, SSA,
optimize, split regions, register-allocate, generate code and
templates); :class:`Program.run` executes the result on a fresh VM with
the dynamic-compilation runtime installed (keyed code cache, stitcher
hooks) and returns cycle accounting per component -- everything the
Table 2 harness needs.

Modes:

* ``"dynamic"`` -- the paper's system: regions split, templates
  stitched on first entry.
* ``"static"``  -- the baseline: annotations ignored, regions compiled
  as ordinary code (cycles still attributed per region for the
  comparison).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from ..backends import get_backend
from ..codecache import CacheKey, CacheStats, CodeCache, region_key
from ..codegen.lower import DataLayout, lower_module
from ..codegen.objects import CompiledFunction, RegionCode
from ..dynamic.splitter import RegionPlan, split_module
from ..dynamic.stitcher import StitchReport, charge_stitch, stitch_entry
from ..errors import RegionNotFound, StitchBudgetExceeded, StitchError
from ..frontend.parser import parse
from ..frontend.typecheck import check
from ..ir.builder import build_module
from ..ir.cfg import Module
from ..ir.ssa import from_ssa, to_ssa
from ..machine.costs import StitcherCosts
from ..machine.isa import ARG_BASE, CPOOL, MInstr
from ..machine.loader import load_program
from ..machine.vm import VM, VMError
from ..obs import trace as obs_trace
from ..opt.pipeline import OptOptions, OptStats, optimize
from .config import RunConfig
from .fallback import FallbackCode, build_fallback
from .guards import BreakerConfig, RegionBreaker, StitchBudget
from .runlog import RunEvent, RunLog
from .stitchqueue import QueueStats, StitchJob, StitchQueue
from .tiering import TierController

Number = Union[int, float]


class EntryEvent(NamedTuple):
    """One region entry, as the region runtime served it.

    ``kind`` is one of:

    * ``hit`` -- stitched code reused from the keyed code cache;
    * ``stitch`` -- stitched now (``report`` is the
      :class:`StitchReport`);
    * ``fallback`` -- degraded to the static fallback tier.  ``reason``
      names the rung of the degradation ladder: ``fault`` (an injected
      failure), ``budget`` (a resource guard tripped), ``error`` (a
      genuine stitch/arena failure) or ``breaker`` (the region's
      circuit breaker was open -- no stitch was attempted).
      ``injected`` is True only for faults raised by the
      :mod:`repro.faults` harness;
    * ``cold`` -- kept on the fallback tier by an adaptive tiering
      policy: the policy working as intended, not a degradation.
      ``reason`` is the policy's mode (``threshold`` or ``breakeven``);
    * ``queued`` -- served from fallback because of the async stitch
      queue.  ``reason`` is the job's phase: ``enqueued`` (this entry
      created the job), ``waiting`` (pending or backing off), ``hung``
      (wedged by a ``stitch.hang`` fault), ``shed`` (refused by
      admission control) or ``dropped`` (eaten by a ``queue.drop``
      fault).

    Every kind but ``hit`` is a code-cache miss.
    """

    kind: str
    func_name: str
    region_id: int
    key: Tuple[Number, ...]
    #: the pc the dispatch glue jumped to.
    entry: int
    reason: str = ""
    injected: bool = False
    #: the key's 1-based entry count, for fallback-served entries of
    #: an adaptive run (0 otherwise).
    count: int = 0
    report: Optional[StitchReport] = None


@dataclass
class RunResult:
    """Outcome and measurements of one program execution."""

    value: int
    float_value: float
    output: List[Number]
    cycles: int
    cycles_by_owner: Dict[str, int]
    instrs_by_owner: Dict[str, int]
    #: every region entry in execution order, logged exactly once.
    entries: List[EntryEvent] = field(default_factory=list)
    #: every other runtime event, in order (see repro.runtime.runlog).
    events: List[RunEvent] = field(default_factory=list)
    #: executed-instruction histogram by opcode.
    op_counts: Dict[str, int] = field(default_factory=dict)
    #: (func, region_id) -> region entries, counted by the lookup
    #: service itself: the witness the oracle checks ``entries``
    #: against.
    region_entries: Dict[Tuple[str, int], int] = field(
        default_factory=dict)
    #: code-cache accounting: policy, hits/misses, evictions,
    #: compactions, invalidations, re-stitches, and the live code
    #: ranges (the only run-time ranges invariant checks may scan).
    cache_stats: Optional[CacheStats] = None
    #: installed fallback code ranges as (base, words, entry_pc) -- the
    #: run-time ranges the oracle's reachability scan must also cover.
    fallback_blocks: List[Tuple[int, int, int]] = field(
        default_factory=list)
    #: fault site -> this run's ``fault.inject`` events.
    fault_counts: Dict[str, int] = field(default_factory=dict)
    #: (func, region_id) -> circuit-breaker snapshot, for regions whose
    #: breaker saw at least one failure.
    breaker_stats: Dict[Tuple[str, int], Dict[str, int]] = field(
        default_factory=dict)
    #: (func, region_id) -> adaptive-tiering stats (promotions,
    #: demotions, per-key counters...); empty for eager runs.
    tier_stats: Dict[Tuple[str, int], Dict[str, object]] = field(
        default_factory=dict)
    #: async stitch-queue accounting; None for sync runs.
    queue_stats: Optional[QueueStats] = None
    #: registry name of the execution backend that produced this run.
    backend: str = "rvm"

    # Views of ``entries`` by kind, in execution order.

    def _of_kind(self, kind: str) -> List[EntryEvent]:
        return [event for event in self.entries if event.kind == kind]

    @property
    def cache_hits(self) -> List[EntryEvent]:
        return self._of_kind("hit")

    @property
    def stitch_reports(self) -> List[StitchReport]:
        return [event.report for event in self._of_kind("stitch")]

    @property
    def fallbacks(self) -> List[EntryEvent]:
        return self._of_kind("fallback")

    @property
    def cold_entries(self) -> List[EntryEvent]:
        return self._of_kind("cold")

    @property
    def queued_entries(self) -> List[EntryEvent]:
        return self._of_kind("queued")

    def owner_cycles(self, prefix: str) -> int:
        """Total cycles across owners starting with ``prefix``."""
        return sum(c for owner, c in self.cycles_by_owner.items()
                   if owner.startswith(prefix))

    def region_cycles(self, func: str, region_id: int,
                      mode: str) -> Dict[str, int]:
        """Cycle breakdown for one region.

        For dynamic mode: ``stitched`` (executions of compiled code),
        ``setup`` (set-up code), ``stitcher`` (dynamic compile),
        ``dispatch`` (lookup/enter glue).  For static mode: ``region``.
        """
        suffix = "%s:%d" % (func, region_id)
        if mode == "static":
            return {"region": self.cycles_by_owner.get(
                "region:" + suffix, 0)}
        return {
            "stitched": self.cycles_by_owner.get("stitched:" + suffix, 0),
            "setup": self.cycles_by_owner.get("setup:" + suffix, 0),
            "stitcher": self.cycles_by_owner.get("stitcher:" + suffix, 0),
            "dispatch": self.cycles_by_owner.get("dispatch:" + suffix, 0),
        }


class Program:
    """A compiled MiniC program, ready to run on fresh VMs."""

    def __init__(self, compiled: Dict[str, CompiledFunction],
                 layout: DataLayout, mode: str,
                 plans: List[RegionPlan],
                 stitcher_costs: StitcherCosts,
                 opt_stats: Optional[Dict[str, OptStats]] = None,
                 register_actions: bool = False,
                 stitch_budget: Optional[StitchBudget] = None,
                 breaker_config: Optional[BreakerConfig] = None,
                 config: Optional[RunConfig] = None):
        self.compiled = compiled
        self.layout = layout
        self.mode = mode
        self.plans = plans
        self.stitcher_costs = stitcher_costs
        self.opt_stats = opt_stats or {}
        self.register_actions = register_actions
        #: per-stitch resource guard; None = unlimited.
        self.stitch_budget = stitch_budget
        #: circuit-breaker tuning (always on; a no-op without failures).
        self.breaker_config = breaker_config or BreakerConfig()
        #: the run configuration every run starts from (a ``run`` call
        #: can override its cache, faults, tier and stitch fields); the
        #: default is the paper's engine: eager, inline stitching into
        #: an unbounded cache on rvm, no faults.
        self.config = config or RunConfig()
        #: the execution backend the config names: owns host execution
        #: and per-install artifact compilation for every run of this
        #: program (its prepared code lives in the cached VM).
        self.backend = get_backend(self.config.backend)
        # Cached VM for repeated runs: re-installing, re-resolving and
        # re-predecoding the static code (and the backend's prepare_vm)
        # would dominate the host cost of short executions.  The cache
        # holds the VM plus the static code length so run-time-stitched
        # code can be truncated away before the next run.
        self._vm: Optional[VM] = None
        self._vm_code_len = 0

    # -- introspection ------------------------------------------------------

    def region_codes(self) -> List[RegionCode]:
        return [region for function in self.compiled.values()
                for region in function.regions]

    def template_size(self, func: str, region_id: int) -> int:
        """Template instructions for a region (static code-space cost)."""
        for function in self.compiled.values():
            for region in function.regions:
                if function.name == func and region.region_id == region_id:
                    return sum(len(b.instrs) for b in region.blocks.values())
        raise RegionNotFound("no region %d in %s" % (region_id, func))

    # -- execution ------------------------------------------------------------

    def _acquire_vm(self, memory_words: int, max_cycles: int) -> VM:
        """A loaded VM: the cached one reset in place, or a fresh one.

        A reset VM keeps its installed static code, its predecoded
        handlers and the backend's prepared artifacts; its data memory
        is emptied in place and ``write_into`` re-applies the initial
        data image, so repeated ``run`` calls skip the dominant set-up
        cost.  Function bases are unchanged across reuse, so symbol
        resolution is skipped too.
        """
        vm = self._vm
        if vm is not None and vm.memory_words == memory_words:
            vm.reset_for_rerun(self._vm_code_len)
            vm.max_cycles = max_cycles
        else:
            vm = VM(memory_words=memory_words, max_cycles=max_cycles)
            load_program(vm, self.compiled)
            self._vm = vm
            self._vm_code_len = len(vm.code)
            # Static image in place, labels resolved: let the backend
            # compile it once (survives reset_for_rerun, amortizing
            # across repeated runs of the same program).
            self.backend.prepare_vm(vm, self._vm_code_len)
        self.layout.write_into(vm)
        return vm

    def run(self, func: str = "main", args: Optional[List[Number]] = None,
            max_cycles: int = 4_000_000_000,
            memory_words: int = 1 << 22,
            cache=None, faults=None, tier=None, stitch=None
            ) -> RunResult:
        """Run ``func(*args)``.  ``cache``, ``faults``, ``tier`` and
        ``stitch`` override those fields of the program's
        :class:`RunConfig` for this execution (an object or a spec
        string each; None keeps the program's).  ``memory_words`` is
        the size of the VM's address space (the stack starts just below
        its top, the heap ends 64K words below it); data memory is
        sparse, so a large address space costs nothing until it is
        written."""
        vm = self._acquire_vm(memory_words, max_cycles)
        runtime = _RegionRuntime(self, vm, self.config.replace(
            cache=cache, faults=faults, tier=tier, stitch=stitch))
        entry_fn = self.compiled.get(func)
        if entry_fn is None:
            raise VMError("no function named %s" % func)
        preload: List[Tuple[int, Number]] = []
        for i, arg in enumerate(args or []):
            preload.append((ARG_BASE + i, arg))
        # The region services hold this run's runtime, which holds the
        # VM and this program: installed for the run alone, so neither
        # outlives it in a reference cycle.
        vm.rt_handlers["region_lookup"] = runtime.lookup
        vm.rt_handlers["region_stitch"] = runtime.stitch
        try:
            with obs_trace.span("vm.run", "vm", func=func, mode=self.mode,
                                backend=self.backend.name) as span:
                int_result, float_result = self.backend.execute(
                    vm, entry_fn.base, preload)
                if span is not None:
                    span["cycles"] = vm.cycles
                    span["value"] = int_result
                    kinds = [event.kind for event in runtime.log.entries]
                    span["stitches"] = kinds.count("stitch")
                    span["cache_hits"] = kinds.count("hit")
        finally:
            del vm.rt_handlers["region_lookup"]
            del vm.rt_handlers["region_stitch"]
            if runtime.queue is not None:
                runtime.queue.on_deadline = None
        log = runtime.log
        result = RunResult(
            value=int_result,
            float_value=float_result,
            output=vm.output,
            cycles=vm.cycles,
            cycles_by_owner=dict(vm.cycles_by_owner),
            instrs_by_owner=dict(vm.instrs_by_owner),
            entries=log.entries,
            events=log.events,
            op_counts=dict(vm.op_counts),
            region_entries=dict(runtime.region_entries),
            cache_stats=runtime.cache.snapshot(),
            fallback_blocks=[(fb.base, fb.words, fb.entry)
                             for fb in runtime.fallback_codes.values()],
            fault_counts=dict(Counter(
                event.args["site"] for event in log.of_kind("fault.inject"))),
            breaker_stats={
                region: breaker.snapshot()
                for region, breaker in runtime.breakers.items()
                if breaker.trips or breaker.resets or breaker.consecutive
            },
            tier_stats=(runtime.tier.snapshot()
                        if runtime.tier is not None else {}),
            queue_stats=(runtime.queue.snapshot()
                         if runtime.queue is not None else None),
            backend=self.backend.name,
        )
        log.finish(result)
        return result


class _RegionRuntime:
    """The ``region_lookup`` / ``region_stitch`` services for one VM
    execution under one :class:`RunConfig` (default: the program's),
    backed by the :class:`~repro.codecache.CodeCache`."""

    def __init__(self, program: Program, vm: VM,
                 config: Optional[RunConfig] = None):
        config = config or program.config
        self.program = program
        self.vm = vm
        #: every region entry and runtime event of this run, in order.
        self.log = log = RunLog(vm)
        #: this run's fault plan; its injections go to this run's log.
        self.faults = faults = config.fault_plan()
        if faults is not None:
            faults.log = log
        #: the code cache: keyed versions, eviction, compaction.  The
        #: program's backend hooks every install, so stitched entries
        #: get their host artifact whichever path placed them.
        self.cache: CodeCache = CodeCache(vm, program.backend, log,
                                          config.cache, faults=faults)
        #: (func, region_id) -> entries (every lookup, hit or miss).
        self.region_entries: Dict[Tuple[str, int], int] = {}
        #: lazily built generic code per region (first entry served
        #: from fallback).
        self.fallback_codes: Dict[Tuple[str, int], FallbackCode] = {}
        #: per-region circuit breakers (created on first stitch).
        self.breakers: Dict[Tuple[str, int], RegionBreaker] = {}
        self._regions: Dict[Tuple[str, int], RegionCode] = {}
        for function in program.compiled.values():
            for region in function.regions:
                self._regions[(function.name, region.region_id)] = region
        #: adaptive-tiering controller; None for eager runs, which
        #: keeps the eager path bit-identical to the historical engine.
        self.tier: Optional[TierController] = None
        if config.tier.adaptive:
            self.tier = TierController(config.tier, vm, self._regions,
                                       program.stitcher_costs, log,
                                       faults=faults)
        #: the async stitch queue; None for sync runs, which therefore
        #: take exactly the historical inline-stitch code path.
        self.queue: Optional[StitchQueue] = None
        if config.stitch.asynchronous:
            queue = self.queue = StitchQueue(config.stitch, vm, log,
                                             faults=faults)
            queue.on_deadline = self._on_job_deadline
            # A fingerprint invalidation makes the region's queued
            # jobs obsolete.
            self.cache.on_invalidate = \
                lambda f, r: queue.cancel_region(f, r, "invalidate")

    def lookup(self, vm: VM, instr: MInstr) -> int:
        func, region_id = instr.extra  # type: ignore[misc]
        region = self._regions[(func, region_id)]
        key = CacheKey(func, region_id,
                       region_key(vm.regs, region.key_count))
        entries = self.region_entries
        entries[key.region] = entries.get(key.region, 0) + 1
        tier = self.tier
        if tier is not None:
            tier.on_entry(func, region_id, key.key)
        if self.queue is not None:
            # The background compiler's logical clock: every region
            # entry ticks it; a due tick drains the queue (watchdog +
            # readiness) before this entry is served.
            self.queue.on_entry()
        cached = self.cache.lookup(key)
        if cached is None:
            # Miss: the dispatch glue falls through to region_stitch,
            # which logs this entry however it serves it.
            return 0
        if tier is not None:
            tier.on_hit(func, region_id, key.key, cached)
        vm.regs[CPOOL] = cached.pool_base
        return self.log.entry(
            EntryEvent("hit", func, region_id, key.key, cached.entry_pc))

    def stitch(self, vm: VM, instr: MInstr) -> int:
        func, region_id = instr.extra  # type: ignore[misc]
        region = self._regions[(func, region_id)]
        table_addr = int(vm.regs[ARG_BASE])
        key = region_key(vm.regs, region.key_count, stitch_args=True)
        breaker = self._breaker((func, region_id))
        if not breaker.should_attempt():
            # Circuit open: the region is pinned to static execution
            # until the cooldown (counted in region entries) expires.
            # This outranks tiering -- a tripped region never promotes
            # mid-cooldown, however hot its keys run.
            breaker.on_entry_while_open()
            return self._serve_fallback("fallback", func, region_id, key,
                                        table_addr, "breaker")
        tier = self.tier
        if tier is not None and not tier.decide(func, region_id, key):
            return self._serve_fallback("cold", func, region_id, key,
                                        table_addr, tier.policy.mode)
        queue = self.queue
        job: Optional[StitchJob] = None
        if queue is not None:
            # Async mode: the promotion decision above became an
            # *enqueue* decision.  A miss with no job admits one and
            # is served from fallback; a miss whose job is still
            # pending keeps waiting; only a *ready* job stitches here,
            # against this entry's fresh table (tables are entry-local
            # -- the same reason tiering promotions land one entry
            # late), charging the stitcher owner at completion time.
            job = queue.get(func, region_id, key)
            if job is None:
                priority = tier.count(func, region_id, key) \
                    if tier is not None \
                    else queue.key_count(func, region_id, key)
                phase = queue.enqueue(func, region_id, key, priority)
                return self._serve_fallback("queued", func, region_id,
                                            key, table_addr, phase)
            if job.state != "ready":
                phase = "hung" if job.state == "hung" else "waiting"
                return self._serve_fallback("queued", func, region_id,
                                            key, table_addr, phase)
            if self.faults is not None and self.faults.should_fire(
                    "stitch.hang", region=(func, region_id)):
                queue.mark_hung(job)
                return self._serve_fallback("queued", func, region_id,
                                            key, table_addr, "hung")
            queue.landing = job
        try:
            # An evicted version whose table walk still matches is
            # re-installed instead of stitched again, at its original
            # stitch's price.
            entry = self.cache.revive(CacheKey(func, region_id, key),
                                      table_addr)
            if entry is None:
                entry = stitch_entry(
                    vm, self.program.compiled[func], region,
                    table_addr, self.program.stitcher_costs, key=key,
                    register_actions=self.program.register_actions,
                    functions=self.program.compiled,
                    faults=self.faults, budget=self.program.stitch_budget)
            else:
                charge_stitch(vm, region, entry.report.cycles)
            self.cache.insert(entry)
        except (StitchError, VMError) as exc:
            # The degradation ladder: any failure of run-time code
            # generation -- a stitch error, a tripped budget, arena
            # exhaustion, an injected fault -- transfers this entry
            # (and the region, once the breaker trips) to the static
            # fallback instead of killing the run.
            breaker.on_failure()
            if queue is not None and job is not None:
                queue.landing = None
                queue.on_land_failure(job)
                if not breaker.should_attempt():
                    # The breaker tripped: the region is pinned static
                    # for the cooldown, so its queued work is moot.
                    queue.cancel_region(func, region_id, "breaker")
            injected = bool(getattr(exc, "injected", False))
            if isinstance(exc, StitchBudgetExceeded):
                reason = "budget"
            elif injected:
                reason = "fault"
            else:
                reason = "error"
            return self._serve_fallback("fallback", func, region_id, key,
                                        table_addr, reason, injected)
        breaker.on_success()
        if queue is not None and job is not None:
            queue.landing = None
            queue.finish(job, "landed")
        if tier is not None:
            tier.on_promote(func, region_id, key, entry)
        report = entry.report
        vm.regs[CPOOL] = report.pool_base
        return self.log.entry(
            EntryEvent("stitch", func, region_id, key, report.entry,
                       report=report))

    def _serve_fallback(self, kind: str, func: str, region_id: int,
                        key: Tuple[Number, ...], table_addr: int,
                        reason: str = "", injected: bool = False) -> int:
        """Serve this region entry from the region's generic fallback
        code -- ``cold`` by tiering policy, ``queued`` behind an async
        stitch job, or degraded (``fallback``) -- pointing its table
        cell at the freshly filled constants table.  The code is built
        on the region's first such entry."""
        fb = self.fallback_codes.get((func, region_id))
        if fb is None:
            fb = build_fallback(self.vm, self.program.compiled[func],
                                self._regions[(func, region_id)],
                                self.program.compiled,
                                backend=self.program.backend)
            self.fallback_codes[(func, region_id)] = fb
            self.log.event("fallback.build", (func, region_id),
                           words=fb.words, entry=fb.entry)
            # The block lives inside the code arena's address range but
            # must survive compaction and stay out of cache capacity.
            self.cache.reserve(fb.base, fb.words)
        self.vm.store(fb.table_cell, table_addr)
        count = 0
        tier = self.tier
        if tier is not None:
            count = tier.count(func, region_id, key)
            tier.on_fallback(func, region_id, key,
                             degraded=kind == "fallback")
        return self.log.entry(EntryEvent(kind, func, region_id, key,
                                         fb.entry, reason, injected, count))

    def _breaker(self, region: Tuple[str, int]) -> RegionBreaker:
        breaker = self.breakers.get(region)
        if breaker is None:
            breaker = self.breakers[region] = RegionBreaker(
                self.program.breaker_config, *region, log=self.log)
        return breaker

    def _on_job_deadline(self, job: StitchJob) -> None:
        """Watchdog: a queued job blew its simulated-cycle deadline.
        That is a compilation failure like any other -- it feeds the
        region's breaker, and a trip flushes the region's queue."""
        breaker = self._breaker(job.region)
        breaker.on_failure()
        if not breaker.should_attempt() and self.queue is not None:
            self.queue.cancel_region(job.func_name, job.region_id,
                                     "breaker")


def compile_program(source: str, mode: str = "dynamic",
                    opt_options: Optional[OptOptions] = None,
                    use_reachability: bool = True,
                    stitcher_costs: Optional[StitcherCosts] = None,
                    register_actions: bool = False,
                    module_name: str = "program",
                    stitch_budget: Optional[StitchBudget] = None,
                    breaker_config: Optional[BreakerConfig] = None,
                    config: Union[RunConfig, str, None] = None,
                    **settings) -> Program:
    """Compile MiniC source through the full static pipeline.

    ``mode`` is ``"dynamic"`` (regions split + stitched at run time) or
    ``"static"`` (annotations ignored -- the paper's baseline).
    ``register_actions`` enables the section 5 extension: the stitcher
    promotes constant-index frame-array elements to unused registers.
    ``stitch_budget`` / ``breaker_config`` tune the graceful-degradation
    tier (see ``docs/ROBUSTNESS.md``).  ``config`` (a
    :class:`RunConfig` or its spec) is the program's run configuration
    -- backend, cache, faults, tier and stitch; default the paper's
    engine -- and keyword ``settings`` override single fields of it by
    name, e.g. ``backend="pycode"`` or ``tier="threshold:2"``.
    """
    config = RunConfig.parse(config).replace(**settings)
    if mode not in ("dynamic", "static"):
        raise ValueError("mode must be 'dynamic' or 'static'")
    with obs_trace.span("frontend.parse", "frontend",
                        chars=len(source)) as span:
        ast = parse(source)
        if span is not None:
            span["decls"] = len(ast.decls)
    with obs_trace.span("frontend.typecheck", "frontend"):
        ast = check(ast)
    with obs_trace.span("ir.build", "frontend", module=module_name) as span:
        module = build_module(ast, name=module_name)
        if span is not None:
            span["functions"] = len(module.functions)
    return compile_ir_module(module, mode=mode, opt_options=opt_options,
                             use_reachability=use_reachability,
                             stitcher_costs=stitcher_costs,
                             register_actions=register_actions,
                             stitch_budget=stitch_budget,
                             breaker_config=breaker_config, config=config)


def _refresh_plan_membership(func, plans: List[RegionPlan],
                             split_records: List[tuple]) -> None:
    """Fold critical-edge blocks created by ``from_ssa`` back into the
    region plans: a block splitting a template->template edge is
    template code (it carries phi copies, possibly with holes); one
    splitting a setup->setup edge is set-up code.  Unrolled-loop body
    lists in the table plan are refreshed from the (already updated)
    region metadata."""
    for plan in plans:
        plan.template_blocks = set(
            name for name in plan.region.blocks if name in func.blocks)
        for new, pred, succ in split_records:
            if pred in plan.setup_blocks and succ in plan.setup_blocks:
                plan.setup_blocks.add(new)
        loops_by_id = {loop.loop_id: loop
                       for loop in plan.region.unrolled_loops}
        for loop_plan in plan.table.loops.values():
            info = loops_by_id.get(loop_plan.loop_id)
            if info is not None:
                loop_plan.body = sorted(info.body)
            # A critical-edge block leading into the loop's extended
            # body must keep the iteration environment alive too.
            extended = set(loop_plan.extended_body)
            for new, _pred, succ in split_records:
                if succ in extended:
                    extended.add(new)
            loop_plan.extended_body = sorted(extended)


def compile_ir_module(module: Module, mode: str = "dynamic",
                      opt_options: Optional[OptOptions] = None,
                      use_reachability: bool = True,
                      stitcher_costs: Optional[StitcherCosts] = None,
                      register_actions: bool = False,
                      stitch_budget: Optional[StitchBudget] = None,
                      breaker_config: Optional[BreakerConfig] = None,
                      config: Optional[RunConfig] = None) -> Program:
    """Compile an already-built IR module (for IR-level tests)."""
    opt_options = opt_options or OptOptions()
    stats: Dict[str, OptStats] = {}
    for func in module.functions.values():
        to_ssa(func)
        stats[func.name] = optimize(func, opt_options)
    plans: List[RegionPlan] = []
    if mode == "dynamic":
        with obs_trace.span("split.module", "split") as span:
            plans = split_module(module,
                                 use_reachability=use_reachability)
            if span is not None:
                span["regions"] = len(plans)
    plans_by_func: Dict[str, List[RegionPlan]] = {}
    for plan in plans:
        plans_by_func.setdefault(plan.func_name, []).append(plan)
    for func in module.functions.values():
        split_records = from_ssa(func)
        func.verify()
        _refresh_plan_membership(func, plans_by_func.get(func.name, []),
                                 split_records)
    layout = DataLayout()
    layout.add_module_globals(module)
    with obs_trace.span("codegen.lower", "codegen", mode=mode) as span:
        compiled = lower_module(
            module, layout, plans_by_func,
            reserve_action_regs=8 if register_actions else 0)
        if span is not None:
            span["functions"] = len(compiled)
            span["instrs"] = sum(len(cf.code)
                                 for cf in compiled.values())
    return Program(compiled, layout, mode, plans,
                   stitcher_costs or StitcherCosts(), stats,
                   register_actions=register_actions,
                   stitch_budget=stitch_budget,
                   breaker_config=breaker_config, config=config)
