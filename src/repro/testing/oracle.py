"""The three-way differential oracle.

Runs one MiniC program through three independent execution paths --

1. the reference interpreter on raw (unoptimized, unsplit) IR,
2. static RVM compilation (annotations ignored -- the paper's
   baseline), and
3. the full dynamic path (regions split, templates stitched at the
   first entry)

-- and compares everything observable: the integer return value, the
float return register, the printed output (ints and floats,
bit-exact), and the final contents of every global (the program's
memory effects).  The dynamic program is additionally run a second
time on its cached VM (exercising the code-cache hit and the
reset-for-rerun path) and, optionally, once more with the register-
actions extension enabled.  A fourth standing leg repeats the dynamic
configuration under the *other* registered execution backend (pycode
when the primary is the default rvm, and vice versa), so every oracle
run doubles as a bit-for-bit proof that the backend seam never
changes a simulated observable.

On top of value agreement, the oracle checks *stitch-report
invariants* on every dynamic run:

* every stitch produced a valid entry inside installed code;
* every branch emitted into stitched code has a resolved, in-range
  target (no HOLE or label left unpatched);
* every stitched instruction is reachable from the region entry --
  the stitcher must not emit dead-branch code;
* unrolled-loop iteration counts are positive and the report's cycle
  total matches the stitcher cost model.

A failed comparison is reported as a :class:`Divergence` naming the
two legs that disagree -- the input to the ablation bisector.
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..backends import get_backend
from ..codecache import CacheConfig
from ..faults import NON_RAISING_SITES, FaultPlan
from ..frontend.errors import AnnotationError, CompileError
from ..frontend.parser import parse
from ..frontend.typecheck import check
from ..ir.builder import build_module
from ..machine.costs import StitcherCosts
from ..machine.vm import VMError
from ..opt.pipeline import OptOptions
from ..runtime.engine import Program, compile_program
from ..runtime.interp import Interpreter, InterpError
from ..runtime.tiering import TierPolicy

Number = Union[int, float]

__all__ = ["OracleOutcome", "Divergence", "OracleReport", "run_oracle",
           "check_stitch_invariants"]


@dataclass
class OracleOutcome:
    """What one execution leg observed (or how it failed)."""

    leg: str
    # "ok" | "compile-error" | "trap" | "annotation-reject".  The last
    # is an AnnotationError from the region splitter: a *legitimate*
    # rejection of an unsupported region shape, not a divergence (the
    # interpreter and static legs ignore annotations entirely, so they
    # accept programs the dynamic path may refuse).
    status: str
    value: Optional[int] = None
    output: List[Number] = field(default_factory=list)
    globals: Dict[str, List[Number]] = field(default_factory=dict)
    error: str = ""
    #: the leg's last RunResult (VM legs only) -- host-side telemetry
    #: for the fuzzer's health checks.  Never part of observables().
    run_result: Optional[object] = field(default=None, repr=False,
                                         compare=False)

    def observables(self) -> Tuple:
        if self.status != "ok":
            return (self.status,)
        return (self.value, tuple(self.output),
                tuple(sorted((name, tuple(vals))
                             for name, vals in self.globals.items())))


@dataclass
class Divergence:
    """Two legs disagreed (or an invariant failed)."""

    kind: str  # "value" | "output" | "memory" | "status" | "invariant"
    left: str
    right: str
    detail: str
    source: str = ""
    args: List[int] = field(default_factory=list)

    def __str__(self) -> str:
        return "%s divergence between %s and %s: %s" % (
            self.kind, self.left, self.right, self.detail)


@dataclass
class OracleReport:
    """All legs' outcomes for one (program, argument) pair."""

    args: List[int]
    outcomes: Dict[str, OracleOutcome]
    divergences: List[Divergence]

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def compile_error(self) -> bool:
        """True when every leg rejected the program identically."""
        return all(o.status == "compile-error"
                   for o in self.outcomes.values())

    @property
    def annotation_reject(self) -> bool:
        """True when a dynamic leg refused the region shape."""
        return any(o.status == "annotation-reject"
                   for o in self.outcomes.values())


def _module_globals(module) -> Dict[str, int]:
    return {name: max(1, len(data.values))
            for name, data in module.globals.items()}


def _interp_leg(source: str, args: List[int]) -> OracleOutcome:
    try:
        module = build_module(check(parse(source)))
    except CompileError as exc:
        return OracleOutcome("interp", "compile-error",
                             error="%s: %s" % (type(exc).__name__, exc))
    sizes = _module_globals(module)
    interp = Interpreter(copy.deepcopy(module))
    try:
        value = interp.run("main", list(args))
    except InterpError as exc:
        return OracleOutcome("interp", "trap", error=str(exc))
    final = {name: [interp.memory[interp.global_addrs[name] + i]
                    for i in range(size)]
             for name, size in sizes.items()}
    return OracleOutcome("interp", "ok", value=None if value is None
                         else int(value),
                         output=list(interp.output), globals=final)


def _vm_globals(program: Program) -> Dict[str, List[Number]]:
    vm = program._vm
    assert vm is not None, "program has not run yet"
    layout = program.layout
    return {name: [vm.load(layout.addr_of(name) + i)
                   for i in range(max(1, len(values)))]
            for name, values in layout.global_values.items()}


def _vm_leg(leg: str, source: str, args: List[int], mode: str,
            opt_options: Optional[OptOptions] = None,
            use_reachability: bool = True,
            stitcher_costs: Optional[StitcherCosts] = None,
            register_actions: bool = False,
            runs: int = 1,
            check_invariants: bool = True,
            max_cycles: int = 200_000_000,
            cache_config: Optional[CacheConfig] = None,
            faults: Optional[str] = None,
            tier: Optional[str] = None,
            stitch: Optional[str] = None,
            backend: Optional[str] = None,
            ) -> Tuple[OracleOutcome, Optional[Program], list]:
    try:
        program = compile_program(
            source, mode=mode, opt_options=opt_options,
            use_reachability=use_reachability,
            stitcher_costs=stitcher_costs,
            register_actions=register_actions,
            cache_config=cache_config, tier=tier, stitch=stitch,
            backend=backend)
    except AnnotationError as exc:
        return (OracleOutcome(leg, "annotation-reject",
                              error="%s: %s" % (type(exc).__name__, exc)),
                None, [])
    except CompileError as exc:
        return (OracleOutcome(leg, "compile-error",
                              error="%s: %s" % (type(exc).__name__, exc)),
                None, [])
    result = None
    try:
        for run_index in range(max(1, runs)):
            # A fresh deterministic plan per run: repeated runs on the
            # cached VM exercise different fault schedules while the
            # whole leg stays reproducible from (spec, run index).
            plan = FaultPlan.parse(faults, seed=run_index)
            result = program.run("main", list(args), max_cycles=max_cycles,
                                 fault_plan=plan)
    except VMError as exc:
        return OracleOutcome(leg, "trap", error=str(exc)), program, []
    except AnnotationError as exc:
        # Defensive: a stitch-time rejection counts the same way.
        return (OracleOutcome(leg, "annotation-reject",
                              error="%s: %s" % (type(exc).__name__, exc)),
                program, [])
    invariant_failures: list = []
    if mode == "dynamic" and check_invariants:
        invariant_failures = check_stitch_invariants(program, result)
    return (OracleOutcome(leg, "ok", value=result.value,
                          output=list(result.output),
                          globals=_vm_globals(program),
                          run_result=result),
            program, invariant_failures)


def check_stitch_invariants(program: Program, result) -> List[str]:
    """Stitcher sanity conditions beyond value agreement."""
    failures: List[str] = []
    vm = program._vm
    if vm is None:
        return ["no VM retained after run"]
    code = vm.code
    static_end = program._vm_code_len
    for report in result.stitch_reports:
        where = "%s:%d key=%s" % (report.func_name, report.region_id,
                                  report.key)
        if not static_end <= report.entry < len(code):
            failures.append("stitch %s: entry %d outside stitched code"
                            % (where, report.entry))
            continue
        for count in report.loop_iterations.values():
            if count < 1:
                failures.append("stitch %s: non-positive loop iteration "
                                "count %d" % (where, count))
        costs = program.stitcher_costs
        expected = (
            costs.per_region
            + report.directives * costs.per_directive
            + report.instrs_emitted * costs.per_instr_copied
            + report.holes_patched * costs.per_hole
            + report.branch_fixups * costs.per_branch_fixup
            + report.pool_entries * costs.per_pool_entry
            + report.records_followed * costs.per_loop_record
            + sum(report.peepholes.values()) * costs.per_peephole)
        if report.cycles != expected:
            failures.append("stitch %s: cycles %d != cost model %d"
                            % (where, report.cycles, expected))
    # Branch resolution: every control transfer emitted after the
    # static code (i.e. by the stitcher) must carry an in-range target.
    for pc in range(static_end, len(code)):
        instr = code[pc]
        if instr.op in ("br", "beq", "bne", "jsr"):
            target = instr.target
            if target is None or not 0 <= target < len(code):
                failures.append(
                    "unresolved %s target %r at stitched pc %d (label %r)"
                    % (instr.op, target, pc, instr.label))
        elif instr.op == "jtab":
            extra = instr.extra
            if not extra:
                failures.append("unresolved jtab at stitched pc %d" % pc)
    # Dead-code freedom: every stitched instruction must be reachable
    # from some stitch entry (the stitcher only emits the live side of
    # resolved constant branches).  Under a bounded cache, eviction
    # leaves trapping filler words and stale report entries, so the
    # scan narrows to the cache's *live* ranges, seeded from the live
    # entry points.
    cache_stats = getattr(result, "cache_stats", None)
    fallback_blocks = getattr(result, "fallback_blocks", []) or []
    fallback_pcs = [pc for base, words, _ in fallback_blocks
                    for pc in range(base, base + words)]
    fallback_entries = [entry for _, _, entry in fallback_blocks]
    # Checksum invalidation frees blocks (trapping filler) even under
    # the unbounded policy, so any run with checksum failures must use
    # the live-ranges scan too.
    narrowed = cache_stats is not None and (
        cache_stats.bounded
        or getattr(cache_stats, "checksum_failures", 0) > 0)
    if narrowed:
        live_pcs = [pc for base, words in cache_stats.live_blocks
                    for pc in range(base, base + words)] + fallback_pcs
        if live_pcs:
            reachable = _reachable_stitched(
                code, static_end,
                list(cache_stats.live_entry_pcs) + fallback_entries)
            dead = [pc for pc in live_pcs if pc not in reachable]
            if dead:
                failures.append(
                    "stitcher emitted unreachable (dead-branch) code at "
                    "pcs %s" % dead[:8])
    elif len(code) > static_end and (result.stitch_reports
                                     or fallback_entries):
        reachable = _reachable_stitched(code, static_end,
                                        [r.entry for r in
                                         result.stitch_reports
                                         if r.entry >= static_end]
                                        + fallback_entries)
        dead = [pc for pc in range(static_end, len(code))
                if pc not in reachable]
        if dead:
            failures.append(
                "stitcher emitted unreachable (dead-branch) code at "
                "pcs %s" % dead[:8])
    # Re-stitch identity: after eviction or invalidation, stitching
    # the same key against an unchanged table must reproduce the
    # original code word-for-word (modulo relocation base).
    if cache_stats is not None and cache_stats.restitch_mismatches:
        failures.append(
            "re-stitches not word-identical to original stitches: %s"
            % ", ".join(cache_stats.restitch_mismatches[:4]))
    # Region-entry accounting: the runtime logs every entry exactly
    # once (hit, stitch, fallback, cold or queued), so per region the
    # log must agree with the lookup service's own entry counter.
    logged = Counter((event.func_name, event.region_id)
                     for event in result.entries)
    for region in sorted(set(logged) | set(result.region_entries)):
        if logged[region] != result.region_entries.get(region, 0):
            failures.append(
                "region %s:%d: %d entries counted != %d entries logged"
                % (region[0], region[1],
                   result.region_entries.get(region, 0), logged[region]))
    failures.extend(_check_tier_invariants(result))
    failures.extend(_check_queue_invariants(result))
    # Fault accounting: every injected fault must be matched by an
    # observed recovery.  Raising sites produce injected fallback
    # events; the non-raising sites recover differently -- checksum
    # produces a verification failure (and a re-stitch), tier.flip
    # perturbs a tiering decision, queue.drop sheds a queued job, and
    # stitch.hang wedges one (each checked against the queue stats).
    fault_counts = getattr(result, "fault_counts", None)
    if fault_counts:
        raised = sum(count for site, count in fault_counts.items()
                     if site not in NON_RAISING_SITES)
        injected_falls = sum(1 for event in result.fallbacks
                             if event.injected)
        if raised != injected_falls:
            failures.append(
                "fault accounting: %d injected raising faults != %d "
                "injected fallback events" % (raised, injected_falls))
        checksum = fault_counts.get("cache.checksum", 0)
        observed_checksum = getattr(cache_stats, "checksum_failures", 0) \
            if cache_stats is not None else 0
        if checksum != observed_checksum:
            failures.append(
                "fault accounting: %d injected checksum faults != %d "
                "observed checksum failures"
                % (checksum, observed_checksum))
        queue_stats = getattr(result, "queue_stats", None)
        for site, attr in (("queue.drop", "dropped"),
                           ("stitch.hang", "hung")):
            injected = fault_counts.get(site, 0)
            observed = getattr(queue_stats, attr, 0) \
                if queue_stats is not None else 0
            if injected != observed:
                failures.append(
                    "fault accounting: %d injected %s faults != %d "
                    "observed %s jobs" % (injected, site, observed, attr))
    return failures


def _check_queue_invariants(result) -> List[str]:
    """The async-stitching invariant set (empty for sync runs).

    * a sync run records no queued entries and no queue stats at all;
    * job conservation: every admitted job ends in exactly one bucket
      -- enqueued == landed + expired + cancelled + pending (the queue
      counts the buckets from each job's one terminal outcome);
    * every landed job has one non-negative entries-to-land latency;
    * shed accounting covers every injected drop.
    """
    failures: List[str] = []
    queue_stats = result.queue_stats
    if queue_stats is None:
        queued = len(result.queued_entries)
        if queued:
            failures.append("sync run recorded %d queued entries" % queued)
        return failures
    accounted = (queue_stats.landed + queue_stats.expired
                 + queue_stats.total_cancelled + queue_stats.pending)
    if queue_stats.enqueued != accounted:
        failures.append(
            "queue accounting: %d enqueued != %d landed + %d expired "
            "+ %d cancelled + %d pending"
            % (queue_stats.enqueued, queue_stats.landed,
               queue_stats.expired, queue_stats.total_cancelled,
               queue_stats.pending))
    if len(queue_stats.land_latencies) != queue_stats.landed:
        failures.append(
            "queue accounting: %d land latencies != %d landed jobs"
            % (len(queue_stats.land_latencies), queue_stats.landed))
    if any(latency < 0 for latency in queue_stats.land_latencies):
        failures.append("queue accounting: negative entries-to-land "
                        "latency %r" % (queue_stats.land_latencies,))
    if queue_stats.dropped > queue_stats.shed:
        failures.append(
            "queue accounting: %d injected drops exceed %d shed events"
            % (queue_stats.dropped, queue_stats.shed))
    return failures


def _check_tier_invariants(result) -> List[str]:
    """The adaptive-tiering invariant set (empty for eager runs).

    * every eager run has no cold entries and no tier stats at all;
    * every promoted key ran at least as many entries as the policy's
      promotion point demands (``threshold`` for threshold mode, 2 for
      breakeven -- the first entry is always the cold measurement),
      unless speculation or an injected ``tier.flip`` legitimately
      promoted it early.
    """
    failures: List[str] = []
    tier_stats = result.tier_stats
    if not tier_stats:
        cold = len(result.cold_entries)
        if cold:
            failures.append("eager run recorded %d cold entries" % cold)
        return failures
    flipped = result.fault_counts.get("tier.flip", 0) > 0
    for region, stats in tier_stats.items():
        policy = TierPolicy.parse(stats.get("mode"))
        if flipped or stats.get("speculative_promotions") \
                or policy.speculate:
            # Speculative marks and injected decision flips promote
            # keys below their earned promotion point by design.
            continue
        minimum = policy.threshold if policy.mode == "threshold" else 2
        counters = stats.get("counters", {})
        for key_repr in stats.get("promoted_keys", []):
            count = counters.get(key_repr, 0)
            if count < minimum:
                failures.append(
                    "tier %s:%d: key %s promoted at counter %d < "
                    "promotion point %d" % (region[0], region[1],
                                            key_repr, count, minimum))
    return failures


def _reachable_stitched(code, static_end: int,
                        entries: List[int]) -> set:
    seen = set()
    work = [pc for pc in entries if pc >= static_end]
    while work:
        pc = work.pop()
        if pc in seen or not static_end <= pc < len(code):
            continue
        seen.add(pc)
        instr = code[pc]
        op = instr.op
        if op == "br":
            work.append(instr.target)
        elif op in ("beq", "bne"):
            work.append(instr.target)
            work.append(pc + 1)
        elif op == "jtab":
            targets, default = instr.extra
            work.extend(targets)
            work.append(default)
        elif op == "jsr":
            # The callee is static code; execution resumes after it.
            work.append(pc + 1)
        elif op in ("ret", "jmp", "halt"):
            pass
        else:
            work.append(pc + 1)
    return seen


def _compare(a: OracleOutcome, b: OracleOutcome,
             divergences: List[Divergence]) -> None:
    if "annotation-reject" in (a.status, b.status):
        return  # a legitimate region-shape rejection, not a divergence
    if a.status != b.status:
        divergences.append(Divergence(
            "status", a.leg, b.leg,
            "%s %s (%s) vs %s %s (%s)" % (a.leg, a.status, a.error,
                                          b.leg, b.status, b.error)))
        return
    if a.status != "ok":
        return  # both failed the same way: agreement
    if a.value != b.value:
        divergences.append(Divergence(
            "value", a.leg, b.leg,
            "return value %r vs %r" % (a.value, b.value)))
    if a.output != b.output:
        divergences.append(Divergence(
            "output", a.leg, b.leg,
            "printed output %r vs %r" % (a.output[:12], b.output[:12])))
    if a.globals != b.globals:
        diffs = []
        for name in sorted(set(a.globals) | set(b.globals)):
            va, vb = a.globals.get(name), b.globals.get(name)
            if va != vb:
                diffs.append("%s: %r vs %r" % (name, va, vb))
        divergences.append(Divergence(
            "memory", a.leg, b.leg,
            "global memory effects differ (%s)" % "; ".join(diffs[:4])))


def run_oracle(source: str, args: List[int],
               opt_options: Optional[OptOptions] = None,
               use_reachability: bool = True,
               register_actions_leg: bool = True,
               check_invariants: bool = True,
               max_cycles: int = 200_000_000,
               cache_config: Optional[CacheConfig] = None,
               faults: Optional[str] = None,
               tier: Optional[str] = None,
               stitch: Optional[str] = None,
               backend: Optional[str] = None,
               backend_leg: bool = True) -> OracleReport:
    """Run all legs on ``main(args...)`` and compare.

    The interpreter is the semantic baseline; static and dynamic (and
    the optional register-actions dynamic leg) are each compared
    against it, and dynamic is also compared against static so the
    divergence report names the closest pair.  ``cache_config``
    applies to the dynamic legs: a bounded cache must never change
    observables, only stitch counts -- so the comparison against the
    interpreter and static legs doubles as an eviction-correctness
    proof.  ``faults`` (a :meth:`FaultPlan.parse` spec) likewise
    applies only to the dynamic legs: under injected faults the engine
    must degrade to the static fallback tier, never to a wrong answer,
    so the same comparisons double as a degradation-correctness proof.
    ``tier`` (a :meth:`TierPolicy.parse` spec), when adaptive, adds a
    fourth execution leg -- the same dynamic program under the
    adaptive tiering policy -- proving interp/static/stitched/tiered
    all observe bit-identical results and that the tiering invariant
    set (every entry logged once, no under-threshold promotions) holds
    whatever the policy decides.
    ``stitch`` (a :meth:`StitchQueueConfig.parse` spec) applies to
    the same dynamic legs: under ``async`` queueing, entries are
    served from fallback until their background stitch lands, and the
    entry-log plus queue-conservation invariants must hold while every
    observable still matches the interpreter bit-for-bit.
    ``backend`` names the execution backend for every VM leg (default
    ``rvm``); when ``backend_leg`` is true the oracle adds one more
    dynamic leg -- the same configuration under the *other* registered
    backend (``pycode`` when the primary is ``rvm`` and vice versa) --
    and compares it bit-for-bit against both the interpreter and the
    primary dynamic leg, proving the backend seam never changes a
    simulated observable.
    """
    divergences: List[Divergence] = []
    primary = get_backend(backend).name
    interp = _interp_leg(source, args)
    static, _, _ = _vm_leg("static", source, args, "static",
                           opt_options=opt_options,
                           max_cycles=max_cycles, backend=primary)
    dynamic, dyn_program, dyn_invariants = _vm_leg(
        "dynamic", source, args, "dynamic", opt_options=opt_options,
        use_reachability=use_reachability, runs=2,
        check_invariants=check_invariants, max_cycles=max_cycles,
        cache_config=cache_config, faults=faults, stitch=stitch,
        backend=primary)
    outcomes = {"interp": interp, "static": static, "dynamic": dynamic}

    _compare(interp, static, divergences)
    _compare(interp, dynamic, divergences)
    if not any(d.left == "interp" or d.right == "interp"
               for d in divergences):
        _compare(static, dynamic, divergences)
    for failure in dyn_invariants:
        divergences.append(Divergence("invariant", "dynamic", "stitcher",
                                      failure))

    if backend_leg:
        other = "pycode" if primary != "pycode" else "rvm"
        leg_name = "dynamic+%s" % other
        cross, _, cross_invariants = _vm_leg(
            leg_name, source, args, "dynamic", opt_options=opt_options,
            use_reachability=use_reachability, runs=2,
            check_invariants=check_invariants, max_cycles=max_cycles,
            cache_config=cache_config, faults=faults, stitch=stitch,
            backend=other)
        outcomes[leg_name] = cross
        _compare(interp, cross, divergences)
        if not any(leg_name in (d.left, d.right) for d in divergences):
            _compare(dynamic, cross, divergences)
        for failure in cross_invariants:
            divergences.append(Divergence(
                "invariant", leg_name, "stitcher", failure))

    if register_actions_leg:
        actions, _, action_invariants = _vm_leg(
            "dynamic+regactions", source, args, "dynamic",
            opt_options=opt_options, use_reachability=use_reachability,
            register_actions=True, check_invariants=check_invariants,
            max_cycles=max_cycles, cache_config=cache_config,
            faults=faults, stitch=stitch, backend=primary)
        outcomes["dynamic+regactions"] = actions
        _compare(interp, actions, divergences)
        for failure in action_invariants:
            divergences.append(Divergence(
                "invariant", "dynamic+regactions", "stitcher", failure))

    if tier is not None and TierPolicy.parse(tier).adaptive:
        tiered, _, tier_invariants = _vm_leg(
            "dynamic+tiered", source, args, "dynamic",
            opt_options=opt_options, use_reachability=use_reachability,
            runs=2, check_invariants=check_invariants,
            max_cycles=max_cycles, cache_config=cache_config,
            faults=faults, tier=tier, stitch=stitch, backend=primary)
        outcomes["dynamic+tiered"] = tiered
        _compare(interp, tiered, divergences)
        if not any("dynamic+tiered" in (d.left, d.right)
                   for d in divergences):
            _compare(dynamic, tiered, divergences)
        for failure in tier_invariants:
            divergences.append(Divergence(
                "invariant", "dynamic+tiered", "tiering", failure))

    for divergence in divergences:
        divergence.source = source
        divergence.args = list(args)
    return OracleReport(list(args), outcomes, divergences)
