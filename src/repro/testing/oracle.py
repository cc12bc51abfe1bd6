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
changes a simulated observable.  The cross-backend pycode leg compiles
every segment on its first execution (:class:`FirstExecutionPycode`),
so every executed segment runs generated code; a primary pycode leg
runs the shipped compile threshold, so it covers the switch from
per-instruction handlers to compiled segments mid-run.

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

from ..backends import PycodeBackend, get_backend
from ..faults import NON_RAISING_SITES
from ..frontend.errors import AnnotationError, CompileError
from ..frontend.parser import parse
from ..frontend.typecheck import check
from ..ir.builder import build_module
from ..machine.costs import StitcherCosts
from ..machine.vm import VMError
from ..opt.pipeline import OptOptions
from ..runtime.config import RunConfig
from ..runtime.engine import Program, compile_program
from ..runtime.interp import Interpreter, InterpError
from ..runtime.tiering import TierPolicy

Number = Union[int, float]

__all__ = ["OracleOutcome", "Divergence", "OracleReport", "run_oracle",
           "check_stitch_invariants", "FirstExecutionPycode",
           "leg_backend"]


class FirstExecutionPycode(PycodeBackend):
    """pycode that compiles each segment on its first execution, so
    every segment a run executes runs as generated code: the oracle's
    cross-backend leg, which keeps the fuzzer covering the code
    generator whatever the shipped threshold.  Its name stays
    ``pycode``."""

    COMPILE_AFTER = 1


def _cross_backend(primary: str):
    """A fresh backend for the cross-backend leg of a run whose primary
    backend is named ``primary``."""
    return "rvm" if primary == "pycode" else FirstExecutionPycode()


def leg_backend(leg: str, config=None):
    """A fresh backend for rerunning oracle leg ``leg`` of a run under
    ``config``: the cross-backend leg's own, else the config's."""
    config = RunConfig.parse(config)
    cross = _cross_backend(get_backend(config.backend).name)
    if leg == "dynamic+%s" % get_backend(cross).name:
        return cross
    return config.backend


@dataclass
class OracleOutcome:
    """What one execution leg observed (or how it failed)."""

    leg: str
    # "ok" | "compile-error" | "trap" | "annotation-reject" | "crash".
    # "annotation-reject" is an AnnotationError from the region
    # splitter: a *legitimate* rejection of an unsupported region
    # shape, not a divergence (the interpreter and static legs ignore
    # annotations entirely, so they accept programs the dynamic path
    # may refuse).  "crash" is any other exception that compiling or a
    # run raised (a host fault, such as a compiler's or a backend's own
    # bug): ``error`` names its type, and it diverges from every "ok"
    # or "trap" leg.
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
            config: RunConfig,
            opt_options: Optional[OptOptions] = None,
            use_reachability: bool = True,
            stitcher_costs: Optional[StitcherCosts] = None,
            register_actions: bool = False,
            runs: int = 1,
            check_invariants: bool = True,
            max_cycles: int = 200_000_000,
            ) -> Tuple[OracleOutcome, Optional[Program], list]:
    try:
        program = compile_program(
            source, mode=mode, opt_options=opt_options,
            use_reachability=use_reachability,
            stitcher_costs=stitcher_costs,
            register_actions=register_actions, config=config)
    except AnnotationError as exc:
        return (OracleOutcome(leg, "annotation-reject",
                              error="%s: %s" % (type(exc).__name__, exc)),
                None, [])
    except CompileError as exc:
        return (OracleOutcome(leg, "compile-error",
                              error="%s: %s" % (type(exc).__name__, exc)),
                None, [])
    except Exception as exc:  # a compiler fault: report it, do not die
        return (OracleOutcome(leg, "crash",
                              error="%s: %s" % (type(exc).__name__, exc)),
                None, [])
    result = None
    try:
        for run_index in range(max(1, runs)):
            # A fresh deterministic plan per run: repeated runs on the
            # cached VM exercise different fault schedules while the
            # whole leg stays reproducible from (spec, run index).
            result = program.run("main", list(args), max_cycles=max_cycles,
                                 faults=config.fault_plan(seed=run_index))
    except VMError as exc:
        return OracleOutcome(leg, "trap", error=str(exc)), program, []
    except AnnotationError as exc:
        # Defensive: a stitch-time rejection counts the same way.
        return (OracleOutcome(leg, "annotation-reject",
                              error="%s: %s" % (type(exc).__name__, exc)),
                program, [])
    except Exception as exc:  # a host fault: report it, do not die
        return (OracleOutcome(leg, "crash",
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
        cache_stats.config.bounded
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
    # The cache bound: only the documented soft overflow, where every
    # live entry but the newest is pinned, may exceed ``max_entries``.
    if cache_stats is not None and cache_stats.config.bounded \
            and cache_stats.config.max_entries is not None \
            and cache_stats.live_entries > cache_stats.config.max_entries \
            and cache_stats.live_entries - cache_stats.live_pinned > 1:
        failures.append(
            "cache bound: %d live entries > max %d, %d of them unpinned"
            % (cache_stats.live_entries, cache_stats.config.max_entries,
               cache_stats.live_entries - cache_stats.live_pinned))
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
    # Fault accounting: every injected fault must be matched by its
    # recovery in the run's records.  A raising site's is an injected
    # fallback entry; a non-raising site's is the event it causes (see
    # _RECOVERIES).  The two sides come from different components.
    fault_counts = result.fault_counts
    if fault_counts:
        raised = sum(count for site, count in fault_counts.items()
                     if site not in NON_RAISING_SITES)
        injected_falls = sum(1 for event in result.fallbacks
                             if event.injected)
        if raised != injected_falls:
            failures.append(
                "fault accounting: %d injected raising faults != %d "
                "injected fallback events" % (raised, injected_falls))
        recovered = Counter(  # of the sheds, only the injected ones
            event.kind for event in result.events
            if event.args.get("injected", True))
        for site, kind in _RECOVERIES.items():
            if fault_counts.get(site, 0) != recovered[kind]:
                failures.append(
                    "fault accounting: %d injected %s faults != %d %s "
                    "events" % (fault_counts.get(site, 0), site,
                                recovered[kind], kind))
    return failures


#: non-raising fault site -> the event its recovery logs: a failed
#: verification (dropped, then re-stitched), a flipped tiering
#: decision, an injected shed, a wedged job.
_RECOVERIES = {"cache.checksum": "cache.checksum_fail",
               "tier.flip": "tier.flip",
               "queue.drop": "stitch.shed",
               "stitch.hang": "stitch.hang"}


def _check_queue_invariants(result) -> List[str]:
    """The async-stitching invariant set (empty for sync runs).

    * a sync run records no queued entries and no queue stats at all;
    * job conservation: every admission event is matched by one
      outcome event or a job still queued -- enqueued == landed +
      expired + cancelled + pending.
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
               config: Union[RunConfig, str, None] = None,
               backend_leg: bool = True) -> OracleReport:
    """Run all legs on ``main(args...)`` and compare.

    The interpreter is the semantic baseline; static and dynamic (and
    the optional register-actions dynamic leg) are each compared
    against it, and dynamic is also compared against static so the
    divergence report names the closest pair.  ``config`` (a
    :class:`RunConfig` or its spec) configures the legs:

    * the static leg runs on the config's backend only;
    * the dynamic, register-actions and cross-backend legs run the
      config with its tier reset to eager.  A bounded cache must never
      change observables, only stitch counts; under injected faults
      the engine must degrade to the static fallback tier, never to a
      wrong answer; under ``async`` stitching entries run from
      fallback until their background stitch lands -- so the
      comparisons against the interpreter and static legs double as
      eviction-, degradation- and queue-correctness proofs;
    * an adaptive tier adds a tiered leg running the config as given,
      proving interp/static/stitched/tiered all observe bit-identical
      results and that the tiering invariant set (every entry logged
      once, no under-threshold promotions) holds whatever the policy
      decides.

    Each dynamic run draws a fresh fault plan from the config's
    faults spec, seeded by the run index unless the spec names
    ``@SEED``.  When ``backend_leg`` is true the cross-backend leg
    runs the *other* registered backend (``pycode`` when the primary
    is ``rvm`` and vice versa; see :func:`_cross_backend`) and is
    compared bit-for-bit against both the interpreter and the primary
    dynamic leg, proving the backend seam never changes a simulated
    observable.
    """
    config = RunConfig.parse(config)
    eager = config.replace(tier="eager")
    divergences: List[Divergence] = []
    primary = get_backend(config.backend).name
    interp = _interp_leg(source, args)
    static, _, _ = _vm_leg("static", source, args, "static",
                           RunConfig(backend=config.backend),
                           opt_options=opt_options, max_cycles=max_cycles)
    dynamic, dyn_program, dyn_invariants = _vm_leg(
        "dynamic", source, args, "dynamic", eager, opt_options=opt_options,
        use_reachability=use_reachability, runs=2,
        check_invariants=check_invariants, max_cycles=max_cycles)
    outcomes = {"interp": interp, "static": static, "dynamic": dynamic}

    _compare(interp, static, divergences)
    _compare(interp, dynamic, divergences)
    # Once a leg has diverged from the interpreter, comparing another
    # leg with it only names the healthy one.
    dynamic_ok = not any("dynamic" in (d.left, d.right)
                         for d in divergences)
    if not any(d.left == "interp" or d.right == "interp"
               for d in divergences):
        _compare(static, dynamic, divergences)
    for failure in dyn_invariants:
        divergences.append(Divergence("invariant", "dynamic", "stitcher",
                                      failure))

    if backend_leg:
        other = _cross_backend(primary)
        leg_name = "dynamic+%s" % get_backend(other).name
        cross, _, cross_invariants = _vm_leg(
            leg_name, source, args, "dynamic", eager.replace(backend=other),
            opt_options=opt_options, use_reachability=use_reachability,
            runs=2, check_invariants=check_invariants,
            max_cycles=max_cycles)
        outcomes[leg_name] = cross
        _compare(interp, cross, divergences)
        if dynamic_ok and not any(leg_name in (d.left, d.right)
                                  for d in divergences):
            _compare(dynamic, cross, divergences)
        for failure in cross_invariants:
            divergences.append(Divergence(
                "invariant", leg_name, "stitcher", failure))

    if register_actions_leg:
        actions, _, action_invariants = _vm_leg(
            "dynamic+regactions", source, args, "dynamic", eager,
            opt_options=opt_options, use_reachability=use_reachability,
            register_actions=True, check_invariants=check_invariants,
            max_cycles=max_cycles)
        outcomes["dynamic+regactions"] = actions
        _compare(interp, actions, divergences)
        for failure in action_invariants:
            divergences.append(Divergence(
                "invariant", "dynamic+regactions", "stitcher", failure))

    if config.tier.adaptive:
        tiered, _, tier_invariants = _vm_leg(
            "dynamic+tiered", source, args, "dynamic", config,
            opt_options=opt_options, use_reachability=use_reachability,
            runs=2, check_invariants=check_invariants,
            max_cycles=max_cycles)
        outcomes["dynamic+tiered"] = tiered
        _compare(interp, tiered, divergences)
        if dynamic_ok and not any("dynamic+tiered" in (d.left, d.right)
                                  for d in divergences):
            _compare(dynamic, tiered, divergences)
        for failure in tier_invariants:
            divergences.append(Divergence(
                "invariant", "dynamic+tiered", "tiering", failure))

    for divergence in divergences:
        divergence.source = source
        divergence.args = list(args)
    return OracleReport(list(args), outcomes, divergences)
