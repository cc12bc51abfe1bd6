"""Command-line driver: compile and run MiniC programs.

Usage::

    python -m repro program.c                       # dynamic mode
    python -m repro program.c --mode static
    python -m repro program.c --args 3 7            # main(3, 7)
    python -m repro program.c --stats               # cycle breakdown
    python -m repro program.c --dump-ir             # optimized IR
    python -m repro program.c --dump-asm            # generated code
    python -m repro program.c --dump-templates      # region templates
    python -m repro program.c --register-actions
    python -m repro program.c --fused-stitcher
    python -m repro program.c --config faults=all:0.1    # chaos run
    python -m repro program.c --config tier=breakeven    # adaptive tiering
    python -m repro program.c --config stitch=async      # queued stitching
    python -m repro program.c --config "backend=pycode cache=lru:2"
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from typing import List

from . import FUSED_STITCHER, CompileError, RunConfig, compile_program
from .machine.vm import VMError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Compile and run a MiniC program on the RVM "
                    "(reproduction of 'Fast, Effective Dynamic "
                    "Compilation', PLDI 1996).")
    parser.add_argument("source", help="MiniC source file")
    parser.add_argument("--mode", choices=["dynamic", "static"],
                        default="dynamic",
                        help="dynamic = the paper's system; static = "
                             "baseline with annotations ignored")
    parser.add_argument("--config", default="", metavar="SPEC",
                        help="run configuration: FIELD=SPEC tokens over "
                             "backend (rvm | pycode), cache "
                             "(POLICY[:ENTRIES[:WORDS]]), faults "
                             "(SITE:P,... | all:P, optionally @SEED), "
                             "tier (eager | threshold:N | "
                             "breakeven[:H], options spec=K,...) and "
                             "stitch (sync | async[:depth=N,...]); "
                             "e.g. \"cache=lru:2 tier=threshold:3\" "
                             "(default: the paper's engine; see "
                             "README, 'Run configuration')")
    parser.add_argument("--entry", default="main",
                        help="function to run (default: main)")
    parser.add_argument("--args", nargs="*", type=int, default=[],
                        help="integer arguments for the entry function")
    parser.add_argument("--register-actions", action="store_true",
                        help="enable the section 5 register-actions "
                             "extension")
    parser.add_argument("--fused-stitcher", action="store_true",
                        help="use the fused (cheap) stitcher cost model")
    parser.add_argument("--no-reachability", action="store_true",
                        help="disable the reachability analysis "
                             "(ablation)")
    parser.add_argument("--stats", action="store_true",
                        help="print the per-component cycle breakdown "
                             "and stitch reports")
    parser.add_argument("--dump-ir", action="store_true",
                        help="print the optimized IR before code "
                             "generation")
    parser.add_argument("--dump-asm", action="store_true",
                        help="print the generated RVM code")
    parser.add_argument("--dump-templates", action="store_true",
                        help="print region templates with directives")
    parser.add_argument("--dump-directives", action="store_true",
                        help="print the paper-style flat directive "
                             "stream (Table 1) per region")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="record a Chrome trace of compile + run "
                             "to PATH (load in Perfetto)")
    parser.add_argument("--metrics", action="store_true",
                        help="print the obs metrics snapshot after the "
                             "run")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the final metrics snapshot as JSON "
                             "to PATH (implies metric collection)")
    parser.add_argument("--max-cycles", type=int, default=4_000_000_000)
    return parser


def main(argv: List[str] = None) -> int:
    args = _build_parser().parse_args(argv)
    config = RunConfig.from_cli(args.config)
    try:
        with open(args.source) as handle:
            source = handle.read()
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    from .obs import metrics as obs_metrics
    from .obs import report_metrics
    from .obs import trace as obs_trace
    tracer = obs_trace.Tracer() if args.trace else None
    if tracer is not None:
        obs_trace.install(tracer)
    if args.metrics or args.metrics_out:
        obs_metrics.registry.enable()
    try:
        return _run(args, source, config)
    finally:
        if tracer is not None:
            obs_trace.install(None)
            tracer.write_chrome(args.trace)
            print("wrote trace: %s (%d events, %d dropped)"
                  % (args.trace, len(tracer.events), tracer.dropped),
                  file=sys.stderr)
        if args.metrics or args.metrics_out:
            report_metrics(args.metrics, args.metrics_out)
            obs_metrics.registry.disable()


def _run(args, source: str, config: RunConfig) -> int:

    if args.dump_ir:
        from .frontend.parser import parse
        from .frontend.typecheck import check
        from .ir.builder import build_module
        from .ir.printer import format_module
        from .ir.ssa import to_ssa
        from .opt.pipeline import optimize
        try:
            module = build_module(check(parse(source)))
        except CompileError as exc:
            print("compile error: %s" % exc, file=sys.stderr)
            return 1
        for func in module.functions.values():
            to_ssa(func)
            optimize(func)
        print(format_module(module))
        print()

    try:
        program = compile_program(
            source,
            mode=args.mode,
            use_reachability=not args.no_reachability,
            stitcher_costs=FUSED_STITCHER if args.fused_stitcher else None,
            register_actions=args.register_actions,
            config=config,
        )
    except CompileError as exc:
        print("compile error: %s" % exc, file=sys.stderr)
        return 1

    if args.dump_asm:
        from .codegen.asmprinter import format_function
        for function in program.compiled.values():
            print(format_function(function))
            print()
    if args.dump_templates:
        from .codegen.asmprinter import format_region
        for region in program.region_codes():
            print(format_region(region))
            print()
    if args.dump_directives:
        from .dynamic.directives import format_directives
        for region in program.region_codes():
            print(format_directives(region))
            print()

    try:
        result = program.run(args.entry, args.args,
                             max_cycles=args.max_cycles)
    except VMError as exc:
        print("run-time error: %s" % exc, file=sys.stderr)
        return 1

    for value in result.output:
        print(value)
    print("=> %s  (%d cycles, %s backend)"
          % (result.value, result.cycles, result.backend))

    stats = result.cache_stats
    if stats is not None and stats.bounded:
        print("cache[%s]: %d hits, %d misses, %d evictions, "
              "%d compactions, %d invalidations, %d re-stitches "
              "(%d revived), %d live entries (%d words)"
              % (stats.policy, stats.hits, stats.misses, stats.evictions,
                 stats.compactions, stats.invalidations, stats.restitches,
                 stats.revivals, stats.live_entries,
                 stats.live_code_words))

    if result.tier_stats:
        colds = Counter((event.func_name, event.region_id)
                        for event in result.cold_entries)
        promotions = sum(s["promotions"]
                         for s in result.tier_stats.values())
        speculative = sum(s["speculative_promotions"]
                          for s in result.tier_stats.values())
        demotions = sum(s["demotions"]
                        for s in result.tier_stats.values())
        print("tier[%s]: %d cold entries, %d promotions "
              "(%d speculative), %d demotions"
              % (config.tier.describe(), sum(colds.values()),
                 promotions, speculative, demotions))
        for key, snap in sorted(result.tier_stats.items()):
            predicted = snap.get("predicted_breakeven")
            print("  %s:%d: %d keys, %d promoted, %d cold%s"
                  % (key[0], key[1], snap["keys"], snap["keys_promoted"],
                     colds[key],
                     (", predicted breakeven %d" % predicted)
                     if predicted is not None else ""))

    qs = result.queue_stats
    if qs is not None:
        print("stitchq[%s]: %d enqueued, %d landed, %d shed "
              "(%d dropped), %d expired, %d cancelled, %d retries, "
              "%d pending, max depth %d, %d drains"
              % (qs.config, qs.enqueued, qs.landed, qs.shed,
                 qs.dropped, qs.expired, qs.total_cancelled, qs.retries,
                 qs.pending, qs.max_depth, qs.drains))
        if qs.land_latencies:
            lats = sorted(qs.land_latencies)
            print("  entries-to-land: min %d, median %d, max %d"
                  % (lats[0], lats[len(lats) // 2], lats[-1]))
        for reason, count in sorted(qs.cancelled.items()):
            print("  cancelled[%s]: %d" % (reason, count))

    fallbacks = result.fallbacks
    if fallbacks or result.fault_counts:
        by_reason = Counter(event.reason for event in fallbacks)
        detail = ", ".join("%d %s" % (count, reason)
                           for reason, count in sorted(by_reason.items()))
        print("degraded: %d fallback entries (%s); faults injected: %s"
              % (len(fallbacks), detail or "none",
                 ", ".join("%s x%d" % (site, count) for site, count
                           in sorted(result.fault_counts.items()))
                 or "none"))
        for key, snap in sorted(result.breaker_stats.items()):
            print("breaker %s:%d: %d trips, %d resets, cooldown %d"
                  % (key[0], key[1], snap["trips"], snap["resets"],
                     snap["cooldown"]))

    if args.stats:
        print()
        print("instruction mix (top 10):")
        for op in sorted(result.op_counts,
                         key=lambda o: -result.op_counts[o])[:10]:
            print("  %-10s %10d" % (op, result.op_counts[op]))
        print()
        print("cycles by component:")
        for owner in sorted(result.cycles_by_owner,
                            key=lambda o: -result.cycles_by_owner[o]):
            print("  %-32s %12d cycles %10d instrs"
                  % (owner, result.cycles_by_owner[owner],
                     result.instrs_by_owner.get(owner, 0)))
        for report in result.stitch_reports:
            print()
            print("stitch %s region %d key=%s:"
                  % (report.func_name, report.region_id, report.key))
            print("  %d instrs emitted, %d holes, %d directives, "
                  "%d cycles" % (report.instrs_emitted,
                                 report.holes_patched,
                                 report.directives, report.cycles))
            if report.peepholes:
                print("  peepholes: %s" % report.peepholes)
            if report.reg_actions:
                print("  register actions: %s" % report.reg_actions)
            applied = [k for k, v in
                       report.optimizations_applied().items() if v]
            print("  optimizations: %s" % ", ".join(applied))
    return 0


if __name__ == "__main__":
    sys.exit(main())
