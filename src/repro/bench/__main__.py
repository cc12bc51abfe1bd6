"""Regenerate the paper's tables from the command line.

Usage::

    python -m repro.bench                  # Table 2 + Table 3, default scale
    python -m repro.bench --scale 2.0      # larger problem sizes
    python -m repro.bench --fused          # fused-stitcher cost model
    python -m repro.bench --register-actions   # add the section 5 line
    python -m repro.bench --only calculator "record sorter"
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List

from ..machine.costs import FUSED_STITCHER
from ..obs import metrics as obs_metrics
from ..obs import report_metrics
from ..obs import trace as obs_trace
from ..obs.breakeven import rows_from_results
from ..runtime.engine import compile_program
from .harness import measure, region_row
from .reporting import format_breakeven, format_table2, format_table3
from .workloads import all_workloads, calculator_workload


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce Table 2 / Table 3 of 'Fast, Effective "
                    "Dynamic Compilation' (PLDI 1996).")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="problem-size multiplier (default 1.0; the "
                             "paper's sizes are roughly 5-25x)")
    parser.add_argument("--fused", action="store_true",
                        help="use the fused-stitcher cost model")
    parser.add_argument("--backend", default=None, metavar="NAME",
                        help="execution backend for the measured runs "
                             "(rvm or pycode; simulated cycles are "
                             "identical either way)")
    parser.add_argument("--no-reachability", action="store_true",
                        help="disable the reachability analysis")
    parser.add_argument("--register-actions", action="store_true",
                        help="also measure the calculator with register "
                             "actions (the paper's 1.7 -> 4.1 result)")
    parser.add_argument("--only", nargs="*", default=None,
                        help="benchmark-name filter (substring match)")
    parser.add_argument("--seed", type=int, default=None,
                        help="derive every workload's input data from "
                             "this one seed (default: the historical "
                             "fixed per-workload seeds)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="record a Chrome trace of the measured "
                             "runs to PATH (load in Perfetto)")
    parser.add_argument("--metrics", action="store_true",
                        help="print the obs metrics snapshot after "
                             "measuring")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the final metrics snapshot as JSON "
                             "to PATH (implies metric collection)")
    parser.add_argument("--breakeven", action="store_true",
                        help="also print the live per-region break-even "
                             "table (python -m repro.obs report)")
    parser.add_argument("--no-cache-pressure", action="store_true",
                        help="skip the cache-pressure sweep that "
                             "follows Table 3")
    args = parser.parse_args(argv)

    from ..backends import get_backend
    try:
        backend_name = get_backend(args.backend).name
    except ValueError as exc:
        print("error: --backend %s" % exc, file=sys.stderr)
        return 2

    tracer = obs_trace.Tracer() if args.trace else None
    if tracer is not None:
        obs_trace.install(tracer)
    if args.metrics or args.metrics_out:
        obs_metrics.registry.enable()

    costs = FUSED_STITCHER if args.fused else None
    rows = []
    breakeven_sections = []
    try:
        for workload in all_workloads(scale=args.scale, seed=args.seed):
            if args.only and not any(sel.lower() in workload.name.lower()
                                     for sel in args.only):
                continue
            started = time.time()
            try:
                with obs_trace.span("bench.workload", "bench",
                                    workload=workload.name):
                    row = measure(workload, stitcher_costs=costs,
                                  use_reachability=not args.no_reachability,
                                  backend=args.backend)
            except Exception as exc:  # keep going; report the failure
                print("%-30s %-30s FAILED: %s: %s"
                      % (workload.name, workload.config,
                         type(exc).__name__, exc), file=sys.stderr)
                continue
            rows.append(row)
            if args.breakeven:
                breakeven_sections.append(
                    "%s (%s)\n%s"
                    % (workload.name, workload.config,
                       format_breakeven(rows_from_results(
                           row.static_result, row.dynamic_result))))
            print("measured %-30s %-32s (%.1fs, %s backend)"
                  % (workload.name, workload.config,
                     time.time() - started, backend_name),
                  file=sys.stderr)
    finally:
        if tracer is not None:
            obs_trace.install(None)
            tracer.write_chrome(args.trace)
            print("wrote trace: %s (%d events, %d dropped)"
                  % (args.trace, len(tracer.events), tracer.dropped),
                  file=sys.stderr)

    if not rows:
        print("nothing measured", file=sys.stderr)
        return 1
    print()
    print(format_table2(rows))
    print()
    print(format_table3(rows))

    if not args.no_cache_pressure and not args.only:
        from .cachepressure import (
            DEFAULT_SEED, compile_pressure_program, format_sweep, sweep,
        )
        started = time.time()
        pressure_seed = DEFAULT_SEED if args.seed is None else args.seed
        pressure_rows = sweep(executions=max(1, int(120 * args.scale)),
                              program=compile_pressure_program(),
                              seed=pressure_seed)
        print()
        print(format_sweep(pressure_rows))
        print("measured %-30s %-32s (%.1fs)"
              % ("cache pressure", "keyed region, lru sweep",
                 time.time() - started),
              file=sys.stderr)

    if breakeven_sections:
        print()
        print("break-even, live per region (Section 5):")
        print()
        print("\n\n".join(breakeven_sections))
    if args.metrics or args.metrics_out:
        report_metrics(args.metrics, args.metrics_out)
        obs_metrics.registry.disable()

    if args.register_actions:
        workload = calculator_workload()
        plain = measure(workload, stitcher_costs=costs,
                        backend=args.backend)
        program = compile_program(workload.source, mode="dynamic",
                                  stitcher_costs=costs,
                                  register_actions=True,
                                  backend=args.backend)
        actions = region_row(workload, plain.static_result, program.run())
        print()
        print("register actions (calculator): %.2fx -> %.2fx "
              "[paper: 1.7 -> 4.1]"
              % (plain.region.speedup, actions.speedup))
    return 0


if __name__ == "__main__":
    sys.exit(main())
