"""Observability CLI: break-even reports, traces, profiles, telemetry.

Usage::

    python -m repro.obs report                     # Table 2, live, per region
    python -m repro.obs report --only calculator --json rows.json
    python -m repro.obs trace --workload calculator --out trace.json
    python -m repro.obs trace program.c --format jsonl --out trace.jsonl
    python -m repro.obs profile --workload "sparse"
    python -m repro.obs validate trace.json        # schema check (CI)
    python -m repro.obs export --workload calculator \\
        --openmetrics metrics.prom --series series.json
    python -m repro.obs health --workload calculator --config faults=all:0.1
    python -m repro.obs record cachepressure tiering
    python -m repro.obs compare --run cachepressure
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from . import export as export_mod
from . import health as health_mod
from . import history as history_mod
from . import metrics, timeseries, trace
from .breakeven import break_even_source, rows_from_results
from .profiler import format_profile, profile_result


def _selected_workloads(only: Optional[List[str]], scale: float,
                        seed: Optional[int]):
    from ..bench.workloads import all_workloads
    selected = []
    for workload in all_workloads(scale=scale, seed=seed):
        if only and not any(sel.lower() in workload.name.lower()
                            for sel in only):
            continue
        selected.append(workload)
    return selected


def _cmd_report(args) -> int:
    from ..bench.reporting import format_breakeven
    workloads = _selected_workloads(args.only, args.scale, args.seed)
    if not workloads:
        print("no workload matches %r" % (args.only,), file=sys.stderr)
        return 1
    sections = []
    json_out = {}
    for workload in workloads:
        print("measuring %-30s %s ..."
              % (workload.name, workload.config), file=sys.stderr)
        try:
            rows = break_even_source(workload.source,
                                     expected=workload.expected,
                                     max_cycles=args.max_cycles)
        except Exception as exc:  # keep going; report the failure
            print("%-30s FAILED: %s: %s"
                  % (workload.name, type(exc).__name__, exc),
                  file=sys.stderr)
            continue
        title = "%s (%s)" % (workload.name, workload.config)
        sections.append(title + "\n" + format_breakeven(rows))
        json_out[workload.name] = [row.to_dict() for row in rows]
    if not sections:
        print("nothing measured", file=sys.stderr)
        return 1
    print()
    print("\n\n".join(sections))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(json_out, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("\nwrote %s" % args.json, file=sys.stderr)
    return 0


def _compile_and_run(args):
    """(program, result) for either --workload NAME or a source file,
    run under the ``--config`` spec."""
    from ..runtime.config import RunConfig
    from ..runtime.engine import compile_program
    config = RunConfig.from_cli(args.config)
    if args.workload:
        selected = _selected_workloads([args.workload], 1.0, None)
        if not selected:
            raise SystemExit("no workload matches %r" % args.workload)
        workload = selected[0]
        print("workload: %s (%s)" % (workload.name, workload.config),
              file=sys.stderr)
        source = workload.source
        run_args: List[int] = []
    else:
        if not args.source:
            raise SystemExit("give a MiniC source file or --workload NAME")
        with open(args.source) as handle:
            source = handle.read()
        run_args = args.args
    program = compile_program(source, mode=args.mode, config=config)
    result = program.run(args=run_args, max_cycles=args.max_cycles)
    return program, result


def _make_sampler(args) -> timeseries.TimeSeriesSampler:
    return timeseries.TimeSeriesSampler(
        every_entries=args.sample_entries,
        every_cycles=args.sample_cycles,
        capacity=args.sample_capacity)


def _cmd_trace(args) -> int:
    tracer = trace.Tracer()
    metrics.registry.enable()
    try:
        with trace.tracing(tracer):
            _, result = _compile_and_run(args)
    finally:
        metrics.registry.disable()
    out = args.out or "trace.json"
    if args.format == "jsonl":
        tracer.write_jsonl(out)
    else:
        tracer.write_chrome(out)
    errors = trace.validate_events(tracer.events)
    print("ran: value=%s cycles=%d; %d events (%d dropped) -> %s"
          % (result.value, result.cycles, len(tracer.events),
             tracer.dropped, out))
    if errors:
        for error in errors[:20]:
            print("schema error: %s" % error, file=sys.stderr)
        return 1
    if args.metrics:
        print()
        print(metrics.format_snapshot(metrics.registry.snapshot()))
    return 0


def _cmd_profile(args) -> int:
    _, result = _compile_and_run(args)
    print(format_profile(profile_result(result)))
    if getattr(result, "region_entries", None):
        rows = []
        if args.mode == "dynamic":
            # Per-entry economics need the static baseline too.
            from ..runtime.engine import compile_program
            if args.workload:
                source = _selected_workloads(
                    [args.workload], 1.0, None)[0].source
            else:
                with open(args.source) as handle:
                    source = handle.read()
            static = compile_program(source, mode="static")
            static_result = static.run(args=args.args if args.source
                                       else [],
                                       max_cycles=args.max_cycles)
            rows = rows_from_results(static_result, result)
        if rows:
            from ..bench.reporting import format_breakeven
            print()
            print(format_breakeven(rows))
    return 0


def _cmd_validate(args) -> int:
    try:
        events = trace.load_trace(args.trace_file)
    except (OSError, ValueError) as exc:
        print("cannot load %s: %s" % (args.trace_file, exc),
              file=sys.stderr)
        return 2
    errors = trace.validate_events(events)
    if errors:
        print("%s: INVALID (%d errors)" % (args.trace_file, len(errors)))
        for error in errors[:40]:
            print("  " + error)
        return 1
    print("%s: OK (%d events)" % (args.trace_file, len(events)))
    return 0


def _cmd_export(args) -> int:
    """Run with metrics + sampling on; write OpenMetrics text and/or
    the JSON series dump (and optionally the Chrome trace with the
    Perfetto counter tracks riding in it)."""
    tracer = trace.Tracer() if args.trace else None
    sampler = _make_sampler(args)
    metrics.registry.reset()
    metrics.registry.enable()
    try:
        with timeseries.sampling(sampler):
            if tracer is not None:
                with trace.tracing(tracer):
                    _, result = _compile_and_run(args)
            else:
                _, result = _compile_and_run(args)
    finally:
        metrics.registry.disable()
    snap = metrics.registry.snapshot()
    print("ran: value=%s cycles=%d; %d samples over %d entries"
          % (result.value, result.cycles, sampler.samples,
             sampler.entries))
    exclude = tuple(args.exclude or ())
    if args.openmetrics:
        export_mod.write_openmetrics(args.openmetrics, snap,
                                     exclude=exclude)
        print("wrote %s" % args.openmetrics)
    if args.series:
        export_mod.write_series_json(args.series, sampler, snapshot=snap)
        print("wrote %s" % args.series)
    if tracer is not None:
        tracer.write_chrome(args.trace)
        print("wrote %s (%d events)" % (args.trace, len(tracer.events)))
    if not (args.openmetrics or args.series or args.trace):
        sys.stdout.write(export_mod.to_openmetrics(snap, exclude=exclude))
    return 0


def _cmd_health(args) -> int:
    """Run a program/workload (optionally under a ``--config`` such as
    faults or a tiering policy), evaluate the health rules, and print
    the report."""
    if args.rules:
        with open(args.rules) as handle:
            rules = health_mod.parse_rules(handle.read())
        if not rules:
            print("no rules in %s" % args.rules, file=sys.stderr)
            return 2
    else:
        rules = list(health_mod.DEFAULT_RULES)
    tracer = trace.Tracer() if args.trace else None
    sampler = _make_sampler(args)
    metrics.registry.reset()
    metrics.registry.enable()
    try:
        with timeseries.sampling(sampler):
            if tracer is not None:
                with trace.tracing(tracer):
                    _, result = _compile_and_run(args)
            else:
                _, result = _compile_and_run(args)
    finally:
        metrics.registry.disable()
    values = health_mod.flatten_snapshot(metrics.registry.snapshot())
    report = health_mod.evaluate(values, rules, cycles=result.cycles)
    if tracer is not None:
        tracer.write_chrome(args.trace)
        print("wrote %s (%d events)" % (args.trace, len(tracer.events)),
              file=sys.stderr)
    if args.json:
        document = report.to_dict()
        document["value"] = result.value
        with open(args.json, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.json, file=sys.stderr)
    print(health_mod.format_report(report))
    if args.expect_firing and not report.fired:
        print("expected at least one firing rule, got none",
              file=sys.stderr)
        return 1
    if args.strict and not report.ok:
        return 1
    return 0


def _cmd_record(args) -> int:
    directory = Path(args.dir) if args.dir else None
    for benchmark in args.benchmarks:
        print("recording %s ..." % benchmark, file=sys.stderr)
        try:
            path = history_mod.record(benchmark, directory=directory,
                                      quick=not args.full, note=args.note)
        except history_mod.HistoryError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        entries = len(history_mod.load_trajectory(path))
        print("%s: %d trajectory entries -> %s"
              % (benchmark, entries, path))
    return 0


def _cmd_compare(args) -> int:
    directory = Path(args.dir) if args.dir else None
    benchmarks = args.benchmarks
    if not benchmarks:
        base = directory if directory is not None \
            else history_mod.default_dir()
        benchmarks = [b for b in history_mod.BENCHMARKS
                      if (Path(base) / ("BENCH_%s.json" % b)).exists()]
        if not benchmarks:
            print("no trajectory files under %s -- run "
                  "`python -m repro.obs record` first" % base,
                  file=sys.stderr)
            return 2
    failed = False
    documents = {}
    for benchmark in benchmarks:
        candidate = None
        if args.run:
            try:
                # Fail fast on a missing/empty trajectory before
                # spending time collecting a fresh candidate.
                history_mod.require_trajectory(benchmark, directory)
            except history_mod.HistoryError as exc:
                print("error: %s" % exc, file=sys.stderr)
                return 2
            print("collecting %s ..." % benchmark, file=sys.stderr)
            candidate = history_mod.collect(benchmark,
                                            quick=not args.full)
        try:
            comparison = history_mod.compare(
                benchmark, directory=directory, candidate_rows=candidate,
                window=args.window, max_regression=args.max_regression,
                include_host=args.include_host)
        except history_mod.HistoryError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        documents[benchmark] = comparison.to_dict()
        print(history_mod.format_comparison(comparison))
        failed = failed or not comparison.ok
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(documents, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.json, file=sys.stderr)
    return 1 if failed else 0


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("source", nargs="?", default=None,
                        help="MiniC source file (or use --workload)")
    parser.add_argument("--workload", default=None,
                        help="bench workload name (substring match)")
    parser.add_argument("--mode", choices=["dynamic", "static"],
                        default="dynamic")
    parser.add_argument("--args", nargs="*", type=int, default=[],
                        help="integer arguments for main()")
    parser.add_argument("--max-cycles", type=int, default=4_000_000_000)
    parser.add_argument("--config", default="", metavar="SPEC",
                        help="run configuration (FIELD=SPEC tokens over "
                             "backend, cache, faults, tier, stitch; "
                             "e.g. \"faults=all:0.1 tier=breakeven\")")


def _add_sampler_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sample-entries", type=int,
                        default=timeseries.DEFAULT_EVERY_ENTRIES,
                        help="sample every N region entries")
    parser.add_argument("--sample-cycles", type=int, default=None,
                        help="also sample every M simulated cycles")
    parser.add_argument("--sample-capacity", type=int,
                        default=timeseries.DEFAULT_CAPACITY,
                        help="ring-buffer capacity per series")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability over the compile->stitch->execute "
                    "pipeline: break-even reports, traces, profiles.")
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="per-region break-even table over the bench "
                       "workloads (the paper's Table 2, live)")
    report.add_argument("--only", nargs="*", default=None,
                        help="workload-name filter (substring match)")
    report.add_argument("--scale", type=float, default=1.0)
    report.add_argument("--seed", type=int, default=None)
    report.add_argument("--json", default=None,
                        help="also write rows as JSON to this path")
    report.add_argument("--max-cycles", type=int, default=4_000_000_000)
    report.set_defaults(func=_cmd_report)

    trace_cmd = sub.add_parser(
        "trace", help="run a program or workload with tracing on and "
                      "dump the event trace")
    _add_run_arguments(trace_cmd)
    trace_cmd.add_argument("--out", default=None,
                           help="output path (default trace.json)")
    trace_cmd.add_argument("--format", choices=["chrome", "jsonl"],
                           default="chrome")
    trace_cmd.add_argument("--metrics", action="store_true",
                           help="also print the metrics snapshot")
    trace_cmd.set_defaults(func=_cmd_trace)

    profile = sub.add_parser(
        "profile", help="run and print the per-owner/per-region "
                        "simulated-cycle profile")
    _add_run_arguments(profile)
    profile.set_defaults(func=_cmd_profile)

    validate = sub.add_parser(
        "validate", help="schema-check a trace file (chrome or jsonl)")
    validate.add_argument("trace_file")
    validate.set_defaults(func=_cmd_validate)

    export_cmd = sub.add_parser(
        "export", help="run with metrics + sampling and export "
                       "OpenMetrics text / JSON series / a counter-"
                       "track trace")
    _add_run_arguments(export_cmd)
    _add_sampler_arguments(export_cmd)
    export_cmd.add_argument("--openmetrics", default=None,
                            help="write OpenMetrics exposition here")
    export_cmd.add_argument("--series", default=None,
                            help="write the JSON series dump here")
    export_cmd.add_argument("--trace", default=None,
                            help="write a Chrome trace (with Perfetto "
                                 "counter tracks) here")
    export_cmd.add_argument("--exclude", nargs="*", default=None,
                            help="metric names to omit (e.g. the "
                                 "nondeterministic stitch.host_seconds)")
    export_cmd.set_defaults(func=_cmd_export)

    health = sub.add_parser(
        "health", help="run and evaluate declarative health rules "
                       "into a structured report")
    _add_run_arguments(health)
    _add_sampler_arguments(health)
    health.add_argument("--rules", default=None,
                        help="rule file (one rule per line; default: "
                             "the built-in rule set)")
    health.add_argument("--json", default=None,
                        help="also write the HealthReport as JSON")
    health.add_argument("--trace", default=None,
                        help="also write a Chrome trace of the run")
    health.add_argument("--strict", action="store_true",
                        help="exit 1 unless the report is fully green")
    health.add_argument("--expect-firing", action="store_true",
                        help="exit 1 unless at least one rule fired "
                             "(CI chaos smoke)")
    health.set_defaults(func=_cmd_health)

    record = sub.add_parser(
        "record", help="run benchmarks and append entries to their "
                       "BENCH_<name>.json trajectories")
    record.add_argument("benchmarks", nargs="+",
                        choices=list(history_mod.BENCHMARKS))
    record.add_argument("--full", action="store_true",
                        help="full workload set (hostperf) instead of "
                             "the quick pair")
    record.add_argument("--note", default="",
                        help="free-form note stored in the entry")
    record.add_argument("--dir", default=None,
                        help="trajectory directory (default: repo root)")
    record.set_defaults(func=_cmd_record)

    compare = sub.add_parser(
        "compare", help="gate the latest (or a freshly collected) "
                        "entry against best-of-last-N")
    compare.add_argument("benchmarks", nargs="*",
                         help="benchmarks to compare (default: all "
                              "with trajectory files)")
    compare.add_argument("--run", action="store_true",
                         help="collect a fresh candidate instead of "
                              "using the last committed entry")
    compare.add_argument("--full", action="store_true")
    compare.add_argument("--window", type=int,
                         default=history_mod.DEFAULT_WINDOW)
    compare.add_argument("--max-regression", type=float,
                         default=history_mod.DEFAULT_MAX_REGRESSION,
                         help="fail when a gated metric is more than "
                              "this %% worse than the window best")
    compare.add_argument("--include-host", action="store_true",
                         help="also gate host wall-clock metrics "
                              "(same-machine comparisons only)")
    compare.add_argument("--json", default=None)
    compare.add_argument("--dir", default=None)
    compare.set_defaults(func=_cmd_compare)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
