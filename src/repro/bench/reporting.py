"""Formatting benchmark measurements as the paper's tables."""

from __future__ import annotations

from typing import Dict, List

from .harness import BenchmarkMeasurement

#: Table 3 column order (the paper's headings).
TABLE3_COLUMNS = [
    ("constant_folding", "ConstFold"),
    ("static_branch_elimination", "BranchElim"),
    ("load_elimination", "LoadElim"),
    ("dead_code_elimination", "DeadCode"),
    ("complete_loop_unrolling", "Unroll"),
    ("strength_reduction", "StrengthRed"),
]


def format_table2(rows: List[BenchmarkMeasurement]) -> str:
    """Render measurements in the shape of the paper's Table 2."""
    header = (
        "%-28s %-30s %9s %12s %22s %12s %10s"
        % ("Benchmark", "Configuration", "Speedup", "Breakeven",
           "Overhead(setup/stitch)", "Cyc/Instr", "Stitched")
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        region = row.region
        units = row.breakeven_paper_units
        breakeven_str = ("%d %s" % (round(units), row.workload.unit)
                         if units is not None else "never")
        lines.append(
            "%-28s %-30s %8.2fx %12s %10d / %9d %11.0f %10d"
            % (
                row.workload.name[:28],
                row.workload.config[:30],
                region.speedup,
                breakeven_str[:12],
                region.setup_cycles,
                region.stitcher_cycles,
                region.cycles_per_stitched_instr,
                region.instrs_stitched,
            )
        )
        lines.append(
            "%-28s %-30s   (static %.0f vs dynamic %.0f cycles/execution)"
            % ("", "", region.static_per_exec, region.dynamic_per_exec)
        )
    return "\n".join(lines)


def format_table3(rows: List[BenchmarkMeasurement]) -> str:
    """Render the optimizations-applied matrix (paper's Table 3)."""
    header = "%-34s" % "Benchmark" + "".join(
        " %-12s" % title for _, title in TABLE3_COLUMNS)
    lines = [header, "-" * len(header)]
    seen = set()
    for row in rows:
        name = row.workload.name
        if name in seen:
            continue  # one Table 3 row per benchmark, like the paper
        seen.add(name)
        cells = "".join(
            " %-12s" % ("yes" if row.optimizations.get(key) else "-")
            for key, _ in TABLE3_COLUMNS)
        lines.append("%-34s%s" % (name[:34], cells))
    return "\n".join(lines)


def table3_dict(rows: List[BenchmarkMeasurement]) -> Dict[str, Dict[str, bool]]:
    result: Dict[str, Dict[str, bool]] = {}
    for row in rows:
        result.setdefault(row.workload.name, row.optimizations)
    return result


def format_breakeven(rows) -> str:
    """Render per-region break-even rows (:mod:`repro.obs.breakeven`)
    as the paper's Table 2, one line per dynamic region.

    When any row carries tiering data (an adaptive dynamic run), two
    extra columns compare the tier controller's *predicted* break-even
    point against the measured one, plus the cold-entry count -- the
    predicted-vs-actual amortization check.  Eager reports render
    exactly as before.
    """
    tiered = any(getattr(row, "predicted_breakeven", None) is not None
                 or getattr(row, "cold_entries", 0) for row in rows)
    header = ("%-22s %8s %8s %8s %9s %9s %9s %10s %9s"
              % ("region", "execs", "stitches", "hits", "stat/ex",
                 "dyn/ex", "speedup", "overhead", "breakeven"))
    if tiered:
        header += " %9s %6s" % ("predicted", "cold")
    lines = [header, "-" * len(header)]
    for row in rows:
        breakeven = row.breakeven_runs
        line = (
            "%-22s %8d %8d %8d %9.1f %9.1f %8.2fx %10d %9s"
            % ("%s:%d" % (row.func_name, row.region_id),
               row.executions, row.stitches, row.cache_hits,
               row.static_per_exec, row.dynamic_per_exec, row.speedup,
               row.overhead_cycles,
               str(breakeven) if breakeven is not None else "never"))
        if tiered:
            predicted = getattr(row, "predicted_breakeven", None)
            line += " %9s %6d" % (
                str(predicted) if predicted is not None else "-",
                getattr(row, "cold_entries", 0))
        lines.append(line)
        lines.append(
            "%-22s %8s %8s %8s   (%d instrs stitched, %.1f overhead "
            "cycles/instr)"
            % ("", "", "", "", row.instrs_stitched,
               row.cycles_per_stitched_instr))
    return "\n".join(lines)
