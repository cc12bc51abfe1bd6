"""Break-even reporting: the paper's Table 2, live, per region.

Section 5 of "Fast, Effective Dynamic Compilation" evaluates the
system with three numbers per benchmark: the *asymptotic speedup* of
dynamically compiled code over statically compiled code, the one-time
*dynamic compilation overhead* (set-up code + stitcher, also expressed
in cycles per stitched instruction), and the *break-even point* -- how
many executions of the region it takes for the saved cycles to repay
the overhead.  This module computes exactly those numbers for **every
dynamic region of any program**, from a pair of instrumented runs:

* the *static* run charges each region body to ``region:<f>:<r>``;
* the *dynamic* run splits the same work into ``stitched:<f>:<r>``
  (generated-code executions), ``dispatch:<f>:<r>`` (cache lookup and
  entry glue), ``setup:<f>:<r>`` (table-filling set-up code) and
  ``stitcher:<f>:<r>`` (the dynamic compiler itself);
* the region runtime counts real region entries and code-cache
  hits/misses, so per-execution figures divide by what actually ran
  (not by a workload's declared execution count).

Terminology mapping to the paper (docs/OBSERVABILITY.md has the full
table): ``overhead == setup + stitcher`` ("set-up & stitcher"
columns), ``speedup == static_per_exec / dynamic_per_exec``
("asymptotic speedup"), ``breakeven_runs == ceil(overhead /
(static_per_exec - dynamic_per_exec))`` ("breakeven point"),
``cycles_per_stitched_instr == overhead / instrs_stitched``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

Number = float


@dataclass
class BreakEvenRow:
    """Break-even economics of one dynamic region."""

    func_name: str
    region_id: int
    #: Region entries observed in the dynamic run (cache hits + misses).
    executions: int
    #: Stitches performed (== cache misses).
    stitches: int
    #: Code-cache hits (reused previously stitched code).
    cache_hits: int
    #: Static-baseline cycles spent in the region body, whole run.
    static_cycles: int
    #: Dynamic-run cycles in stitched code, whole run.
    stitched_cycles: int
    #: Dynamic-run cycles in lookup/enter glue, whole run.
    dispatch_cycles: int
    #: One-time set-up code cycles (table filling).
    setup_cycles: int
    #: One-time stitcher (dynamic compiler) cycles.
    stitcher_cycles: int
    #: Total instructions emitted by stitches of this region.
    instrs_stitched: int
    #: Region entries the tiering policy served cold (0 for eager runs).
    cold_entries: int = 0
    #: The tier controller's predicted break-even entry count (the
    #: smallest prediction across the region's keys), when the dynamic
    #: run was adaptive and a prediction was made; None otherwise.
    #: Comparing it with the measured :attr:`breakeven_runs` is the
    #: report's predicted-vs-actual amortization check.
    predicted_breakeven: Optional[int] = None

    # -- derived (the paper's Section 5 quantities) -----------------------

    @property
    def static_per_exec(self) -> float:
        return self.static_cycles / max(1, self.executions)

    @property
    def dynamic_per_exec(self) -> float:
        return (self.stitched_cycles + self.dispatch_cycles) \
            / max(1, self.executions)

    @property
    def saved_per_exec(self) -> float:
        """Cycles saved each time the stitched code runs instead of the
        static code (negative when dynamic is slower)."""
        return self.static_per_exec - self.dynamic_per_exec

    @property
    def speedup(self) -> float:
        if self.dynamic_per_exec == 0:
            return float("inf")
        return self.static_per_exec / self.dynamic_per_exec

    @property
    def overhead_cycles(self) -> int:
        """One-time dynamic-compilation cost: set-up + stitcher."""
        return self.setup_cycles + self.stitcher_cycles

    @property
    def breakeven_runs(self) -> Optional[int]:
        """Executions at which dynamic compilation has paid for itself,
        or None when it never does."""
        saved = self.saved_per_exec
        if saved <= 0:
            return None
        return math.ceil(self.overhead_cycles / saved)

    @property
    def cycles_per_stitched_instr(self) -> float:
        return self.overhead_cycles / max(1, self.instrs_stitched)

    def to_dict(self) -> Dict[str, object]:
        """JSON-stable rendering (raw fields + derived metrics).

        Tiering fields are emitted only for adaptive runs, so eager
        reports stay bit-identical to the pre-tiering goldens.
        """
        breakeven = self.breakeven_runs
        out = self._base_dict(breakeven)
        if self.predicted_breakeven is not None or self.cold_entries:
            out["cold_entries"] = self.cold_entries
            out["predicted_breakeven"] = self.predicted_breakeven
        return out

    def _base_dict(self, breakeven) -> Dict[str, object]:
        return {
            "region": "%s:%d" % (self.func_name, self.region_id),
            "executions": self.executions,
            "stitches": self.stitches,
            "cache_hits": self.cache_hits,
            "static_cycles": self.static_cycles,
            "stitched_cycles": self.stitched_cycles,
            "dispatch_cycles": self.dispatch_cycles,
            "setup_cycles": self.setup_cycles,
            "stitcher_cycles": self.stitcher_cycles,
            "instrs_stitched": self.instrs_stitched,
            "overhead_cycles": self.overhead_cycles,
            "static_per_exec": round(self.static_per_exec, 4),
            "dynamic_per_exec": round(self.dynamic_per_exec, 4),
            "saved_per_exec": round(self.saved_per_exec, 4),
            "speedup": round(self.speedup, 4),
            "breakeven_runs": breakeven,
            "cycles_per_stitched_instr": round(
                self.cycles_per_stitched_instr, 4),
        }


def rows_from_results(static_result, dynamic_result) -> List[BreakEvenRow]:
    """Per-region break-even rows from one static + one dynamic run of
    the same program on the same inputs."""
    entries = dynamic_result.region_entries
    # (region, entry kind) -> entries, and region -> instructions
    # stitched, both read off the dynamic run's entry log.
    kinds: Counter = Counter()
    instrs: Counter = Counter()
    for event in dynamic_result.entries:
        region = (event.func_name, event.region_id)
        kinds[region, event.kind] += 1
        if event.report is not None:
            instrs[region] += event.report.instrs_emitted
    rows: List[BreakEvenRow] = []
    tier_stats = dynamic_result.tier_stats
    for key in sorted(set(entries) | {region for region, _ in kinds}):
        func_name, region_id = key
        suffix = "%s:%d" % key
        dyn = dynamic_result.cycles_by_owner
        region_tier = tier_stats.get(key, {})
        rows.append(BreakEvenRow(
            func_name=func_name,
            region_id=region_id,
            executions=entries.get(key, 0),
            stitches=kinds[key, "stitch"],
            cache_hits=kinds[key, "hit"],
            static_cycles=static_result.cycles_by_owner.get(
                "region:" + suffix, 0),
            stitched_cycles=dyn.get("stitched:" + suffix, 0),
            dispatch_cycles=dyn.get("dispatch:" + suffix, 0),
            setup_cycles=dyn.get("setup:" + suffix, 0),
            stitcher_cycles=dyn.get("stitcher:" + suffix, 0),
            instrs_stitched=instrs[key],
            cold_entries=kinds[key, "cold"],
            predicted_breakeven=region_tier.get("predicted_breakeven"),
        ))
    return rows


def break_even_source(source: str, args: Optional[List[int]] = None,
                      max_cycles: int = 4_000_000_000,
                      **compile_kwargs) -> List[BreakEvenRow]:
    """Compile ``source`` both ways, run both, report per region.

    ``compile_kwargs`` pass through to
    :func:`repro.runtime.engine.compile_program` (opt_options,
    stitcher_costs, use_reachability, ...).
    """
    from ..runtime.engine import compile_program
    static_program = compile_program(source, mode="static",
                                     **compile_kwargs)
    dynamic_program = compile_program(source, mode="dynamic",
                                      **compile_kwargs)
    static_result = static_program.run(args=args, max_cycles=max_cycles)
    dynamic_result = dynamic_program.run(args=args, max_cycles=max_cycles)
    if static_result.value != dynamic_result.value:
        raise AssertionError(
            "break-even run diverged: static %r != dynamic %r"
            % (static_result.value, dynamic_result.value))
    return rows_from_results(static_result, dynamic_result)


def break_even_workload(workload,
                        max_cycles: int = 4_000_000_000,
                        **compile_kwargs) -> List[BreakEvenRow]:
    """Break-even rows for a bench :class:`Workload` (sanity-checks the
    expected result when the workload declares one)."""
    from ..runtime.engine import compile_program
    static_program = compile_program(workload.source, mode="static",
                                     **compile_kwargs)
    dynamic_program = compile_program(workload.source, mode="dynamic",
                                      **compile_kwargs)
    static_result = static_program.run(max_cycles=max_cycles)
    dynamic_result = dynamic_program.run(max_cycles=max_cycles)
    for leg, result in (("static", static_result),
                        ("dynamic", dynamic_result)):
        if workload.expected is not None \
                and result.value != workload.expected:
            raise AssertionError(
                "%s: %s result %d != expected %d"
                % (workload.name, leg, result.value, workload.expected))
    return rows_from_results(static_result, dynamic_result)
