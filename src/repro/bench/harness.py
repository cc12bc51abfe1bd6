"""Measurement harness reproducing the paper's Table 2 metrics.

For one workload, the harness compiles the program twice (static
baseline and dynamic), runs both on the VM, and derives:

* *asymptotic speedup* -- static region cycles per execution divided by
  dynamic region cycles per execution (stitched code + dispatch);
* *dynamic compilation overhead* -- one-time set-up code cycles and
  stitcher cycles (the paper's "set-up & stitcher" column);
* *breakeven point* -- the smallest number of executions at which the
  dynamic version's total cost undercuts the static version's, i.e.
  ``ceil(overhead / (static_per_exec - dynamic_per_exec))``;
* *cycles per stitched instruction* and the stitched instruction count;
* the Table 3 row: which dynamic optimizations were applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..machine.costs import StitcherCosts
from ..opt.pipeline import OptOptions
from ..runtime.engine import Program, RunResult, compile_program
from .workloads import Workload


@dataclass
class BenchmarkMeasurement:
    """One Table 2 row (plus its Table 3 row)."""

    workload: Workload
    executions: int
    static_cycles: int
    dynamic_stitched_cycles: int
    dynamic_dispatch_cycles: int
    setup_cycles: int
    stitcher_cycles: int
    instrs_stitched: int
    stitches: int
    optimizations: Dict[str, bool] = field(default_factory=dict)
    static_result: Optional[RunResult] = None
    dynamic_result: Optional[RunResult] = None

    # -- derived metrics --------------------------------------------------

    @property
    def static_per_execution(self) -> float:
        return self.static_cycles / max(1, self.executions)

    @property
    def dynamic_per_execution(self) -> float:
        return (self.dynamic_stitched_cycles + self.dynamic_dispatch_cycles) \
            / max(1, self.executions)

    @property
    def speedup(self) -> float:
        if self.dynamic_per_execution == 0:
            return float("inf")
        return self.static_per_execution / self.dynamic_per_execution

    @property
    def overhead(self) -> int:
        """One-time dynamic compilation cost (set-up + stitcher)."""
        return self.setup_cycles + self.stitcher_cycles

    @property
    def breakeven_executions(self) -> Optional[int]:
        """Executions needed before dynamic compilation pays off, or
        None when the dynamic version never wins."""
        gain = self.static_per_execution - self.dynamic_per_execution
        if gain <= 0:
            return None
        return math.ceil(self.overhead / gain)

    @property
    def breakeven_paper_units(self) -> Optional[float]:
        b = self.breakeven_executions
        if b is None:
            return None
        return b * self.workload.units_per_execution

    @property
    def cycles_per_stitched_instr(self) -> float:
        return self.overhead / max(1, self.instrs_stitched)


def measure(workload: Workload,
            opt_options: Optional[OptOptions] = None,
            stitcher_costs: Optional[StitcherCosts] = None,
            use_reachability: bool = True,
            max_cycles: int = 4_000_000_000,
            backend: Optional[str] = None) -> BenchmarkMeasurement:
    """Compile and run ``workload`` in both modes; returns the row.

    ``backend`` picks the execution backend for both runs.  The
    measured quantities are simulated cycles, which the backend seam
    guarantees are backend-invariant -- the knob exists so the bench
    can double as a backend cross-check (and to measure host time
    under either backend)."""
    static_program = compile_program(workload.source, mode="static",
                                     opt_options=opt_options,
                                     backend=backend)
    dynamic_program = compile_program(workload.source, mode="dynamic",
                                      opt_options=opt_options,
                                      use_reachability=use_reachability,
                                      stitcher_costs=stitcher_costs,
                                      backend=backend)
    static_result = static_program.run(max_cycles=max_cycles)
    dynamic_result = dynamic_program.run(max_cycles=max_cycles)
    if static_result.value != dynamic_result.value:
        raise AssertionError(
            "%s: static result %d != dynamic result %d"
            % (workload.name, static_result.value, dynamic_result.value))
    if workload.expected is not None and \
            static_result.value != workload.expected:
        raise AssertionError(
            "%s: result %d != expected %d"
            % (workload.name, static_result.value, workload.expected))

    executions = workload.executions
    if executions < 0:
        # Data-dependent execution count printed by the program
        # (e.g. the sorter's comparison counter).
        executions = int(dynamic_result.output[0])
        if workload.unit == "records" and executions:
            # convert "comparisons" to the paper's "records" unit
            records = int(workload.config.split()[0])
            workload.units_per_execution = records / executions

    func = workload.region_func
    rid = workload.region_id
    static_region = static_result.region_cycles(func, rid, "static")
    dynamic_region = dynamic_result.region_cycles(func, rid, "dynamic")

    optimizations: Dict[str, bool] = {
        "constant_folding": False,
        "static_branch_elimination": False,
        "load_elimination": False,
        "dead_code_elimination": False,
        "complete_loop_unrolling": False,
        "strength_reduction": False,
    }
    reports = [report for report in dynamic_result.stitch_reports
               if (report.func_name, report.region_id) == (func, rid)]
    for report in reports:
        for key, value in report.optimizations_applied().items():
            optimizations[key] = optimizations.get(key, False) or value
    # Load elimination is a static property: constant loads moved into
    # set-up code, leaving the template without them.
    for plan in dynamic_program.plans:
        if plan.func_name == func and plan.region_id == rid:
            from ..ir.instructions import Load
            ir_func = None  # plans keep only names; check compiled setup
            optimizations["load_elimination"] = \
                _setup_has_loads(dynamic_program, plan)

    return BenchmarkMeasurement(
        workload=workload,
        executions=executions,
        static_cycles=static_region.get("region", 0),
        dynamic_stitched_cycles=dynamic_region.get("stitched", 0),
        dynamic_dispatch_cycles=dynamic_region.get("dispatch", 0),
        setup_cycles=dynamic_region.get("setup", 0),
        stitcher_cycles=dynamic_region.get("stitcher", 0),
        instrs_stitched=sum(report.instrs_emitted for report in reports),
        stitches=len(reports),
        optimizations=optimizations,
        static_result=static_result,
        dynamic_result=dynamic_result,
    )


def _setup_has_loads(program: Program, plan) -> bool:
    """Did constant loads move to set-up code (paper's load
    elimination)?  Checked on the compiled set-up blocks."""
    compiled = program.compiled.get(plan.func_name)
    if compiled is None:
        return False
    owner = "setup:%s:%d" % (plan.func_name, plan.region_id)
    return any(instr.owner == owner and instr.op in ("ldq", "ldt")
               for instr in compiled.code)
