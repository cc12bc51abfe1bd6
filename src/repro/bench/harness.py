"""Measurement harness reproducing the paper's Table 2 and Table 3.

For one workload, the harness compiles the program twice (static
baseline and dynamic), runs both on the VM, and takes the workload
region's :class:`~repro.obs.breakeven.BreakEvenRow` from that pair.
The row is the one definition of the Section 5 quantities (asymptotic
speedup, set-up + stitcher overhead, break-even point, cycles per
stitched instruction), counting executions as region entries.  The
harness adds only what the row cannot know: the workload, the Table 3
row (which dynamic optimizations were applied) and the paper's
break-even unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..machine.costs import StitcherCosts
from ..obs.breakeven import BreakEvenRow, rows_from_results
from ..opt.pipeline import OptOptions
from ..runtime.engine import Program, RunResult, compile_program
from .workloads import Workload


@dataclass
class BenchmarkMeasurement:
    """One Table 2 row (plus its Table 3 row)."""

    workload: Workload
    #: The workload region's break-even economics.
    region: BreakEvenRow
    #: Paper break-even units (``workload.unit``) per region execution.
    units_per_execution: float
    optimizations: Dict[str, bool] = field(default_factory=dict)
    static_result: Optional[RunResult] = None
    dynamic_result: Optional[RunResult] = None

    @property
    def breakeven_paper_units(self) -> Optional[float]:
        runs = self.region.breakeven_runs
        if runs is None:
            return None
        return runs * self.units_per_execution


def region_row(workload: Workload, static_result: RunResult,
               dynamic_result: RunResult) -> BreakEvenRow:
    """The workload region's row from one static + one dynamic run."""
    key = (workload.region_func, workload.region_id)
    for row in rows_from_results(static_result, dynamic_result):
        if (row.func_name, row.region_id) == key:
            return row
    raise AssertionError("%s: region %s:%d was never entered"
                         % ((workload.name,) + key))


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

    region = region_row(workload, static_result, dynamic_result)
    units = workload.units_per_execution
    if workload.unit == "records" and region.executions:
        # The sorter's region is one comparison; the paper counts
        # records sorted.
        units = int(workload.config.split()[0]) / region.executions

    func = workload.region_func
    rid = workload.region_id
    optimizations: Dict[str, bool] = {
        "constant_folding": False,
        "static_branch_elimination": False,
        "load_elimination": False,
        "dead_code_elimination": False,
        "complete_loop_unrolling": False,
        "strength_reduction": False,
    }
    for report in dynamic_result.stitch_reports:
        if (report.func_name, report.region_id) == (func, rid):
            for key, value in report.optimizations_applied().items():
                optimizations[key] = optimizations.get(key, False) or value
    # Load elimination is a static property: constant loads moved into
    # set-up code, leaving the template without them.
    optimizations["load_elimination"] = \
        _setup_has_loads(dynamic_program, func, rid)

    return BenchmarkMeasurement(
        workload=workload,
        region=region,
        units_per_execution=units,
        optimizations=optimizations,
        static_result=static_result,
        dynamic_result=dynamic_result,
    )


def _setup_has_loads(program: Program, func: str, rid: int) -> bool:
    """Did constant loads move to set-up code (paper's load
    elimination)?  Checked on the compiled set-up blocks."""
    compiled = program.compiled.get(func)
    if compiled is None:
        return False
    owner = "setup:%s:%d" % (func, rid)
    return any(instr.owner == owner and instr.op in ("ldq", "ldt")
               for instr in compiled.code)
