"""Ablations for the design choices DESIGN.md calls out.

1. **Fused stitching** -- the paper (end of section 4 / section 5)
   attributes its high dynamic-compile overhead to the separation of
   set-up code, directives and the stitcher, and predicts that merging
   them "should drastically reduce our dynamic compilation costs
   without affecting our asymptotic speedups".  We run the same
   workload under the directive-interpreting cost model and the fused
   model and check exactly that prediction.

2. **Reachability analysis on/off** -- without the second dataflow
   analysis, merges reached through constant branches stop producing
   derived constants; the calculator's interpreter (whose stack pointer
   is constant only because switch-arm merges are constant merges)
   degrades sharply.

3. **Value-based peepholes on/off** -- isolates the strength-reduction
   contribution; scalar-matrix multiply collapses to ~1x without it.
"""

import pytest

from repro import FUSED_STITCHER, compile_program
from repro.bench.harness import measure
from repro.bench.workloads import (
    calculator_workload, scalar_matrix_workload, sparse_matvec_workload,
)

from conftest import record_line


def test_fused_stitcher_cuts_overhead(benchmark):
    workload = sparse_matvec_workload(size=16, per_row=4, reps=4)

    def run():
        separate = measure(workload).region
        fused = measure(workload, stitcher_costs=FUSED_STITCHER).region
        return separate, fused

    separate, fused = benchmark.pedantic(run, rounds=1, iterations=1)
    record_line(
        "ablation/fused-stitcher (sparse): overhead %d -> %d cycles "
        "(%.1fx cheaper), speedup %.2fx -> %.2fx (asymptotics preserved), "
        "breakeven %s -> %s executions" % (
            separate.overhead_cycles, fused.overhead_cycles,
            separate.overhead_cycles / max(1, fused.overhead_cycles),
            separate.speedup, fused.speedup,
            separate.breakeven_runs, fused.breakeven_runs,
        ))
    # drastic overhead reduction...
    assert fused.overhead_cycles < separate.overhead_cycles / 3
    # ...without affecting asymptotic speedup
    assert abs(fused.speedup - separate.speedup) / separate.speedup < 0.01
    # and a correspondingly earlier breakeven
    assert fused.breakeven_runs < separate.breakeven_runs


def test_reachability_analysis_contribution(benchmark):
    workload = calculator_workload(xs=6, ys=6)

    def run():
        # Without reachability, the switch-arm merges are not constant
        # merges, the interpreted stack pointer is no longer a run-time
        # constant, and the unrolled loop's induction chain survives
        # only because unrolled headers are special-cased.
        try:
            without = measure(workload, use_reachability=False).region
        except Exception as exc:  # may even fail to set up
            without = exc
        with_reach = measure(workload, use_reachability=True).region
        return with_reach, without

    with_reach, without = benchmark.pedantic(run, rounds=1, iterations=1)
    if isinstance(without, Exception):
        record_line(
            "ablation/reachability (calculator): OFF -> region no longer "
            "compilable dynamically (%s); ON -> %.2fx"
            % (type(without).__name__, with_reach.speedup))
    else:
        record_line(
            "ablation/reachability (calculator): speedup %.2fx with the "
            "analysis vs %.2fx without" %
            (with_reach.speedup, without.speedup))
        assert with_reach.speedup > without.speedup
    assert with_reach.speedup > 1.5


def test_peepholes_carry_scalar_matrix(benchmark):
    workload = scalar_matrix_workload(rows=10, cols=20, scalars=12)
    no_peep_costs = FUSED_STITCHER.scaled(1.0)
    no_peep_costs.enable_peepholes = False

    def run():
        with_peep = measure(workload, stitcher_costs=FUSED_STITCHER)
        without_peep = measure(workload, stitcher_costs=no_peep_costs)
        return with_peep, without_peep

    with_peep, without_peep = benchmark.pedantic(run, rounds=1, iterations=1)
    record_line(
        "ablation/peepholes (scalar-matrix): speedup %.2fx with "
        "strength reduction vs %.2fx without" %
        (with_peep.region.speedup, without_peep.region.speedup))
    assert with_peep.region.speedup > without_peep.region.speedup
    # without strength reduction the kernel barely beats static code
    assert without_peep.region.speedup < 1.15
    assert not without_peep.optimizations["strength_reduction"]


def test_overhead_scales_linearly_with_stitcher_cost(benchmark):
    """Breakeven is overhead / per-execution gain: scaling the stitcher
    cost model must scale overhead (and so breakeven) proportionally
    while leaving the asymptotic speedup untouched -- the structural
    claim behind the paper's Table 2 arithmetic."""
    from repro.machine.costs import StitcherCosts

    workload = calculator_workload(xs=8, ys=8)

    def run():
        return [measure(workload,
                        stitcher_costs=StitcherCosts().scaled(factor)).region
                for factor in (0.5, 1.0, 2.0)]

    half, base, double = benchmark.pedantic(run, rounds=1, iterations=1)
    record_line(
        "ablation/cost-sweep (calculator): overhead %d / %d / %d cycles "
        "at 0.5x / 1x / 2x stitcher cost; speedup stays %.2fx"
        % (half.overhead_cycles, base.overhead_cycles,
           double.overhead_cycles, base.speedup))
    assert half.speedup == base.speedup == double.speedup
    # Stitcher cycles scale ~linearly with the cost model (4x from
    # factor 0.5 to factor 2.0; set-up code cost is unaffected).
    ratio = double.stitcher_cycles / half.stitcher_cycles
    assert 3.5 < ratio < 4.5
    assert half.breakeven_runs < base.breakeven_runs \
        < double.breakeven_runs


def test_keyed_cache_reuses_compiled_code(benchmark):
    """Re-running a keyed region with a seen key must hit the code
    cache: one stitch per distinct key regardless of call count."""
    workload = scalar_matrix_workload(rows=6, cols=6, scalars=5)
    source = workload.source.replace(
        "for (s = 1; s <= 5; s++) {",
        "for (s = 1; s <= 5; s++) {")

    def run():
        program = compile_program(source, mode="dynamic")
        first = program.run()
        return first

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(result.stitch_reports) == 5
    keys = sorted(r.key for r in result.stitch_reports)
    assert keys == [(1,), (2,), (3,), (4,), (5,)]
