"""Stitcher-internals tests: reports, directive counts, error paths,
label resolution, branch elision, the linearized constants pool."""

import pytest

from repro import compile_program
from repro.dynamic.stitcher import MAX_UNROLL, StitchError, StitchReport
from repro.machine.costs import FUSED_STITCHER, StitcherCosts
from repro.machine.loader import load_program
from repro.machine.vm import VM
from repro.runtime.engine import _RegionRuntime


def stitch_and_inspect(source, args=None, **compile_kwargs):
    """Compile dynamically, run on a persistent VM, return
    (program, vm, reports, run_value)."""
    program = compile_program(source, mode="dynamic", **compile_kwargs)
    vm = VM()
    program.layout.write_into(vm)
    load_program(vm, program.compiled)
    runtime = _RegionRuntime(program, vm)
    vm.rt_handlers["region_lookup"] = runtime.lookup
    vm.rt_handlers["region_stitch"] = runtime.stitch
    preload = [(16 + i, v) for i, v in enumerate(args or [])]
    value, _ = vm.run(program.compiled["main"].base, preload)
    reports = [event.report for event in runtime.log.entries
               if event.kind == "stitch"]
    return program, vm, reports, value


SIMPLE = """
int f(int c, int v) {
    dynamicRegion (c) {
        int d = c * 5 + 2;
        return d + v;
    }
}
int main() { return f(8, 1) + f(8, 2); }
"""


def test_stitched_code_installed_after_functions(      ):
    program, vm, reports, value = stitch_and_inspect(SIMPLE)
    (report,) = reports
    function_end = max(fn.base + len(fn.code)
                       for fn in program.compiled.values())
    assert report.entry >= function_end
    assert value == 43 + 44  # d = 8*5+2 = 42, plus v = 1 and 2


def test_branch_targets_resolved_absolutely():
    program, vm, reports, _ = stitch_and_inspect(SIMPLE)
    (report,) = reports
    for instr in vm.code[report.entry:]:
        if instr.op in ("br", "beq", "bne"):
            assert 0 <= instr.target < len(vm.code)


def test_directive_count_includes_start_end():
    _, _, reports, _ = stitch_and_inspect(SIMPLE)
    (report,) = reports
    # START + END + at least one HOLE
    assert report.directives >= 3


def test_cycles_match_cost_model():
    costs = StitcherCosts()
    _, _, reports, _ = stitch_and_inspect(SIMPLE, stitcher_costs=costs)
    (report,) = reports
    expected = (
        costs.per_region
        + report.directives * costs.per_directive
        + report.instrs_emitted * costs.per_instr_copied
        + report.holes_patched * costs.per_hole
        + report.branch_fixups * costs.per_branch_fixup
        + report.pool_entries * costs.per_pool_entry
        + report.records_followed * costs.per_loop_record
        + sum(report.peepholes.values()) * costs.per_peephole
    )
    assert report.cycles == expected


def test_fused_costs_cheaper():
    _, _, reports_a, _ = stitch_and_inspect(SIMPLE)
    _, _, reports_b, _ = stitch_and_inspect(
        SIMPLE, stitcher_costs=FUSED_STITCHER)
    assert reports_b[0].cycles < reports_a[0].cycles
    assert reports_b[0].instrs_emitted == reports_a[0].instrs_emitted


def test_large_constant_goes_to_pool():
    source = """
    int f(int c, int v) {
        dynamicRegion (c) {
            int big = c * 100000;
            return big + v;      // big = 7 billion-ish, not imm16
        }
    }
    int main() { return f(70000, 1) == 7000000001; }
    """
    program, vm, reports, value = stitch_and_inspect(source)
    (report,) = reports
    assert value == 1
    assert report.pool_entries >= 1
    # the pool value is in data memory at pool_base
    pool_values = [vm.memory[report.pool_base + i]
                   for i in range(report.pool_entries)]
    assert 7000000000 in pool_values


def test_float_constants_always_pooled():
    source = """
    float f(float c, float v) {
        dynamicRegion (c) {
            float d = c + c;
            return d * v;
        }
    }
    int main() { return (int) f(1.25, 4.0); }
    """
    _, vm, reports, value = stitch_and_inspect(source)
    (report,) = reports
    assert value == 10
    assert report.pool_entries >= 1
    assert vm.memory[report.pool_base] == 2.5


def test_branch_to_next_instruction_elided():
    # Straight-line region: the jump joining consecutive blocks should
    # be removed by the stitcher's layout pass.
    source = """
    int f(int c, int v) {
        dynamicRegion (c) {
            int d = c * 3;
            v = v + d;
            v = v * 2;
            return v;
        }
    }
    int main() { return f(2, 1); }
    """
    _, vm, reports, value = stitch_and_inspect(source)
    (report,) = reports
    assert value == 14
    code = vm.code[report.entry:]
    # only the final exit branch remains
    branch_count = sum(1 for i in code if i.op == "br")
    assert branch_count <= 1


def test_broken_record_chain_raises():
    from repro.codegen.objects import RegionCode
    from repro.dynamic.table import LoopPlan, TablePlan

    program = compile_program("""
        int f(int n, int *xs) {
            int t = 0;
            dynamicRegion (n) {
                int i;
                unrolled for (i = 0; i < n; i++) t += xs dynamic[ i ];
                return t;
            }
        }
        int main() { int xs[3]; xs[0]=1; xs[1]=2; xs[2]=3;
                     return f(3, xs); }
    """, mode="dynamic")
    vm = VM()
    program.layout.write_into(vm)
    load_program(vm, program.compiled)
    region = program.region_codes()[0]
    # Hand the stitcher a table whose loop head pointer is null.
    table_addr = vm.alloc(region.table.top_size)
    from repro.dynamic.stitcher import Stitcher
    stitcher = Stitcher(vm, program.compiled["f"], region, table_addr,
                        StitcherCosts())
    with pytest.raises(StitchError):
        stitcher.stitch()


def test_report_optimizations_shape():
    report = StitchReport("f", 1)
    opts = report.optimizations_applied()
    assert set(opts) == {
        "constant_folding", "static_branch_elimination",
        "dead_code_elimination", "complete_loop_unrolling",
        "strength_reduction",
    }
    assert not any(opts.values())


def test_stitch_once_then_cache_hit():
    program, vm, reports, _ = stitch_and_inspect(SIMPLE)
    assert len(reports) == 1  # second call hit the cache
    # dispatch owner saw two lookups
    assert vm.instrs_by_owner.get("dispatch:f:1", 0) > 0


def test_peephole_toggle_respected():
    costs = StitcherCosts()
    costs.enable_peepholes = False
    source = """
    int f(int c, int v) {
        dynamicRegion (c) { return v * c; }
    }
    int main() { return f(8, 5); }
    """
    _, _, reports, value = stitch_and_inspect(source, stitcher_costs=costs)
    assert value == 40
    assert reports[0].peepholes == {}
    _, _, reports2, _ = stitch_and_inspect(source)
    assert "mul_to_shift" in reports2[0].peepholes


def test_owner_tagging_of_stitched_code():
    _, vm, reports, _ = stitch_and_inspect(SIMPLE)
    (report,) = reports
    for instr in vm.code[report.entry:]:
        assert instr.owner == "stitched:f:1"


# -- directive-level behaviour ---------------------------------------------

def _stitched_is_acyclic(vm, report):
    """No branch inside the stitched code targets an earlier (or its
    own) stitched pc -- i.e. complete unrolling left no loops."""
    for offset, instr in enumerate(vm.code[report.entry:]):
        if instr.op in ("br", "beq", "bne") and instr.target is not None:
            if report.entry <= instr.target <= report.entry + offset:
                return False
    return True


def test_restart_loop_follows_one_record_per_iteration():
    source = """
    int f(int n, int v) {
        int t = 0;
        dynamicRegion (n) {
            int i;
            unrolled for (i = 0; i < n; i++) t += i;
            return t * v;
        }
    }
    int main() { return f(5, 2); }
    """
    _, vm, reports, value = stitch_and_inspect(source)
    (report,) = reports
    assert value == (0 + 1 + 2 + 3 + 4) * 2
    (iterations,) = report.loop_iterations.values()
    # The header is stitched once per record: ENTER_LOOP reads the head
    # record, then each back edge is a RESTART_LOOP advancing the
    # chain.  Five bodies -> five back edges -> six header copies.
    assert iterations == 6
    assert report.records_followed == 6
    # START + END + ENTER + 5 RESTARTs are all directives, on top of
    # the per-copy CONST_BRANCH/HOLE ones.
    assert report.directives >= 2 + 6
    assert _stitched_is_acyclic(vm, report)


def test_nested_unrolled_loops_fully_unrolled():
    source = """
    int f(int n, int m, int v) {
        int t = 0;
        dynamicRegion (n, m) {
            int i; int j;
            unrolled for (i = 0; i < n; i++) {
                unrolled for (j = 0; j < m; j++) {
                    t += i * m + j;
                }
            }
            return t + v;
        }
    }
    int main() { return f(3, 2, 100); }
    """
    _, vm, reports, value = stitch_and_inspect(source)
    (report,) = reports
    assert value == 100 + sum(i * 2 + j for i in range(3) for j in range(2))
    assert len(report.loop_iterations) == 2
    # The outer chain has 4 records (3 bodies + exit test); the inner
    # loop is re-entered per outer iteration, each entry following a
    # 3-record chain of its own: 4 + 3 * 3 records in total.
    assert report.records_followed == 4 + 3 * 3
    # loop_iterations counts ENTER once (first entry) plus one per
    # RESTART: outer 1 + 3, inner 1 + 3 entries * 2 back edges.
    assert sorted(report.loop_iterations.values()) == [4, 7]
    assert report.optimizations_applied()["complete_loop_unrolling"]
    assert _stitched_is_acyclic(vm, report)


def test_const_branch_chain_drops_both_dead_arms():
    # Chained constant branches: the untaken side of the outer branch
    # holds another constant branch -- neither of its arms may be
    # stitched at all, and the taken side's own dead arm is elided.
    source = """
    int f(int c, int v) {
        int r = v;
        dynamicRegion (c) {
            if (c > 4) {
                if (c > 8) { r = r * 11; } else { r = r * 12345; }
            } else {
                if (c < 2) { r = r * 23456; } else { r = r * 339; }
            }
            return r;
        }
    }
    int main() { return f(9, 3); }
    """
    _, vm, reports, value = stitch_and_inspect(source)
    (report,) = reports
    assert value == 3 * 11
    # Only the branches actually reached get resolved: the outer test
    # and the inner test on its taken side.  The else-side inner branch
    # is dead code and is never even visited.
    assert report.const_branches_resolved == 2
    assert report.dead_sides_eliminated == 2
    dead_constants = {12345, 23456, 339}
    for instr in vm.code[report.entry:]:
        assert instr.imm not in dead_constants
    pool = [vm.memory[report.pool_base + i]
            for i in range(report.pool_entries)]
    assert not dead_constants & set(pool)
