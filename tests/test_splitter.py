"""Region splitter structural tests (table plans, set-up graphs,
template rewriting, dispatch wiring)."""

import pytest

from repro import RunConfig
from repro.dynamic.regionops import RegionEnter, RegionLookup, RegionStitch
from repro.dynamic.splitter import split_module
from repro.frontend.errors import AnnotationError
from repro.ir.instructions import Load, Store
from repro.ir.ssa import to_ssa
from repro.ir.values import HoleRef
from repro.opt.pipeline import optimize
from repro.testing.genprog import generate_program
from repro.testing.oracle import run_oracle

from helpers import build, run_all_ways


def split(source):
    module = build(source)
    for func in module.functions.values():
        to_ssa(func)
        optimize(func)
    plans = split_module(module)
    return module, plans


SIMPLE = """
int f(int c, int v) {
    dynamicRegion (c) {
        int d = c * 3;
        return d + v;
    }
}
"""


def test_plan_has_dispatch_structure():
    module, (plan,) = split(SIMPLE)
    func = module.functions["f"]
    assert plan.dispatch_block in func.blocks
    assert plan.enter_block in func.blocks
    assert plan.stitch_block in func.blocks
    assert plan.setup_entry in func.blocks
    func.verify()


def test_dispatch_contains_region_ops():
    module, (plan,) = split(SIMPLE)
    func = module.functions["f"]
    dispatch = func.blocks[plan.dispatch_block]
    assert any(isinstance(i, RegionLookup) for i in dispatch.instrs)
    stitch = func.blocks[plan.stitch_block]
    assert any(isinstance(i, RegionStitch) for i in stitch.instrs)
    enter = func.blocks[plan.enter_block]
    assert isinstance(enter.terminator, RegionEnter)


def test_template_has_holes_no_const_defs():
    module, (plan,) = split(SIMPLE)
    func = module.functions["f"]
    hole_count = 0
    for name in plan.template_blocks:
        for instr in func.blocks[name].all_instrs():
            dst = instr.defs()
            if dst is not None:
                assert dst.name not in plan.analysis.const_names
            for used in instr.uses():
                if isinstance(used, HoleRef):
                    hole_count += 1
    assert hole_count >= 1


def test_setup_stores_resident_constants():
    module, (plan,) = split(SIMPLE)
    func = module.functions["f"]
    stores = [
        instr
        for name in plan.setup_blocks
        for instr in func.blocks[name].all_instrs()
        if isinstance(instr, Store)
    ]
    assert len(stores) == len(plan.table.slots)


def test_table_slots_dense_and_in_bounds():
    source = """
    int f(int n, int *xs, int v) {
        dynamicRegion (n, xs) {
            int t = 0; int i;
            unrolled for (i = 0; i < n; i++) {
                t += xs[i] * v;
            }
            return t;
        }
    }
    """
    module, (plan,) = split(source)
    table = plan.table
    slots = sorted(table.slots.values())
    assert slots == list(range(len(slots)))
    assert table.top_size == len(table.slots) + sum(
        1 for l in table.loops.values() if l.parent is None)
    for loop in table.loops.values():
        record_slots = sorted(loop.slots.values())
        assert record_slots == list(range(1, len(record_slots) + 1))
        assert loop.head_slot >= len(table.slots)
        assert loop.record_size == 1 + len(loop.slots) + \
            len(loop.inner_head_slots) + 1


def test_unrolled_loop_gets_loop_plan():
    source = """
    int f(int n, int *xs, int v) {
        dynamicRegion (n, xs) {
            int t = 0; int i;
            unrolled for (i = 0; i < n; i++) t += xs[i] * v;
            return t;
        }
    }
    """
    module, (plan,) = split(source)
    assert len(plan.table.loops) == 1
    (loop,) = plan.table.loops.values()
    assert loop.predicate  # the i < n test
    assert loop.header in plan.template_blocks


def test_const_branch_slot_recorded():
    source = """
    int f(int mode, int v) {
        dynamicRegion (mode) {
            if (mode > 1) return v * 2;
            return v;
        }
    }
    """
    module, (plan,) = split(source)
    assert len(plan.const_branch_slots) == 1
    ((block, slot),) = plan.const_branch_slots.items()
    assert block in plan.template_blocks
    loop_id, index = slot
    assert loop_id is None
    assert index in plan.table.slots.values()


def test_region_entry_preds_retargeted():
    module, (plan,) = split(SIMPLE)
    func = module.functions["f"]
    preds = func.predecessors()
    external = [p for p in preds[plan.template_entry]
                if p not in plan.template_blocks
                and p != plan.enter_block]
    assert external == []  # only the enter block reaches the template


def test_constant_loads_removed_from_template():
    # Loads through the constant pointer disappear from the template --
    # the paper's "load elimination".
    source = """
    struct Config { int a; int b; };
    int f(Config *cfg, int v) {
        dynamicRegion (cfg) {
            return cfg->a * v + cfg->b;
        }
    }
    """
    module, (plan,) = split(source)
    func = module.functions["f"]
    template_loads = [
        i for name in plan.template_blocks
        for i in func.blocks[name].all_instrs()
        if isinstance(i, Load)
    ]
    assert template_loads == []
    setup_loads = [
        i for name in plan.setup_blocks
        for i in func.blocks[name].all_instrs()
        if isinstance(i, Load)
    ]
    assert len(setup_loads) == 2


def test_dynamic_loads_stay_in_template():
    source = """
    int f(int *data, int v) {
        dynamicRegion (data) {
            return (dynamic* data) + v;
        }
    }
    """
    module, (plan,) = split(source)
    func = module.functions["f"]
    template_loads = [
        i for name in plan.template_blocks
        for i in func.blocks[name].all_instrs()
        if isinstance(i, Load)
    ]
    assert len(template_loads) == 1
    assert template_loads[0].dynamic
    assert isinstance(template_loads[0].addr, HoleRef)


def test_float_hole_marked():
    source = """
    float f(float factor, float x) {
        dynamicRegion (factor) {
            float twice = factor + factor;
            return x * twice;
        }
    }
    """
    module, (plan,) = split(source)
    func = module.functions["f"]
    holes = [
        used
        for name in plan.template_blocks
        for i in func.blocks[name].all_instrs()
        for used in i.uses()
        if isinstance(used, HoleRef)
    ]
    assert holes and all(h.is_float for h in holes)
    assert any(plan.table.float_names.values())


def test_setup_cycle_without_unrolled_annotation_rejected():
    # A constant computed inside a non-unrolled loop cannot be set up.
    with pytest.raises(AnnotationError):
        split("""
            int f(int n, int *xs, int v) {
                int t = 0;
                dynamicRegion (n, xs) {
                    int i = 0;
                    while (i < v) {
                        int d = n * 2;
                        t += xs dynamic[ d + i ];
                        i++;
                    }
                    return t;
                }
            }
        """)


def test_region_in_dead_code_is_skipped():
    source = """
    int f(int c) {
        if (0) {
            dynamicRegion (c) { return c; }
        }
        return 1;
    }
    int main() { return f(3); }
    """
    module, plans = split(source)
    assert plans == []  # folded away before splitting


def test_multiple_regions_get_distinct_plans():
    source = """
    int f(int a, int b) {
        int r1 = 0; int r2 = 0;
        dynamicRegion (a) { r1 = a * 2; }
        dynamicRegion (b) { r2 = b * 3; }
        return r1 + r2;
    }
    """
    module, plans = split(source)
    assert len(plans) == 2
    assert plans[0].region_id != plans[1].region_id
    assert not (plans[0].template_blocks & plans[1].template_blocks)


#: An unrolled loop whose body always returns: folding the constant
#: branch removes the back edge, so the loop has no latch left.
NO_BACK_EDGE = """
int f(int n, int x) {
    dynamicRegion (n) {
        int i;
        unrolled for (i = 0; i < n; i++) {
            x = x + i;
            if (1 > 0) return x * n;
        }
        return x;
    }
}
int main() { return f(3, 4) * 10 + f(3, 5); }
"""


def test_unrolled_loop_without_a_back_edge():
    """Set-up code's cursor phi at the loop header takes only the
    predecessors set-up code has: without a latch, just the entry."""
    module, plans = split(NO_BACK_EDGE)
    (plan,) = plans
    (loop,) = plan.table.loops.values()
    assert loop.latch not in module.functions["f"].blocks
    header = module.functions["f"].blocks["su1_" + loop.header]
    (cursor,) = [phi for phi in header.phis()
                 if phi.dst.name.startswith("cur")]
    assert len(cursor.args) == 1
    assert run_all_ways(NO_BACK_EDGE) == (135, [])


@pytest.mark.parametrize("backend", ["rvm", "pycode"])
@pytest.mark.parametrize("seed", [1114, 1226])
def test_generated_loops_without_a_back_edge(seed, backend):
    """Generated programs whose unrolled loop always returns: every
    oracle leg agrees on them, on both backends."""
    program = generate_program(seed)
    for arg in program.args:
        report = run_oracle(program.source, [arg],
                            config=RunConfig(backend=backend))
        assert report.ok, report.divergences
        assert report.outcomes["dynamic"].status == "ok"
