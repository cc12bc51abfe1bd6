"""Optimization pass tests: each pass does its job and preserves
semantics (checked through the reference interpreter)."""

import copy

import pytest

from repro.ir.instructions import Assign, BinOp, CondBr, Load, Phi, Switch
from repro.ir.ssa import to_ssa
from repro.opt.copyprop import copy_propagation
from repro.opt.cse import common_subexpression_elimination
from repro.opt.dce import dead_code_elimination
from repro.opt.fold import fold_constants
from repro.opt.pipeline import OptOptions, optimize
from repro.opt.simplify import merge_blocks, simplify_algebraic
from repro.ir.values import IntConst
from repro.runtime.engine import compile_program
from repro.runtime.interp import Interpreter

from helpers import build, interp_run


def prepare(source, func="main"):
    module = build(source)
    f = module.functions[func]
    to_ssa(f)
    return module, f


def instr_count(func):
    return sum(len(b.all_instrs()) for b in func.blocks.values())


def has_op(func, op):
    return any(isinstance(i, BinOp) and i.op == op
               for i in func.iter_instrs())


# -- constant folding ------------------------------------------------------


def test_fold_arithmetic():
    module, f = prepare("int main() { return 2 * 3 + 4; }")
    fold_constants(f)
    assert not has_op(f, "mul") and not has_op(f, "add")
    assert Interpreter(module).run() == 10


def test_fold_preserves_trap():
    module, f = prepare("int main() { return 5 / 0; }")
    fold_constants(f)
    assert has_op(f, "div")  # cannot fold a trapping division


def test_fold_branch_removes_dead_side():
    module, f = prepare("""
        int main() {
            int x;
            if (1 < 2) x = 10; else x = 20;
            return x;
        }
    """)
    blocks_before = len(f.blocks)
    fold_constants(f)
    assert len(f.blocks) < blocks_before
    assert not any(isinstance(b.terminator, CondBr)
                   for b in f.blocks.values())
    assert Interpreter(module).run() == 10


def test_fold_switch():
    module, f = prepare("""
        int main() {
            int x = 0;
            switch (2) { case 1: x = 1; break; case 2: x = 2; break;
                         default: x = 9; }
            return x;
        }
    """)
    fold_constants(f)
    assert not any(isinstance(b.terminator, Switch)
                   for b in f.blocks.values())
    assert Interpreter(module).run() == 2


def test_fold_through_phi_of_identical():
    module, f = prepare("""
        int main(int v) {
            int x;
            if (v) x = 7; else x = 7;
            return x;
        }
    """, func="main")
    fold_constants(f)
    assert Interpreter(module).run("main", [1]) == 7
    assert Interpreter(module).run("main", [0]) == 7


#: a constant-folded ``&&`` over nested conditionals: folding a phi of
#: identical arguments in ``ljoin4`` used to leave its Assign ahead of
#: the next phi, whose argument from a later-removed predecessor then
#: survived until ``simplify_phis`` crashed on it.
FOLDED_AND_OVER_CONDITIONALS = (
    "int main() { int x = 1; int b = 0; "
    "b += (1 && !x * (b += ((b < 3 ? x : b) < 3 ? x : b))); return b; }")


def test_fold_keeps_phis_at_the_head_of_their_block():
    module, f = prepare(FOLDED_AND_OVER_CONDITIONALS)
    optimize(f, OptOptions(max_rounds=1))
    assert fold_constants(f)  # the second round's fold
    for block in f.blocks.values():
        heads = [isinstance(instr, Phi) for instr in block.instrs]
        assert heads == sorted(heads, reverse=True), block.name
    f.verify()
    optimize(f)
    assert Interpreter(module).run("main") == 1


@pytest.mark.parametrize("backend", ("rvm", "pycode"))
@pytest.mark.parametrize("mode", ("static", "dynamic"))
def test_folded_and_over_conditionals_compiles(mode, backend):
    assert interp_run(FOLDED_AND_OVER_CONDITIONALS) == (1, [])
    program = compile_program(FOLDED_AND_OVER_CONDITIONALS, mode=mode,
                              backend=backend)
    assert program.run().value == 1


# -- copy propagation ---------------------------------------------------------


def test_copyprop_removes_copies():
    module, f = prepare("""
        int main(int a) {
            int b = a;
            int c = b;
            return c + c;
        }
    """)
    removed = copy_propagation(f)
    assert removed >= 2
    assert Interpreter(module).run("main", [3]) == 6


def test_copyprop_updates_region_metadata():
    module, f = prepare("""
        int f(int c) {
            dynamicRegion (c) { return c * 2; }
        }
    """, func="f")
    copy_propagation(f)
    region = f.regions[0]
    (const_temp,) = region.const_temps
    # the copy c := arg_c is gone; the metadata must follow to arg_c
    assert const_temp.name == "arg_c"


# -- dead code elimination -------------------------------------------------------


def test_dce_removes_unused_chain():
    module, f = prepare("""
        int main() {
            int a = 3;
            int b = a * 10;
            int c = b + 1;
            return 5;
        }
    """)
    before = instr_count(f)
    removed = dead_code_elimination(f)
    assert removed >= 3
    assert instr_count(f) < before
    assert Interpreter(module).run() == 5


def test_dce_keeps_stores_and_calls():
    module, f = prepare("""
        int g;
        int main() {
            g = 42;
            print_int(7);
            return 0;
        }
    """)
    dead_code_elimination(f)
    interp = Interpreter(module)
    interp.run()
    assert interp.output == [7]
    assert interp.memory[interp.global_addrs["g"]] == 42


def test_dce_removes_unused_load():
    module, f = prepare("""
        int g;
        int main() { int x = g; return 1; }
    """)
    dead_code_elimination(f)
    assert not any(isinstance(i, Load) for i in f.iter_instrs())


# -- CSE --------------------------------------------------------------------------


def test_cse_removes_redundant_expression():
    module, f = prepare("""
        int main(int a, int b) {
            int x = a * b + 1;
            int y = a * b + 2;
            return x + y;
        }
    """)
    muls_before = sum(1 for i in f.iter_instrs()
                      if isinstance(i, BinOp) and i.op == "mul")
    replaced = common_subexpression_elimination(f)
    muls_after = sum(1 for i in f.iter_instrs()
                     if isinstance(i, BinOp) and i.op == "mul")
    assert replaced >= 1
    assert muls_after < muls_before
    assert Interpreter(module).run("main", [3, 4]) == 27


def test_cse_respects_commutativity():
    module, f = prepare("""
        int main(int a, int b) {
            return a * b + b * a;
        }
    """)
    replaced = common_subexpression_elimination(f)
    assert replaced >= 1
    assert Interpreter(module).run("main", [3, 4]) == 24


def test_cse_only_on_dominating_defs():
    module, f = prepare("""
        int main(int a, int b) {
            int x;
            if (a) x = a * b; else x = a * b;
            int y = a * b;
            return x + y;
        }
    """)
    common_subexpression_elimination(f)
    # y's computation is in the join which is not dominated by either
    # branch arm, so it must NOT reuse the arm values.
    assert Interpreter(module).run("main", [3, 4]) == 24


def test_cse_does_not_cross_region_entry():
    module, f = prepare("""
        int f(int c, int v) {
            int pre = c * 8;
            int r = 0;
            dynamicRegion (c) {
                r = c * 8 + v;
            }
            return r + pre;
        }
    """, func="f")
    common_subexpression_elimination(f)
    region = f.regions[0]
    muls_in_region = sum(
        1 for name in region.blocks if name in f.blocks
        for i in f.blocks[name].all_instrs()
        if isinstance(i, BinOp) and i.op == "mul")
    assert muls_in_region == 1  # still computed inside, stays constant


# -- algebraic simplification ---------------------------------------------------------


def test_algebraic_identities():
    module, f = prepare("""
        int main(int a) {
            int t = a + 0;
            t = t * 1;
            t = t - 0;
            t = t | 0;
            t = t ^ 0;
            t = t << 0;
            return t;
        }
    """)
    n = simplify_algebraic(f)
    assert n >= 6
    assert Interpreter(module).run("main", [9]) == 9


def test_mul_by_zero():
    module, f = prepare("int main(int a) { return a * 0; }")
    simplify_algebraic(f)
    assert not has_op(f, "mul")
    assert Interpreter(module).run("main", [9]) == 0


def test_sub_self():
    module, f = prepare("int main(int a) { return a - a; }")
    simplify_algebraic(f)
    assert not has_op(f, "sub")
    assert Interpreter(module).run("main", [9]) == 0


# -- CFG cleanup -------------------------------------------------------------------------


def test_merge_blocks_collapses_chain():
    module, f = prepare("""
        int main() {
            int t = 1;
            { t = t + 1; }
            { t = t + 2; }
            return t;
        }
    """)
    fold_constants(f)
    merge_blocks(f)
    assert Interpreter(module).run() == 4


def test_merge_preserves_region_boundaries():
    module, f = prepare("""
        int f(int c) {
            dynamicRegion (c) {
                int i; int t = 0;
                unrolled for (i = 0; i < c; i++) t += i;
                return t;
            }
        }
    """, func="f")
    region = f.regions[0]
    merge_blocks(f)
    assert region.entry in f.blocks
    for loop in region.unrolled_loops:
        assert loop.header in f.blocks
        assert loop.latch in f.blocks


# -- full pipeline --------------------------------------------------------------------------


def test_pipeline_converges_and_reports():
    module, f = prepare("""
        int main() {
            int a = 2 + 3;
            int b = a * 4;
            int c = b - b;
            int t = 0; int i;
            for (i = 0; i < b; i++) t += a + c;
            return t;
        }
    """)
    stats = optimize(f)
    assert stats.total() > 0
    assert stats.rounds < OptOptions().max_rounds
    assert Interpreter(module).run() == 100


def test_pipeline_respects_toggles():
    module, f = prepare("int main() { return 2 * 3; }")
    stats = optimize(f, OptOptions(fold=False, cse=False))
    assert stats.folds == 0
    assert Interpreter(module).run() == 6
