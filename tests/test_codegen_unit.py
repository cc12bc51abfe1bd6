"""Code-generator unit tests: constant materialization, switch
lowering, prologue/epilogue shape, float pools, the asm printer."""

from repro import compile_program
from repro.codegen.asmprinter import (
    format_function, format_instr, format_region,
)
from repro.codegen.lower import DataLayout, FunctionLowerer, _Emitter
from repro.ir.ssa import from_ssa, to_ssa
from repro.machine.isa import MInstr, RA, SP, materialize_int
from repro.machine.vm import VM

from helpers import build, interp_run


def lower_main(source):
    module = build(source)
    func = module.functions["main"]
    to_ssa(func)
    from_ssa(func)
    layout = DataLayout()
    layout.add_module_globals(module)
    return FunctionLowerer(func, layout).lower()


# -- constant materialization -----------------------------------------------


def materialize(value):
    emitter = _Emitter("test")
    materialize_int(emitter.emit, 1, value)
    emitter.emit(MInstr("mov", rd=0, ra=1))
    emitter.emit(MInstr("ret"))
    vm = VM(memory_words=1 << 16)
    entry = vm.install_code(emitter.instrs)
    result, _ = vm.run(entry)
    return result, len(emitter.instrs) - 2


def test_materialize_small_constants_single_instr():
    for value in (0, 1, -1, 32767, -32768):
        result, count = materialize(value)
        assert result == value
        assert count == 1


def test_materialize_large_constants():
    for value in (32768, 65536, 123456789, -123456789,
                  (1 << 62) + 12345, -(1 << 62) - 9):
        result, count = materialize(value)
        assert result == value, value
        assert count <= 5


def test_materialize_boundary_values():
    for value in ((1 << 63) - 1, -(1 << 63)):
        result, _ = materialize(value)
        assert result == value


# -- switch lowering ------------------------------------------------------------


def count_ops(compiled, op):
    return sum(1 for i in compiled.code if i.op == op)


def test_dense_switch_uses_jump_table():
    compiled = lower_main("""
        int main(int x) {
            switch (x) {
                case 0: return 10;
                case 1: return 11;
                case 2: return 12;
                case 3: return 13;
                default: return 99;
            }
        }
    """)
    assert count_ops(compiled, "jtab") == 1


def test_sparse_switch_uses_compare_chain():
    compiled = lower_main("""
        int main(int x) {
            switch (x) {
                case 0: return 10;
                case 1000: return 11;
                case 70000: return 12;
                default: return 99;
            }
        }
    """)
    assert count_ops(compiled, "jtab") == 0
    assert count_ops(compiled, "cmpeq") >= 3


def test_tiny_switch_uses_compare_chain():
    compiled = lower_main("""
        int main(int x) {
            switch (x) { case 5: return 1; default: return 0; }
        }
    """)
    assert count_ops(compiled, "jtab") == 0


def test_jump_table_switch_correct():
    source = """
    int classify(int x) {
        switch (x) {
            case 0: return 100;
            case 1: return 101;
            case 2: return 102;
            case 4: return 104;    // gap: 3 falls to default
            default: return 999;
        }
    }
    int main(int x) { return classify(x); }
    """
    program = compile_program(source, mode="static")
    for x, want in [(0, 100), (1, 101), (2, 102), (3, 999), (4, 104),
                    (-1, 999), (50, 999)]:
        assert program.run(args=[x]).value == want


# -- prologue / epilogue ------------------------------------------------------------


def test_prologue_allocates_and_saves():
    compiled = lower_main("""
        int helper(int x) { return x; }
        int main(int a) {
            int b = helper(a) + a;
            return b * 2;
        }
    """)
    first = compiled.code[0]
    assert first.op == "lda" and first.rd == SP and first.imm < 0
    # RA saved somewhere in the prologue
    assert any(i.op == "stq" and i.rb == RA for i in compiled.code[:6])
    # epilogue restores SP symmetrically
    epilogue = compiled.labels["$epilogue"]
    tail = compiled.code[epilogue:]
    assert any(i.op == "lda" and i.rd == SP and i.imm == -first.imm
               for i in tail)
    assert tail[-1].op == "ret"


def test_saved_registers_restored():
    compiled = lower_main("int main(int a) { return a + 1; }")
    saves = [(i.op, i.rb, i.imm) for i in compiled.code
             if i.op in ("stq", "stt") and i.ra == SP]
    epilogue = compiled.labels["$epilogue"]
    restores = [(i.op.replace("ld", "st"), i.rd, i.imm)
                for i in compiled.code[epilogue:]
                if i.op in ("ldq", "ldt") and i.ra == SP]
    assert sorted(saves) == sorted(restores)


# -- data layout -----------------------------------------------------------------------


def test_layout_assigns_disjoint_addresses():
    module = build("""
        int a; int b[10]; float c;
        int main() { return 0; }
    """)
    layout = DataLayout()
    layout.add_module_globals(module)
    a = layout.addr_of("a")
    b = layout.addr_of("b")
    c = layout.addr_of("c")
    assert len({a, b, c}) == 3
    assert b + 10 <= max(a, c) + 1 or b > max(a, c) - 10  # no overlap
    spans = sorted([(a, 1), (b, 10), (c, 1)])
    for (start1, size1), (start2, _) in zip(spans, spans[1:]):
        assert start1 + size1 <= start2


def test_float_pool_deduplicates():
    layout = DataLayout()
    first = layout.float_const_addr(3.25)
    second = layout.float_const_addr(3.25)
    third = layout.float_const_addr(1.5)
    assert first == second != third


def test_float_literals_work_end_to_end():
    source = """
    int main() {
        float a = 0.125;
        float b = 1048576.5;
        print_float(a + b);
        return 0;
    }
    """
    expected, expected_out = interp_run(source)
    program = compile_program(source, mode="static")
    result = program.run()
    assert result.output == expected_out


# -- asm printer -------------------------------------------------------------------------


def test_format_instr_styles():
    assert format_instr(MInstr("ldq", rd=3, ra=SP, imm=8)) == \
        "ldq    r3, 8(sp)"
    assert format_instr(MInstr("addq", rd=1, ra=2, rb=3)) == \
        "addq   r1, r2, r3"
    assert format_instr(MInstr("addq", rd=1, ra=2, imm=7)) == \
        "addq   r1, r2, #7"
    assert format_instr(MInstr("br", label="exit")) == "br     exit"
    assert "call_rt" in format_instr(MInstr("call_rt", name="alloc"))


def test_format_function_has_labels_and_offsets():
    compiled = lower_main("int main() { return 7; }")
    text = format_function(compiled)
    assert "main:" in text
    assert "$epilogue:" in text
    assert "ret" in text


def test_format_region_shows_directives():
    source = """
    int f(int c, int v) {
        dynamicRegion (c) {
            int d = c * 3;
            if (d > 10) return v;
            return v * 2;
        }
    }
    int main() { return f(5, 2); }
    """
    program = compile_program(source, mode="dynamic")
    text = format_region(program.region_codes()[0])
    assert "CONST_BRANCH" in text
    assert "region 1 of f" in text
    assert "top-level table" in text


def test_more_than_six_parameters_rejected():
    import pytest
    from repro import CompileError, compile_program

    source = """
    int many(int a, int b, int c, int d, int e, int f, int g) {
        return a + g;
    }
    int main() { return many(1, 2, 3, 4, 5, 6, 7); }
    """
    with pytest.raises(CompileError):
        compile_program(source, mode="static")


def test_six_parameters_ok():
    from repro import compile_program

    source = """
    int six(int a, int b, int c, int d, int e, int f) {
        return a + b + c + d + e + f;
    }
    int main() { return six(1, 2, 3, 4, 5, 6); }
    """
    assert compile_program(source, mode="static").run().value == 21
