"""Type checker unit tests."""

import pytest

from repro.frontend.errors import AnnotationError, TypeError_
from repro.frontend.parser import parse
from repro.frontend.typecheck import check
from repro.frontend.types import FLOAT, INT, PointerType


def check_src(source):
    return check(parse(source))


def check_ok(body, header="int f(int x, float g, int *p)"):
    return check_src("%s { %s }" % (header, body))


def check_fails(body, header="int f(int x, float g, int *p)"):
    with pytest.raises(TypeError_):
        check_ok(body, header)


# -- basics -------------------------------------------------------------------


def test_simple_function():
    checked = check_src("int f(int a) { return a + 1; }")
    assert "f" in checked.functions
    assert checked.functions["f"].ret_type == INT


def test_undeclared_variable():
    check_fails("return y;")


def test_use_after_declaration():
    check_ok("int y = x; return y;")


def test_duplicate_local():
    check_fails("int y; int y; return 0;")


def test_shadowing_renames():
    checked = check_src("""
        int f(int x) {
            int y = x;
            { int y = 2; x = y; }
            return y;
        }
    """)
    names = set(checked.functions["f"].locals)
    assert "y" in names and "y$1" in names


def test_a_local_never_takes_a_global_name():
    checked = check_src("""
        int g;
        int f(int g) {
            { int g = 2; }
            return g;
        }
    """)
    assert set(checked.functions["f"].locals) == {"g$1", "g$2"}
    assert checked.functions["f"].params[0][0] == "g$1"


def test_duplicate_function():
    with pytest.raises(TypeError_):
        check_src("int f() { return 0; } int f() { return 1; }")


def test_cannot_redefine_builtin():
    with pytest.raises(TypeError_):
        check_src("int alloc(int n) { return n; }")


def test_unknown_function_call():
    check_fails("return nosuch(1);")


def test_wrong_arity():
    check_fails("return imax(1);")


def test_global_scope():
    check_src("int g; int f() { return g; }")


def test_duplicate_global():
    with pytest.raises(TypeError_):
        check_src("int g; float g;")


def test_global_init_must_be_literal():
    with pytest.raises(TypeError_):
        check_src("int g = 1 + 2;")


# -- expressions ---------------------------------------------------------------


def test_arithmetic_types():
    check_ok("return x + 2;")
    check_ok("float h = g * 2.0; return 0;")


def test_int_to_float_implicit():
    check_ok("float h = x; return 0;")


def test_float_to_int_requires_cast():
    check_fails("int y = g; return y;")


def test_float_to_int_cast_ok():
    check_ok("int y = (int) g; return y;")


def test_pointer_arithmetic():
    check_ok("int *q = p + 2; return *q;")


def test_pointer_minus_pointer():
    check_ok("return p - p;")


def test_pointer_plus_pointer_rejected():
    check_fails("int *q = p + p; return 0;")


def test_deref_non_pointer():
    check_fails("return *x;")


def test_deref_void_pointer():
    check_fails("return *alloc(4);")


def test_modulo_requires_ints():
    check_fails("return (int)(g % 2.0);")


def test_shift_requires_ints():
    check_fails("float h = g << 1; return 0;")


def test_address_of_rvalue():
    check_fails("int *q = &(x + 1); return 0;")


def test_address_of_marks_addr_taken():
    checked = check_src("int f(int x) { int *p = &x; return *p; }")
    assert "x" in checked.functions["f"].addr_taken


def test_struct_field_access():
    check_src("""
        struct Point { int x; int y; };
        int f(Point *p) { return p->x + p->y; }
    """)


def test_unknown_field():
    with pytest.raises(TypeError_):
        check_src("""
            struct Point { int x; };
            int f(Point *p) { return p->z; }
        """)


def test_dot_on_pointer_rejected():
    with pytest.raises(TypeError_):
        check_src("""
            struct Point { int x; };
            int f(Point *p) { return p.x; }
        """)


def test_arrow_on_struct_rejected():
    with pytest.raises(TypeError_):
        check_src("""
            struct Point { int x; };
            int f(Point p) { return p->x; }
        """)


def test_array_indexing():
    check_ok("int a[4]; a[0] = 1; return a[x];")


def test_index_by_float_rejected():
    check_fails("int a[4]; return a[g];")


def test_condition_must_be_scalar():
    with pytest.raises(TypeError_):
        check_src("""
            struct S { int x; };
            int f(S s) { if (s) return 1; return 0; }
        """)


def test_ternary_common_type():
    check_ok("float h = x ? 1.0 : 2; return 0;")


def test_assignment_to_rvalue():
    check_fails("x + 1 = 2;")


def test_return_type_mismatch():
    with pytest.raises(TypeError_):
        check_src("int *f(int x) { return 1.5; }")


def test_void_return_with_value():
    with pytest.raises(TypeError_):
        check_src("void f() { return 1; }")


def test_nonvoid_return_without_value():
    with pytest.raises(TypeError_):
        check_src("int f() { return; }")


def test_goto_undefined_label():
    with pytest.raises(TypeError_):
        check_src("int f() { goto nowhere; return 0; }")


def test_duplicate_label():
    with pytest.raises(TypeError_):
        check_src("int f() { a: ; a: ; return 0; }")


def test_break_outside_loop():
    check_fails("break;")


def test_continue_outside_loop():
    check_fails("continue;")


# -- annotations -----------------------------------------------------------------


def test_region_constants_resolved():
    checked = check_src("""
        int f(int c) {
            dynamicRegion (c) { return c; }
        }
    """)
    assert checked.functions["f"].has_region


def test_region_unknown_constant():
    with pytest.raises(TypeError_):
        check_src("int f() { dynamicRegion (zzz) { } return 0; }")


def test_region_constant_must_be_local():
    with pytest.raises(AnnotationError):
        check_src("int g; int f() { dynamicRegion (g) { } return 0; }")


def test_unrolled_outside_region():
    with pytest.raises(AnnotationError):
        check_src("""
            int f(int n) {
                int i; int t = 0;
                unrolled for (i = 0; i < n; i++) t += i;
                return t;
            }
        """)


def test_nested_region_rejected():
    with pytest.raises(AnnotationError):
        check_src("""
            int f(int c) {
                dynamicRegion (c) {
                    dynamicRegion (c) { }
                }
                return 0;
            }
        """)


def test_region_inside_loop_rejected():
    with pytest.raises(AnnotationError):
        check_src("""
            int f(int c) {
                while (c) {
                    dynamicRegion (c) { }
                }
                return 0;
            }
        """)
