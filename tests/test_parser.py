"""Parser unit tests."""

import pytest

from repro.frontend import astnodes as ast
from repro.frontend.errors import ParseError
from repro.frontend.parser import parse
from repro.frontend.types import (
    FLOAT, INT, UINT, ArrayType, PointerType, StructType,
)


def parse_func(body: str, header: str = "int f()"):
    program = parse("%s { %s }" % (header, body))
    decl = program.decls[-1]
    assert isinstance(decl, ast.FuncDecl)
    return decl


def first_stmt(body: str):
    return parse_func(body).body.stmts[0]


def parse_expr(text: str):
    stmt = first_stmt("x = %s;" % text)
    assert isinstance(stmt, ast.ExprStmt)
    assert isinstance(stmt.expr, ast.Assign)
    return stmt.expr.value


# -- declarations -----------------------------------------------------------


def test_empty_function():
    decl = parse_func("")
    assert decl.name == "f"
    assert decl.params == []
    assert decl.body.stmts == []


def test_function_params():
    decl = parse_func("", header="int f(int a, float b, uint c)")
    assert [p.name for p in decl.params] == ["a", "b", "c"]
    assert [p.param_type for p in decl.params] == [INT, FLOAT, UINT]


def test_void_params():
    decl = parse_func("", header="int f(void)")
    assert decl.params == []


def test_pointer_types():
    decl = parse_func("", header="int f(int *p, int **pp)")
    assert decl.params[0].param_type == PointerType(INT)
    assert decl.params[1].param_type == PointerType(PointerType(INT))


def test_struct_declaration():
    program = parse("struct Pair { int a; float b; };")
    decl = program.decls[0]
    assert isinstance(decl, ast.StructDecl)
    assert decl.fields == [("a", INT), ("b", FLOAT)]


def test_struct_name_usable_as_type():
    program = parse("""
        struct Node { Node *next; };
        Node *head(Node *n) { return n; }
    """)
    func = program.decls[1]
    assert isinstance(func.ret_type, PointerType)
    assert isinstance(func.ret_type.pointee, StructType)


def test_global_variable():
    program = parse("int counter = 5;")
    decl = program.decls[0]
    assert isinstance(decl, ast.GlobalVar)
    assert decl.name == "counter"
    assert isinstance(decl.init, ast.IntLit)


def test_global_array():
    program = parse("int table[100];")
    assert program.decls[0].var_type == ArrayType(INT, 100)


def test_prototype():
    program = parse("int f(int a); int f(int a) { return a; }")
    assert program.decls[0].body is None
    assert program.decls[1].body is not None


def test_local_array_declaration():
    stmt = first_stmt("int a[10];")
    assert isinstance(stmt, ast.VarDecl)
    assert stmt.var_type == ArrayType(INT, 10)


def test_multi_declarator():
    stmt = parse_func("int a, b, c;").body.stmts[0]
    assert isinstance(stmt, ast.Block)
    assert len(stmt.stmts) == 3


# -- statements ---------------------------------------------------------------


def test_if_else():
    stmt = first_stmt("if (x) y = 1; else y = 2;")
    assert isinstance(stmt, ast.If)
    assert stmt.otherwise is not None


def test_dangling_else():
    stmt = first_stmt("if (a) if (b) x = 1; else x = 2;")
    assert isinstance(stmt, ast.If)
    assert stmt.otherwise is None  # else binds to inner if
    assert isinstance(stmt.then, ast.If)
    assert stmt.then.otherwise is not None


def test_while():
    stmt = first_stmt("while (x) x = x - 1;")
    assert isinstance(stmt, ast.While)


def test_do_while():
    stmt = first_stmt("do x = 1; while (x);")
    assert isinstance(stmt, ast.DoWhile)


def test_for_full():
    stmt = first_stmt("for (i = 0; i < 10; i++) x = i;")
    assert isinstance(stmt, ast.For)
    assert stmt.init is not None
    assert stmt.cond is not None
    assert stmt.update is not None
    assert not stmt.unrolled


def test_for_with_declaration():
    stmt = first_stmt("for (int i = 0; i < 10; i++) x = i;")
    assert isinstance(stmt.init, ast.VarDecl)


def test_for_empty_clauses():
    stmt = first_stmt("for (;;) break;")
    assert stmt.init is None and stmt.cond is None and stmt.update is None


def test_unrolled_for():
    stmt = first_stmt("unrolled for (i = 0; i < n; i++) x = i;")
    assert isinstance(stmt, ast.For)
    assert stmt.unrolled


def test_unrolled_while():
    """``unrolled while (c) s`` is the unrolled ``for (; c;) s``."""
    stmt = first_stmt("unrolled while (p) p = q;")
    assert isinstance(stmt, ast.For)
    assert stmt.unrolled
    assert stmt.init is None and stmt.update is None
    assert isinstance(stmt.cond, ast.Var) and stmt.cond.name == "p"
    assert isinstance(stmt.body, ast.ExprStmt)
    assert (stmt.line, stmt.col) == (1, 11)  # at ``unrolled``


def test_unrolled_requires_loop():
    with pytest.raises(ParseError):
        parse_func("unrolled x = 1;")


def test_switch_with_fallthrough():
    stmt = first_stmt("""
        switch (x) {
            case 1: y = 1; break;
            case 2:
            case 3: y = 2;
            default: y = 3;
        }
    """)
    assert isinstance(stmt, ast.Switch)
    assert len(stmt.cases) == 3
    assert stmt.cases[0].values == [1]
    assert stmt.cases[1].values == [2, 3]
    assert stmt.cases[2].values is None


def test_case_labels_must_be_constant():
    with pytest.raises(ParseError):
        parse_func("switch (x) { case y: break; }")


def test_negative_case_label():
    stmt = first_stmt("switch (x) { case -1: break; }")
    assert stmt.cases[0].values == [-1]


def test_goto_and_label():
    decl = parse_func("goto end; x = 1; end: return 0;")
    assert isinstance(decl.body.stmts[0], ast.Goto)
    assert isinstance(decl.body.stmts[2], ast.LabeledStmt)


def test_return_void():
    stmt = first_stmt("return;")
    assert isinstance(stmt, ast.Return)
    assert stmt.value is None


# -- dynamic-region annotations -----------------------------------------------


def test_dynamic_region():
    stmt = first_stmt("dynamicRegion (a, b) { x = a; }")
    assert isinstance(stmt, ast.DynamicRegion)
    assert stmt.const_vars == ["a", "b"]
    assert stmt.key_vars == []


def test_dynamic_region_with_key():
    stmt = first_stmt("dynamicRegion key(k) (a) { x = a; }")
    assert stmt.key_vars == ["k"]
    assert stmt.const_vars == ["a"]


def test_dynamic_region_empty_constants():
    stmt = first_stmt("dynamicRegion key(k) () { x = 1; }")
    assert stmt.const_vars == []


def test_dynamic_deref():
    expr = parse_expr("dynamic* p")
    assert isinstance(expr, ast.Deref)
    assert expr.dynamic


def test_dynamic_arrow():
    expr = parse_expr("p dynamic-> f")
    assert isinstance(expr, ast.Field)
    assert expr.dynamic and expr.arrow


def test_dynamic_index():
    expr = parse_expr("a dynamic[ i ]")
    assert isinstance(expr, ast.Index)
    assert expr.dynamic


# -- expressions ------------------------------------------------------------


def test_precedence_mul_over_add():
    expr = parse_expr("1 + 2 * 3")
    assert isinstance(expr, ast.Binary) and expr.op == "+"
    assert isinstance(expr.rhs, ast.Binary) and expr.rhs.op == "*"


def test_precedence_shift_vs_compare():
    expr = parse_expr("a << 2 < b")
    assert expr.op == "<"
    assert expr.lhs.op == "<<"


def test_left_associativity():
    expr = parse_expr("a - b - c")
    assert expr.op == "-"
    assert isinstance(expr.lhs, ast.Binary) and expr.lhs.op == "-"


def test_assignment_right_associative():
    stmt = first_stmt("a = b = 1;")
    outer = stmt.expr
    assert isinstance(outer, ast.Assign)
    assert isinstance(outer.value, ast.Assign)


def test_compound_assignment():
    stmt = first_stmt("a += 2;")
    assert stmt.expr.op == "+"


def test_ternary():
    expr = parse_expr("a ? b : c")
    assert isinstance(expr, ast.Conditional)


def test_cast():
    expr = parse_expr("(uint) x")
    assert isinstance(expr, ast.Cast)
    assert expr.target == UINT


def test_cast_pointer():
    program = parse("struct S { int x; }; int f() { y = (S*) p; return 0; }")
    assign = program.decls[1].body.stmts[0].expr
    assert isinstance(assign.value, ast.Cast)


def test_parenthesized_not_cast():
    expr = parse_expr("(x) + 1")
    assert isinstance(expr, ast.Binary)


def test_sizeof():
    expr = parse_expr("sizeof(int)")
    assert isinstance(expr, ast.SizeOf)


def test_call_with_args():
    expr = parse_expr("g(1, x, h())")
    assert isinstance(expr, ast.Call)
    assert len(expr.args) == 3


def test_chained_postfix():
    expr = parse_expr("a[1].f->g[2]")
    assert isinstance(expr, ast.Index)
    assert isinstance(expr.base, ast.Field)


def test_address_of():
    expr = parse_expr("&x")
    assert isinstance(expr, ast.AddrOf)


def test_unary_chain():
    expr = parse_expr("-~!x")
    assert expr.op == "-"
    assert expr.operand.op == "~"
    assert expr.operand.operand.op == "!"


def test_postincrement():
    expr = parse_expr("i++")
    assert isinstance(expr, ast.IncDec)
    assert expr.op == "++"


# -- errors -------------------------------------------------------------------


def test_missing_semicolon():
    with pytest.raises(ParseError):
        parse("int f() { x = 1 }")


def test_unbalanced_braces():
    with pytest.raises(ParseError):
        parse("int f() { if (x) {")


def test_bad_top_level():
    with pytest.raises(ParseError):
        parse("42;")


def test_error_reports_position():
    try:
        parse("int f() {\n  x = ;\n}")
    except ParseError as exc:
        assert exc.line == 2
    else:
        pytest.fail("expected ParseError")
