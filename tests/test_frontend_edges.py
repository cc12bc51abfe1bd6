"""Frontend edge cases: tricky syntax, diagnostics, odd-but-legal C."""

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro import compile_program
from repro.frontend.errors import CompileError, ParseError, TypeError_
from repro.frontend.lexer import KEYWORDS
from repro.frontend.parser import parse
from repro.frontend.typecheck import check
from repro.ir.builder import build_module

from helpers import interp_run


def run(source, func="main", args=None):
    return interp_run(source, func, args)[0]


# -- syntax corners -------------------------------------------------------


def test_deeply_nested_expressions():
    expr = "1"
    for _ in range(60):
        expr = "(%s + 1)" % expr
    assert run("int main() { return %s; }" % expr) == 61


def test_deeply_nested_blocks():
    body = "x = x + 1;"
    for _ in range(40):
        body = "{ %s }" % body
    assert run("int main() { int x = 0; %s return x; }" % body) == 1


#: a global read after a block that declared a local of its name, and
#: a local of that name still in scope, which wins over the global.
SHADOWING = {
    "int g = 5; int main() { { int g = 1; } return g; }": 5,
    "int g = 5; int main() { int g = 1; { int h = g; } return g; }": 1,
    "int g = 5; int main() { { int g = 1; g = 7; } g = g + 1; return g; }":
        6,
    "int g = 5; int f(int g) { return g + 1; }"
    " int main() { return f(10) + g; }": 16,
}


@pytest.mark.parametrize("backend", ("rvm", "pycode"))
@pytest.mark.parametrize("mode", ("static", "dynamic"))
@pytest.mark.parametrize("source", sorted(SHADOWING))
def test_a_closed_local_does_not_shadow_a_global(source, mode, backend):
    assert run(source) == SHADOWING[source]
    program = compile_program(source, mode=mode, backend=backend)
    assert program.run().value == SHADOWING[source]


def test_comment_between_tokens():
    assert run("int main() { return 1 /*x*/ + /*y*/ 2; }") == 3


def test_empty_statements():
    assert run("int main() { ;;; return 5;; }") == 5


def test_for_with_comma_free_update():
    assert run("""
        int main() {
            int t = 0; int i;
            for (i = 10; i > 0; i--) t++;
            return t;
        }
    """) == 10


def test_chained_comparisons_parse_left_assoc():
    # (1 < 2) < 3  ->  1 < 3  -> 1
    assert run("int main() { return 1 < 2 < 3; }") == 1


def test_assignment_in_condition():
    assert run("""
        int main() {
            int x = 0; int n = 0;
            while ((x = x + 1) < 5) n++;
            return n * 10 + x;
        }
    """) == 45


def test_ternary_nests_right():
    assert run("int main() { int a = 0; return a ? 1 : a + 1 ? 2 : 3; }") == 2


def test_bitwise_precedence_like_c():
    # & binds tighter than ^ binds tighter than |
    assert run("int main() { return 1 | 2 ^ 3 & 2; }") == 1 | 2 ^ 3 & 2


def test_shift_then_add():
    assert run("int main() { return 1 << 2 + 1; }") == 8  # + binds tighter


def test_unary_minus_on_literal_expression():
    assert run("int main() { return -3 * -4; }") == 12


def test_struct_with_array_field():
    assert run("""
        struct Row { int cells[4]; int tag; };
        int main() {
            Row r;
            int i;
            for (i = 0; i < 4; i++) r.cells[i] = i * 2;
            r.tag = 9;
            return r.cells[3] + r.tag;
        }
    """) == 15


def test_pointer_to_struct_array_walk():
    assert run("""
        struct P { int x; int y; };
        int main() {
            P pts[3];
            int i;
            for (i = 0; i < 3; i++) { pts[i].x = i; pts[i].y = i * i; }
            P *p = &pts[1];
            return p->x * 10 + (p + 1)->y;
        }
    """) == 14


def test_sizeof_in_expression():
    assert run("""
        struct Wide { int a; int b; int c; };
        int main() { return sizeof(Wide) * 10 + sizeof(int*); }
    """) == 31


def test_switch_on_expression():
    assert run("""
        int main() {
            int t = 0; int i;
            for (i = 0; i < 9; i++)
                switch ((i * i) % 4) {
                    case 0: t += 1; break;
                    case 1: t += 10; break;
                    default: t += 0;
                }
            return t;
        }
    """) == 5 + 40


def test_do_while_with_break():
    assert run("""
        int main() {
            int i = 0;
            do { i++; if (i == 3) break; } while (i < 10);
            return i;
        }
    """) == 3


def test_goto_into_loop_body_is_parseable():
    # Unusual but legal C shape: jump to a label inside a loop.
    value = run("""
        int main() {
            int i = 0; int t = 0;
            goto inside;
            while (i < 4) {
        inside:
                t += 10;
                i++;
            }
            return t + i;
        }
    """)
    assert value == 44


# -- diagnostics ----------------------------------------------------------------


def test_parse_error_mentions_token():
    with pytest.raises(ParseError) as excinfo:
        parse("int main() { return }; }")
    assert "}" in str(excinfo.value) or "unexpected" in str(excinfo.value)


def test_type_error_mentions_identifier():
    with pytest.raises(TypeError_) as excinfo:
        check(parse("int main() { return missing_thing; }"))
    assert "missing_thing" in str(excinfo.value)


def test_error_line_numbers_accurate():
    source = "int main() {\n  int x = 1;\n  return y;\n}"
    with pytest.raises(TypeError_) as excinfo:
        check(parse(source))
    assert excinfo.value.line == 3


def test_arity_error_names_function():
    with pytest.raises(TypeError_) as excinfo:
        check(parse("""
            int two(int a, int b) { return a + b; }
            int main() { return two(1); }
        """))
    assert "two" in str(excinfo.value)


def test_field_error_names_struct_and_field():
    with pytest.raises(TypeError_) as excinfo:
        check(parse("""
            struct S { int a; };
            int main() { S s; return s.b; }
        """))
    message = str(excinfo.value)
    assert "S" in message and "b" in message


# -- numeric corners ----------------------------------------------------------------


def test_int64_wraparound_literals():
    assert run("""
        int main() {
            int big = 4611686018427387904;    // 2^62
            return (big * 4 == 0) + (big + big < 0);
        }
    """) == 2


def test_unsigned_wraparound():
    assert run("""
        int main() {
            uint x = 0;
            x = x - 1;
            return (x > 1000000) + (int)(x & 255);
        }
    """) == 1 + 255


def test_float_precision_survives_pipeline():
    value, output = interp_run("""
        int main() {
            float tiny = 0.0078125;     // 2^-7, exact in binary
            float acc = 0.0;
            int i;
            for (i = 0; i < 128; i++) acc = acc + tiny;
            print_float(acc);
            return (int) acc;
        }
    """)
    assert output == [1.0]
    assert value == 1


# -- nesting depth ------------------------------------------------------------


def nested(kind, n):
    """A program nesting construct ``kind`` ``n`` levels deep."""
    if kind == "parens":
        expr = "1"
        for _ in range(n):
            expr = "(%s + 1)" % expr
        return "int main() { return %s; }" % expr
    if kind == "bare_parens":
        return "int main() { return %s1%s; }" % ("(" * n, ")" * n)
    if kind == "blocks":
        return "int main() { int x = 0; %sx = x + 1;%s return x; }" % (
            "{\n" * n, "}" * n)
    if kind == "ifs":
        return "int main() { int x = 1; int y = 0; %s y = 7; return y; }" \
            % ("if (x)\n" * n)
    if kind == "if_blocks":
        return "int main() { int x = 1; %s x = 2; %s return x; }" % (
            "if (x) {" * n, "}" * n)
    if kind == "else_ifs":
        return "int main() { int x = 3; int y = 0; %s y = 9; return y; }" \
            % "".join("if (x == %d) y = %d; else " % (i, i) for i in range(n))
    if kind == "loops":
        loops = ["while (x < 1)", "for (; x < 1;)", "do"]
        head = "".join(loops[i % 3] + " " for i in range(n))
        tail = "".join(" while (x < 1);" for i in reversed(range(n))
                       if i % 3 == 2)
        return "int main() { int x = 0; %s x = x + 1;%s return x; }" % (
            head, tail)
    if kind == "labels":
        return "int main() { int x = 0; %s x = 5; return x; }" % "".join(
            "l%d: " % i for i in range(n))
    if kind == "switches":
        return "int main() { int x = 1; %s x = 4; %s return x; }" % (
            "switch (x) { case 1:\n" * n, "}" * n)
    if kind == "sum":
        return "int main() { return %s; }" % "+".join(["1"] * (n + 1))
    if kind == "sum_of_products":
        return "int main() { int x = 2; return %s; }" % " + ".join(
            ["x*x"] * (n + 1))
    if kind == "sum_of_indexes":
        return ("int g[%d]; int main() { int i; for (i = 0; i < %d; i++)"
                " g[i] = i; return %s; }" % (n + 1, n + 1, " + ".join(
                    "g[%d]" % i for i in range(n + 1))))
    if kind == "and_chain":
        return "int main() { int x = 1; return %s; }" % " && ".join(
            ["x"] * (n + 1))
    if kind == "negations":
        return "int main() { return %s1; }" % ("- " * n)
    if kind == "casts":
        return "int main() { return %s1; }" % ("(int)" * n)
    if kind == "deref_addr":
        return "int main() { int x = 3; return %sx; }" % ("*&" * n)
    if kind == "assignments":
        return "int main() { int a; return %s1; }" % ("a = " * n)
    if kind == "ternaries":
        return "int main() { int a = 0; return %s1; }" % ("a ? 2 : " * n)
    if kind == "indexes":
        return "int g[4]; int main() { return %s0%s; }" % ("g[" * n, "]" * n)
    if kind == "precedence_ladder":
        return "int main() { int x = 1; return %s1%s; }" % (
            "x || x && x | x ^ x & x == x < x << x + x * (" * n, ")" * n)
    if kind == "arrow_chain":
        return ("struct N { struct N *next; int v; }; int main() { struct N n;"
                " n.next = &n; n.v = 3; struct N *p = &n; return p%s->v; }"
                % ("->next" * n))
    if kind == "unrolled_loops":
        return ("int f(int n) { int i = 0; int t = 0; dynamicRegion (n) { %s"
                " t = t + 1; } return t; } int main() { return f(1); }"
                % ("unrolled for (i = 0; i < n; i++) " * n))
    if kind == "calls":
        return "int f(int x) { return x; } int main() { return %s1%s; }" % (
            "f(" * n, ")" * n)
    raise KeyError(kind)


@pytest.mark.parametrize("kind, n, value", [
    ("parens", 140, 141), ("blocks", 494, 1), ("ifs", 400, 7),
    ("sum", 329, 330), ("sum_of_products", 327, 1312),
    ("sum_of_indexes", 328, 53956), ("and_chain", 328, 1)])
def test_nesting_that_compiled_before_still_compiles(kind, n, value):
    assert compile_program(nested(kind, n)).run().value == value



def test_too_deep_nesting_is_a_parse_error_at_the_innermost_token():
    with pytest.raises(ParseError, match="nesting too deep") as info:
        parse(nested("blocks", 2000))
    # One ``{`` a line: the block that went past the limit.
    assert 400 < info.value.line < 2000 and info.value.col == 1
    with pytest.raises(ParseError, match="nesting too deep") as info:
        parse(nested("bare_parens", 2000))
    assert info.value.line == 1
    assert 20 < info.value.col < 2020  # on a "("


@pytest.mark.parametrize("kind", [
    "parens", "bare_parens", "blocks", "ifs", "if_blocks", "else_ifs",
    "loops", "labels", "switches", "sum", "sum_of_products",
    "sum_of_indexes", "and_chain", "negations", "casts", "deref_addr",
    "assignments", "ternaries", "indexes", "arrow_chain",
    "precedence_ladder", "unrolled_loops", "calls"])
def test_the_deepest_accepted_program_compiles(kind):
    """The parser, not a later pass, draws the line: at 3,000 levels it
    raises ``ParseError``, and the deepest program it accepts compiles
    and runs without overflowing the stack."""
    def accepted(n):
        try:
            parse(nested(kind, n))
        except ParseError:
            return False
        return True

    low, high = 1, 3000
    assert accepted(low) and not accepted(high)
    while high - low > 1:
        mid = (low + high) // 2
        if accepted(mid):
            low = mid
        else:
            high = mid
    compile_program(nested(kind, low)).run()


#: Constructs that nest an expression ``{}`` one level deeper.
NEST_EXPRS = [
    "({} + 1)", "(1 + {})", "({} * 2 + 1)", "(a[0] + {})", "({} && 1)",
    "(1 && {})", "({} || 0)", "(0 || {})", "-{}", "!{}", "~{}", "(int){}",
    "f({})", "g(1, {})", "({} ? 1 : 2)", "(1 ? {} : 2)", "(0 ? 1 : {})",
    "(b = {})", "(b += {})", "(b = b = {})", "a[{}]", "a[({}) & 1]",
    "*&a[{} & 1]", "(p->v + {})", "(x + {} * x)", "{} + x", "x + {}",
    "x * {}", "({} < 3 ? x : b)", "(x && {} || b)", "(x || {} && b)",
    "q[0]->n->v + {}", "(uint){} >> 1", "{} == 1 != 0",
]

#: Constructs that nest a statement ``{0}`` one level deeper.
NEST_STMTS = [
    "if (x) {0}", "if (x) {{ {0} }}", "if (x) ; else {0}", "while (x < 1) {0}",
    "for (; x < 1;) {0}", "do {0} while (x < 1);", "{{ {0} }}", "l{n}: {0}",
    "switch (x) {{ case 1: {0} }}", "if (x > 0) {0}",
]


def mixed(stmt_cycle, n_stmts, expr_cycle, n_exprs):
    """``r = E;`` with ``E`` nested ``n_exprs`` levels by the constructs
    of ``expr_cycle`` in turn, inside ``n_stmts`` statements nested by
    ``stmt_cycle`` in turn."""
    expr = "x"
    for i in range(n_exprs):
        expr = expr_cycle[i % len(expr_cycle)].format(expr)
    stmt = "r = %s;" % expr
    for i in range(n_stmts if stmt_cycle else 0):
        stmt = stmt_cycle[i % len(stmt_cycle)].format(stmt, n=i)
    return ("struct N { struct N *n; int v; }; int a[4];"
            " int f(int v) { return v; } int g(int u, int v) { return v; }"
            " int main() { struct N m; struct N *p = &m; struct N *q[1];"
            " m.n = &m; m.v = 1; q[0] = p; int x = 1; int b = 0; int r = 0;"
            " %s return r; }" % stmt)


@given(st.lists(st.sampled_from(NEST_STMTS), max_size=4), st.integers(0, 450),
       st.lists(st.sampled_from(NEST_EXPRS), min_size=1, max_size=6))
def test_the_deepest_accepted_mix_compiles(stmt_cycle, n_stmts, expr_cycle):
    """However constructs mix, neither the checker nor the IR builder
    overflows the stack on the deepest program the parser accepts (the
    passes after them walk flat IR)."""
    def accepted(n_exprs):
        try:
            parse(mixed(stmt_cycle, n_stmts, expr_cycle, n_exprs))
        except ParseError:
            return False
        return True

    # A construct without parentheses may not nest what it wraps
    # (``-{}`` around ``x + y``), so 600 levels need not pass the limit.
    low, high = 0, 600
    if not accepted(low):
        return
    if accepted(high):
        low = high
    while high - low > 1:
        mid = (low + high) // 2
        if accepted(mid):
            low = mid
        else:
            high = mid
    build_module(check(parse(mixed(stmt_cycle, n_stmts, expr_cycle, low))))


# -- robustness -----------------------------------------------------------------

#: keywords, operators, names and literals, a malformed hex literal and
#: runs of brackets deep enough to pass the nesting limit.
SOUP = sorted(KEYWORDS) + [
    "x", "y", "p", "main", "f", "print_int", "S", "0", "1", "7", "0x",
    "0x1F", "2.5", ".5", "1e3", "+", "-", "*", "/", "%", "<", ">", "=", "!",
    "&", "|", "^", "~", "?", ":", ";", ",", ".", "(", ")", "{", "}", "[",
    "]", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "<<=", "(" * 400, ")" * 400, "{" * 600, "}" * 600, "-" * 400,
]


@given(st.lists(st.sampled_from(SOUP), max_size=60), st.booleans())
def test_front_end_raises_only_compile_errors(words, wrapped):
    source = " ".join(words)
    if wrapped:
        source = "int main() { %s }" % source
    try:
        compile_program(source)
    except CompileError:
        pass


def test_address_of_a_global_in_a_global_initializer():
    with pytest.raises(TypeError_, match="must be a literal constant"):
        check(parse("int g; int *p = &g; int main() { return 0; }"))
