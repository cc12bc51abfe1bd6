"""Additional dynamic-compilation end-to-end scenarios."""

import pytest

from repro import compile_program

from helpers import run_all_ways

LINKED_LIST = """
struct Node { int weight; Node *next; };

int weigh(Node *lst, int *xs) {
    dynamicRegion (lst) {
        int t = 0;
        int i = 0;
        Node *p;
        unrolled for (p = lst; p != 0; p = p->next) {
            t += p->weight * xs dynamic[ i ];
            i = i + 1;
        }
        return t;
    }
}

int main() {
    Node *head = 0;
    int w;
    for (w = 5; w > 0; w--) {
        Node *n = (Node*) alloc(sizeof(Node));
        n->weight = w * w;
        n->next = head;
        head = n;
    }
    int xs[5];
    int i;
    for (i = 0; i < 5; i++) xs[i] = i - 2;
    int total = 0;
    for (i = 0; i < 25; i++) total += weigh(head, xs);
    return total;
}
"""


def test_pointer_chasing_unrolled_while():
    # The paper's linked-list unrolling example (section 3.1 figure):
    # p walks run-time-constant next pointers; p != NULL is constant.
    run_all_ways(LINKED_LIST)


def test_linked_list_unrolls_per_node():
    program = compile_program(LINKED_LIST, mode="dynamic")
    result = program.run()
    (report,) = result.stitch_reports
    # 5 nodes + the final null check
    assert report.loop_iterations == {1: 6}


#: The same walk written as an ``unrolled while``.
LINKED_LIST_WHILE = LINKED_LIST.replace("""
        Node *p;
        unrolled for (p = lst; p != 0; p = p->next) {
            t += p->weight * xs dynamic[ i ];
            i = i + 1;
        }
""", """
        Node *p = lst;
        unrolled while (p != 0) {
            t += p->weight * xs dynamic[ i ];
            i = i + 1;
            p = p->next;
        }
""")


def test_pointer_chasing_with_unrolled_while():
    assert "unrolled while" in LINKED_LIST_WHILE
    value, _ = run_all_ways(LINKED_LIST_WHILE)
    for backend in ("rvm", "pycode"):
        result = compile_program(LINKED_LIST_WHILE, mode="dynamic",
                                 backend=backend).run()
        assert result.value == value
        (report,) = result.stitch_reports
        assert report.loop_iterations == {1: 6}


def test_region_calling_user_function():
    run_all_ways("""
        int helper(int a, int b) { return a * 2 + b; }
        int f(int c, int v) {
            dynamicRegion (c) {
                int d = c + 1;
                return helper(v, d);
            }
        }
        int main() { return f(5, 3) + f(5, 4); }
    """)


def test_region_calling_pure_builtin_with_variable():
    run_all_ways("""
        int f(int c, int v) {
            dynamicRegion (c) {
                int lo = imin(c, 10);
                return imax(v, lo);
            }
        }
        int main() { return f(25, 3) * 100 + f(25, 99); }
    """)


def test_float_unrolled_region():
    run_all_ways("""
        float poly(float *coeffs, int n, float x) {
            dynamicRegion (coeffs, n) {
                float acc = 0.0;
                int i;
                unrolled for (i = 0; i < n; i++) {
                    acc = acc * x + coeffs[i];
                }
                return acc;
            }
        }
        int main() {
            float cs[4];
            cs[0] = 2.0; cs[1] = 0.0; cs[2] = 1.5; cs[3] = 7.0;
            float t = 0.0;
            int i;
            for (i = 0; i < 8; i++) t = t + poly(cs, 4, (float) i);
            print_float(t);
            return (int) t;
        }
    """)


def test_region_with_goto_inside():
    run_all_ways("""
        int f(int c, int v) {
            dynamicRegion (c) {
                int r = 0;
                if (c > 10) goto big;
                r = v + c;
                goto done;
            big:
                r = v * c;
            done:
                return r;
            }
        }
        int main() { return f(20, 3) * 1000 + f(20, 4); }
    """)


def test_region_switch_fallthrough_on_constant():
    run_all_ways("""
        int f(int mode, int v) {
            dynamicRegion (mode) {
                int r = 0;
                switch (mode) {
                    case 1: r += 100;      // falls through
                    case 2: r += 10; break;
                    default: r += 1;
                }
                return r + v;
            }
        }
        int main() { return f(1, 5); }
    """)


def test_unsigned_arithmetic_region():
    run_all_ways("""
        int f(uint mask, uint v) {
            dynamicRegion (mask) {
                uint folded = mask | (mask >> 1);
                return (int)((v & folded) % (mask + 1));
            }
        }
        int main() { return f(7, 100) * 100 + f(7, 9); }
    """)


def test_region_writing_through_constant_pointer():
    # Stores through run-time constant pointers stay in the template
    # (stores are never "constant"), and work.
    run_all_ways("""
        int counterStore[1];
        int bump(int *slot, int v) {
            dynamicRegion (slot) {
                *slot = dynamic* slot + v;
                return dynamic* slot;
            }
        }
        int main() {
            counterStore[0] = 5;
            int a = bump(counterStore, 2);   // 7
            int b = bump(counterStore, 3);   // 10
            return a * 100 + b;
        }
    """)


def test_many_keys_cache_growth():
    source = """
    int f(int k, int v) {
        dynamicRegion key(k) (k) { return v * k + 1; }
    }
    int main() {
        int t = 0; int k; int r;
        for (r = 0; r < 3; r++)
            for (k = 0; k < 12; k++)
                t += f(k, r);
        return t;
    }
    """
    run_all_ways(source)
    result = compile_program(source, mode="dynamic").run()
    assert len(result.stitch_reports) == 12  # once per key, not per round


def test_two_functions_with_regions():
    run_all_ways("""
        int scaleA(int c, int v) {
            dynamicRegion (c) { return v * c; }
        }
        int scaleB(int c, int v) {
            dynamicRegion (c) { return v * c * 2; }
        }
        int main() {
            return scaleA(3, 5) * 1000 + scaleB(3, 5);
        }
    """)


def test_deep_expression_of_constants():
    run_all_ways("""
        int f(int a, int b, int v) {
            dynamicRegion (a, b) {
                int c1 = a * b + 7;
                int c2 = c1 * c1 - a;
                int c3 = imax(c2, b) + imin(a, b);
                int c4 = (c3 << 2) ^ (c1 & b);
                return c4 + v;
            }
        }
        int main() { return f(3, 11, 1) + f(3, 11, 2); }
    """)


def test_empty_region_body():
    run_all_ways("""
        int f(int c) {
            dynamicRegion (c) { }
            return c;
        }
        int main() { return f(9); }
    """)


def test_zero_iteration_unrolled_loop():
    source = """
    int f(int n, int *xs) {
        dynamicRegion (n) {
            int t = 100;
            int i;
            unrolled for (i = 0; i < n; i++) t += xs dynamic[ i ];
            return t;
        }
    }
    int main() { int xs[1]; xs[0] = 5; return f(0, xs); }
    """
    run_all_ways(source)
    result = compile_program(source, mode="dynamic").run()
    assert result.value == 100
    (report,) = result.stitch_reports
    assert report.loop_iterations == {1: 1}  # only the false check
