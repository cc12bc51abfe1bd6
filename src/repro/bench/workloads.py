"""The paper's five benchmarks (Table 2), as MiniC workload builders.

Each builder returns a :class:`Workload`: MiniC source whose ``main``
executes one benchmark configuration, plus the metadata the measurement
harness needs (which function/region to attribute, how many region
executions ``main`` performs, and how our execution unit maps to the
paper's breakeven unit).

Scaling: the paper ran on a DEC Alpha 21064; our substrate is a Python
VM executing ~1M instructions/second, so default problem sizes are
scaled down from the paper's (the builders take the paper's sizes as
parameters -- pass ``paper_scale=True`` for the original sizes if you
can wait).  Scaling changes absolute cycle counts, not the comparisons:
speedups are per-region-execution ratios.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class Workload:
    """One benchmark configuration, ready to compile and measure."""

    name: str
    config: str
    source: str
    #: (function, region id) whose cycles reproduce the Table 2 row.
    region_func: str
    region_id: int = 1
    #: Region executions performed by one run of main().
    executions: int = 1
    #: Paper's breakeven unit ("interpretations", "records"...) and how
    #: many of those units one region execution corresponds to.
    unit: str = "executions"
    units_per_execution: float = 1.0
    #: Expected result of main() (sanity check), if known.
    expected: Optional[int] = None
    notes: str = ""


# ---------------------------------------------------------------------------
# 1. Reverse-polish stack-based desk calculator
# ---------------------------------------------------------------------------

#: RPN opcodes.
_PUSH_CONST, _PUSH_X, _PUSH_Y, _ADD, _SUB, _MUL = range(6)


def compile_rpn(expression_ops: List[Tuple[int, int]]) -> str:
    """Render an RPN program as MiniC array-initialization statements."""
    lines = []
    for i, (op, arg) in enumerate(expression_ops):
        lines.append("    prog[%d] = %d;" % (2 * i, op))
        lines.append("    prog[%d] = %d;" % (2 * i + 1, arg))
    return "\n".join(lines)


#: The paper's calculator expression:
#: x*y - 3*y^2 - x^2 + (x+5)*(y-x) + x + y - 1
PAPER_EXPRESSION: List[Tuple[int, int]] = [
    (_PUSH_X, 0), (_PUSH_Y, 0), (_MUL, 0),            # x*y
    (_PUSH_CONST, 3), (_PUSH_Y, 0), (_PUSH_Y, 0), (_MUL, 0), (_MUL, 0),
    (_SUB, 0),                                        # - 3*y*y
    (_PUSH_X, 0), (_PUSH_X, 0), (_MUL, 0), (_SUB, 0),  # - x*x
    (_PUSH_X, 0), (_PUSH_CONST, 5), (_ADD, 0),
    (_PUSH_Y, 0), (_PUSH_X, 0), (_SUB, 0), (_MUL, 0), (_ADD, 0),
    (_PUSH_X, 0), (_ADD, 0),                          # + x
    (_PUSH_Y, 0), (_ADD, 0),                          # + y
    (_PUSH_CONST, 1), (_SUB, 0),                      # - 1
]


def rpn_reference(ops: List[Tuple[int, int]], x: int, y: int) -> int:
    stack: List[int] = []
    for op, arg in ops:
        if op == _PUSH_CONST:
            stack.append(arg)
        elif op == _PUSH_X:
            stack.append(x)
        elif op == _PUSH_Y:
            stack.append(y)
        elif op == _ADD:
            b, a = stack.pop(), stack.pop()
            stack.append(a + b)
        elif op == _SUB:
            b, a = stack.pop(), stack.pop()
            stack.append(a - b)
        elif op == _MUL:
            b, a = stack.pop(), stack.pop()
            stack.append(a * b)
    return stack[-1]


_CALCULATOR_TEMPLATE = """
int calc(int *prog, int n, int x, int y) {
    int stack[32];
    dynamicRegion (prog, n) {
        int sp = 0;
        int pc;
        unrolled for (pc = 0; pc < n; pc++) {
            int op = prog[pc * 2];
            int arg = prog[pc * 2 + 1];
            switch (op) {
                case 0: stack[sp] = arg; sp = sp + 1; break;
                case 1: stack[sp] = x; sp = sp + 1; break;
                case 2: stack[sp] = y; sp = sp + 1; break;
                case 3: sp = sp - 1;
                        stack[sp - 1] = stack[sp - 1] + stack[sp]; break;
                case 4: sp = sp - 1;
                        stack[sp - 1] = stack[sp - 1] - stack[sp]; break;
                case 5: sp = sp - 1;
                        stack[sp - 1] = stack[sp - 1] * stack[sp]; break;
            }
        }
        return stack[sp - 1];
    }
}

int main() {
    int prog[%(prog_words)d];
%(prog_init)s
    int total = 0;
    int x; int y;
    for (x = 0; x < %(xs)d; x++) {
        for (y = 0; y < %(ys)d; y++) {
            total += calc(prog, %(n)d, x - 2, y + 1);
        }
    }
    return total;
}
"""


def calculator_workload(xs: int = 12, ys: int = 12,
                        ops: Optional[List[Tuple[int, int]]] = None
                        ) -> Workload:
    """The paper's row 1: interpret one arithmetic expression over many
    (x, y) inputs; the RPN program is the run-time constant."""
    ops = ops if ops is not None else PAPER_EXPRESSION
    expected = sum(rpn_reference(ops, x - 2, y + 1)
                   for x in range(xs) for y in range(ys))
    source = _CALCULATOR_TEMPLATE % {
        "prog_words": 2 * len(ops),
        "prog_init": compile_rpn(ops),
        "n": len(ops),
        "xs": xs,
        "ys": ys,
    }
    return Workload(
        name="calculator",
        config="%d-op expression, %d interpretations" % (len(ops), xs * ys),
        source=source,
        region_func="calc",
        executions=xs * ys,
        unit="interpretations",
        expected=expected,
        notes="paper: speedup 1.7, breakeven 916 interpretations",
    )


# ---------------------------------------------------------------------------
# 2. Scalar-matrix multiply (adapted from `C / EHK96)
# ---------------------------------------------------------------------------

_SCALAR_MATRIX_TEMPLATE = """
int smul(int *m, int *out, int n, int s) {
    dynamicRegion key(s) (s, n) {
        int i;
        for (i = 0; i < n; i++) {
            out dynamic[ i ] = m dynamic[ i ] * s;
        }
    }
    return 0;
}

int main() {
    int n = %(n)d;
    int *m = (int*) alloc(n);
    int *out = (int*) alloc(n);
    int i;
    for (i = 0; i < n; i++) m[i] = i %% 17 - 8;
    int check = 0;
    int s;
    for (s = 1; s <= %(scalars)d; s++) {
        smul(m, out, n, s);
        check += out[s %% n];
    }
    return check;
}
"""


def scalar_matrix_workload(rows: int = 20, cols: int = 40,
                           scalars: int = 24) -> Workload:
    """Row 2: multiply a matrix by each scalar 1..N; the scalar is a
    keyed run-time constant, so each scalar gets its own stitched
    multiply kernel (multiplications strength-reduced per value)."""
    n = rows * cols
    m = [(i % 17) - 8 for i in range(n)]
    check = 0
    for s in range(1, scalars + 1):
        out = [v * s for v in m]
        check += out[s % n]
    source = _SCALAR_MATRIX_TEMPLATE % {"n": n, "scalars": scalars}
    return Workload(
        name="scalar-matrix multiply",
        config="%dx%d matrix, scalars 1..%d" % (rows, cols, scalars),
        source=source,
        region_func="smul",
        executions=scalars,
        unit="element multiplications",
        units_per_execution=float(n),
        expected=check,
        notes="paper: 100x800, scalars 1..100, speedup 1.6, "
              "breakeven 31392 multiplications",
    )


# ---------------------------------------------------------------------------
# 3. Sparse matrix-vector multiply
# ---------------------------------------------------------------------------


def make_sparse_matrix(size: int, per_row: int,
                       seed: int = 1996) -> Tuple[List[int], List[int],
                                                  List[int]]:
    """CSR structure: row pointers, column indices, values."""
    rng = random.Random(seed)
    rowptr = [0]
    colidx: List[int] = []
    values: List[int] = []
    for _ in range(size):
        cols = sorted(rng.sample(range(size), per_row))
        for col in cols:
            colidx.append(col)
            values.append(rng.choice([1, 2, 3, 4, 5, 7, 8, 12, 16, -3]))
        rowptr.append(len(colidx))
    return rowptr, colidx, values


_SPARSE_TEMPLATE = """
int spmv(int *rowptr, int *colidx, float *vals, int nrows, float *x,
         float *y) {
    dynamicRegion (rowptr, colidx, vals, nrows) {
        int r;
        unrolled for (r = 0; r < nrows; r++) {
            float t = 0.0;
            int lo = rowptr[r];
            int hi = rowptr[r + 1];
            int k;
            unrolled for (k = lo; k < hi; k++) {
                t = t + vals[k] * x dynamic[ colidx[k] ];
            }
            y dynamic[ r ] = t;
        }
    }
    return 0;
}

%(data_init)s

int main() {
    int n = %(n)d;
    float *x = (float*) alloc(n);
    float *y = (float*) alloc(n);
    int i;
    int check = 0;
    int rep;
    for (rep = 0; rep < %(reps)d; rep++) {
        for (i = 0; i < n; i++) x[i] = (float)((i + rep) %% 9 - 4);
        spmv(rowptr, colidx, vals, n, x, y);
        check += (int) y[rep %% n];
    }
    return check;
}
"""


def _array_global(name: str, values: List[int]) -> str:
    lines = ["int %s[%d];" % (name, len(values))]
    return "\n".join(lines)


def _array_init(name: str, values: List[int]) -> str:
    return "\n".join(
        "    %s[%d] = %d;" % (name, i, v) for i, v in enumerate(values))


def sparse_matvec_workload(size: int = 24, per_row: int = 5,
                           reps: int = 6, seed: int = 1996) -> Workload:
    """Rows 3-4: y = A*x with the sparse matrix (structure and values)
    run-time constant; both loops fully unrolled, indices and values
    become immediates / linearized-table constants."""
    rowptr, colidx, values = make_sparse_matrix(size, per_row, seed)
    # reference (float values are small integers: arithmetic is exact)
    check = 0
    for rep in range(reps):
        x = [float(((i + rep) % 9) - 4) for i in range(size)]
        y = []
        for r in range(size):
            acc = 0.0
            for k in range(rowptr[r], rowptr[r + 1]):
                acc += float(values[k]) * x[colidx[k]]
            y.append(acc)
        check += int(y[rep % size])
    float_init = "\n".join(
        "    vals[%d] = %d.0;" % (i, v) for i, v in enumerate(values))
    data_decls = "\n".join([
        _array_global("rowptr", rowptr),
        _array_global("colidx", colidx),
        "float vals[%d];" % len(values),
        "void initData() {",
        _array_init("rowptr", rowptr),
        _array_init("colidx", colidx),
        float_init,
        "}",
    ])
    source = _SPARSE_TEMPLATE % {
        "data_init": data_decls,
        "n": size,
        "reps": reps,
    }
    source = source.replace("int main() {",
                            "int main() {\n    initData();")
    return Workload(
        name="sparse matrix-vector multiply",
        config="%dx%d matrix, %d elements/row" % (size, size, per_row),
        source=source,
        region_func="spmv",
        executions=reps,
        unit="matrix multiplications",
        expected=check,
        notes="paper: 200x200 (10/row) speedup 1.8; 96x96 (5/row) "
              "speedup 1.5",
    )


# ---------------------------------------------------------------------------
# 4. Event dispatcher (extensible OS kernel, SPIN-style)
# ---------------------------------------------------------------------------

#: guard kinds: equality, threshold, mask-test, wildcard.
_GUARD_EQ, _GUARD_GT, _GUARD_MASK, _GUARD_ANY = range(4)


def make_guards(count: int, seed: int = 7) -> List[Tuple[int, int, int]]:
    rng = random.Random(seed)
    guards = []
    for i in range(count):
        kind = rng.choice([_GUARD_EQ, _GUARD_GT, _GUARD_MASK, _GUARD_ANY])
        arg = rng.randrange(1, 16)
        handler = 1 << i
        guards.append((kind, arg, handler))
    return guards


_DISPATCH_TEMPLATE = """
int dispatch(int *guards, int nguards, int *event) {
    int result = 0;
    dynamicRegion (guards, nguards) {
        int i;
        unrolled for (i = 0; i < nguards; i++) {
            int kind = guards[i * 3];
            int arg = guards[i * 3 + 1];
            int handler = guards[i * 3 + 2];
            int match = 0;
            switch (kind) {
                case 0: match = event dynamic[ 0 ] == arg; break;
                case 1: match = event dynamic[ 1 ] > arg; break;
                case 2: match = (event dynamic[ 2 ] & arg) != 0; break;
                default: match = 1;
            }
            if (match) result = result + handler;
        }
    }
    return result;
}

int guards[%(guard_words)d];
void initGuards() {
%(guard_init)s
}

int main() {
    initGuards();
    int event[3];
    int total = 0;
    int e;
    for (e = 0; e < %(events)d; e++) {
        event[0] = e %% 16;
        event[1] = (e * 7) %% 16;
        event[2] = (e * 13) %% 16;
        total += dispatch(guards, %(nguards)d, event);
    }
    return total;
}
"""


def event_dispatcher_workload(nguards: int = 10, events: int = 150,
                              seed: int = 7) -> Workload:
    """Row 5: dispatch events against a run-time constant list of guard
    predicates; the guard loop is unrolled and each guard's type switch
    is resolved at stitch time."""
    guards = make_guards(nguards, seed)
    total = 0
    for e in range(events):
        event = [e % 16, (e * 7) % 16, (e * 13) % 16]
        for kind, arg, handler in guards:
            if kind == _GUARD_EQ:
                match = event[0] == arg
            elif kind == _GUARD_GT:
                match = event[1] > arg
            elif kind == _GUARD_MASK:
                match = (event[2] & arg) != 0
            else:
                match = True
            if match:
                total += handler
    flat = [value for guard in guards for value in guard]
    source = _DISPATCH_TEMPLATE % {
        "guard_words": len(flat),
        "guard_init": _array_init("guards", flat),
        "nguards": nguards,
        "events": events,
    }
    return Workload(
        name="event dispatcher",
        config="%d guards, %d events" % (nguards, events),
        source=source,
        region_func="dispatch",
        executions=events,
        unit="event dispatches",
        expected=total,
        notes="paper: 10 guards, speedup 1.4, breakeven 722 dispatches",
    )


# ---------------------------------------------------------------------------
# 5. QuickSort record sorter
# ---------------------------------------------------------------------------


def make_records(count: int, fields: int = 4,
                 seed: int = 42) -> List[List[int]]:
    rng = random.Random(seed)
    return [[rng.randrange(-25, 25) for _ in range(fields)]
            for _ in range(count)]


_SORTER_TEMPLATE = """
int nCompares;

// key kinds: 0 = ascending, 1 = descending, 2 = ascending by magnitude
int compare(int *recA, int *recB, int *keys, int nkeys) {
    nCompares = nCompares + 1;
    dynamicRegion (keys, nkeys) {
        int i;
        unrolled for (i = 0; i < nkeys; i++) {
            int off = keys[i * 2];
            int kind = keys[i * 2 + 1];
            int a = recA dynamic[ off ];
            int b = recB dynamic[ off ];
            switch (kind) {
                case 0:
                    if (a < b) return 0 - 1;
                    if (a > b) return 1;
                    break;
                case 1:
                    if (a > b) return 0 - 1;
                    if (a < b) return 1;
                    break;
                default:
                    a = iabs(a);
                    b = iabs(b);
                    if (a < b) return 0 - 1;
                    if (a > b) return 1;
            }
        }
        return 0;
    }
}

void quicksort(int **recs, int lo, int hi, int *keys, int nkeys) {
    if (lo >= hi) return;
    int *pivot = recs[(lo + hi) / 2];
    int i = lo;
    int j = hi;
    while (i <= j) {
        while (compare(recs[i], pivot, keys, nkeys) < 0) i++;
        while (compare(recs[j], pivot, keys, nkeys) > 0) j--;
        if (i <= j) {
            int *t = recs[i];
            recs[i] = recs[j];
            recs[j] = t;
            i++;
            j--;
        }
    }
    quicksort(recs, lo, j, keys, nkeys);
    quicksort(recs, i, hi, keys, nkeys);
}

int records[%(record_words)d];
void initRecords() {
%(record_init)s
}

int main() {
    initRecords();
    int n = %(count)d;
    int **recs = (int**) alloc(n);
    int i;
    for (i = 0; i < n; i++) recs[i] = records + i * %(fields)d;
    int keys[%(key_words)d];
%(key_init)s
    nCompares = 0;
    quicksort(recs, 0, n - 1, keys, %(nkeys)d);
    // Checksum the sorted order.  Uses |field0| so that records tied on
    // the full key (which quicksort may order either way) contribute
    // identically.
    int check = 0;
    for (i = 0; i < n; i++)
        check = (check * 3 + iabs(recs[i][0])) %% 1000003;
    print_int(nCompares);
    return check;
}
"""


def record_sorter_workload(count: int = 80,
                           keys: Optional[List[Tuple[int, int]]] = None,
                           fields: int = 4, seed: int = 42) -> Workload:
    """Rows 6-7: quicksort with a comparison routine specialized to the
    run-time constant key descriptors.

    A key is ``(field offset, kind)`` with kind 0 = ascending, 1 =
    descending, 2 = ascending by magnitude -- the paper's "keys, each
    of a different type", whose type dispatch the stitcher resolves.

    A final ascending key on field 0 is appended when absent, making
    the order total on the checksummed field (quicksort is unstable, so
    the checksum must not depend on how full-key ties land).
    """
    keys = list(keys) if keys is not None else [(0, 0)]
    if all(offset != 0 for offset, _ in keys):
        keys.append((0, 0))
    records = make_records(count, fields, seed)

    def key_value(record, off, kind):
        return abs(record[off]) if kind == 2 else record[off]

    def cmp_records(a, b):
        for off, kind in keys:
            va = key_value(a, off, kind)
            vb = key_value(b, off, kind)
            direction = -1 if kind == 1 else 1
            if va < vb:
                return -direction
            if va > vb:
                return direction
        return 0

    import functools
    ordered = sorted(records, key=functools.cmp_to_key(cmp_records))
    check = 0
    for record in ordered:
        check = (check * 3 + abs(record[0])) % 1000003
    flat_records = [v for record in records for v in record]
    flat_keys = [v for key in keys for v in key]
    source = _SORTER_TEMPLATE % {
        "record_words": len(flat_records),
        "record_init": _array_init("records", flat_records),
        "count": count,
        "fields": fields,
        "key_words": len(flat_keys),
        "key_init": "\n".join("    keys[%d] = %d;" % (i, v)
                              for i, v in enumerate(flat_keys)),
        "nkeys": len(keys),
    }
    return Workload(
        name="record sorter",
        config="%d records, %d key%s" % (count, len(keys),
                                         "s" if len(keys) != 1 else ""),
        source=source,
        region_func="compare",
        executions=-1,  # data dependent: main prints its compare count
        unit="records",
        units_per_execution=0.0,  # the harness: records / region entries
        expected=check,
        notes="paper: 1000/2000 records, speedup 1.2, breakeven "
              "3050/4760 records",
    )


#: The five paper benchmarks in Table 2 row order (with the paper's two
#: configurations where it reports two).
def all_workloads(scale: float = 1.0,
                  seed: Optional[int] = None) -> List[Workload]:
    """The full Table 2/3 suite.

    With ``seed=None`` every stochastic workload keeps its historical
    fixed seed (1996/7/42 -- pinned by ``golden_accounting.json``).
    With a seed, all per-workload seeds derive from one
    ``random.Random(seed)`` stream, so the entire suite's input data
    is reproducible from that single number.
    """
    def scaled(value: int, minimum: int = 2) -> int:
        return max(minimum, int(value * scale))

    if seed is None:
        seeds: Dict[str, int] = {}
    else:
        rng = random.Random(seed)
        seeds = {name: rng.randrange(1 << 30)
                 for name in ("matvec_a", "matvec_b", "guards",
                              "records_a", "records_b")}

    def pick(name: str, default: int) -> int:
        return seeds.get(name, default)

    return [
        calculator_workload(xs=scaled(12), ys=scaled(12)),
        scalar_matrix_workload(rows=scaled(20), cols=scaled(40),
                               scalars=scaled(24)),
        sparse_matvec_workload(size=scaled(24), per_row=5,
                               reps=scaled(6),
                               seed=pick("matvec_a", 1996)),
        sparse_matvec_workload(size=scaled(12), per_row=3,
                               reps=scaled(6),
                               seed=pick("matvec_b", 1996)),
        event_dispatcher_workload(nguards=10, events=scaled(150),
                                  seed=pick("guards", 7)),
        record_sorter_workload(count=scaled(80), keys=[(0, 0)],
                               seed=pick("records_a", 42)),
        record_sorter_workload(count=scaled(80), keys=[(2, 1), (0, 2)],
                               seed=pick("records_b", 42)),
    ]
