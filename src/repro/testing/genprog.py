"""Whole-program MiniC generator for differential fuzzing.

Emits random but *type-correct, terminating, trap-free* programs that
exercise the paper's dynamic-compilation machinery end to end:

* a ``dynamicRegion`` over run-time constant scalars and a constant
  table pointer (optionally a ``key(...)`` multi-version region);
* derived run-time constants (constant arithmetic, pure builtins,
  loads through the constant table pointer);
* ``unrolled`` loops -- including nested ones -- whose bounds are
  run-time constants, with per-iteration constant induction variables;
* constant branches and constant switches (resolved at stitch time,
  dead sides eliminated), variable branches and switches
  (fall-through included);
* unstructured forward ``goto`` control flow;
* ``dynamic[...]`` dereferences through constant addresses;
* float arithmetic (separate register file, pooled float constants);
* stores to a global ``out`` array (memory effects the oracle
  compares), ``print_int``/``print_float`` output, helper-function
  calls out of stitched code, and early ``return`` from the region.

The generated program is a tree of :class:`Node` objects, so the
shrinker in :mod:`repro.testing.ablate` can delete statements (or
unwrap block bodies) and re-render, rather than hacking at text.

Everything is driven by one ``random.Random`` instance: the same seed
always yields the same program.
"""

from __future__ import annotations

import random
from typing import List, Optional

__all__ = ["Node", "GenProgram", "ProgramGenerator", "generate_program"]

#: Size (power of two) of the constant input table and the output array.
TABLE_SIZE = 16
OUT_SIZE = 16

#: Pure integer builtins usable in derived-constant expressions.
_PURE_INT = ("imax", "imin")


class Node:
    """One generated statement (possibly with a nested block).

    ``head`` renders before the children, ``tail`` after; leaf
    statements have no children.  ``deletable`` nodes may be removed
    by the shrinker; ``unwrappable`` nodes may be replaced by their
    children (dropping the surrounding control structure).
    """

    __slots__ = ("head", "children", "tail", "deletable", "unwrappable",
                 "deleted", "unwrapped")

    def __init__(self, head: str = "", children: Optional[List["Node"]] = None,
                 tail: str = "", deletable: bool = True,
                 unwrappable: bool = False):
        self.head = head
        self.children: List[Node] = children if children is not None else []
        self.tail = tail
        self.deletable = deletable
        self.unwrappable = unwrappable
        self.deleted = False
        self.unwrapped = False

    def render(self, lines: List[str], indent: int) -> None:
        if self.deleted:
            return
        pad = "    " * indent
        if self.unwrapped:
            for child in self.children:
                child.render(lines, indent)
            return
        if self.head:
            for part in self.head.split("\n"):
                lines.append(pad + part)
        for child in self.children:
            child.render(lines, indent + 1)
        if self.tail:
            for part in self.tail.split("\n"):
                lines.append(pad + part)

    def walk(self):
        """All live nodes in this subtree (pre-order), including self."""
        if self.deleted:
            return
        yield self
        for child in self.children:
            yield from child.walk()


class GenProgram:
    """A generated program plus the metadata the oracle needs."""

    def __init__(self, root: Node, args: List[int], seed: int,
                 features: List[str], keyed: bool):
        self.root = root
        #: argument values for ``main(int x)`` -- the oracle runs the
        #: program once per argument.
        self.args = args
        self.seed = seed
        #: feature tags actually exercised (for coverage stats).
        self.features = features
        self.keyed = keyed

    @property
    def source(self) -> str:
        lines: List[str] = []
        self.root.render(lines, 0)
        return "\n".join(lines) + "\n"

    def live_nodes(self) -> List[Node]:
        return list(self.root.walk())


class _Scope:
    """Names in scope at a generation point, plus placement flags.

    The region splitter slices every run-time-constant computation into
    set-up code, which imposes two placement rules the generator must
    respect to keep the acceptance rate high:

    * ``tainted`` -- inside a non-unrolled (run-time) loop.  A constant
      computation there would put a loop into set-up code, which the
      splitter rejects; so every generated expression must depend on a
      run-time variable and contain no constant-only *compound*
      subexpression (bare constant names and literals are fine -- only
      instructions whose operands are all constant become set-up code).
    * ``const_ctrl`` -- whether constant *control flow* (constant
      branches/switches, ``unrolled`` loops) may be generated.  Under a
      variable branch, straight-line constant defs are speculatively
      hoisted by the splitter, but constant merges (phis) and unrolled
      loops there can be unplaceable, so we only emit them where set-up
      code is known to reach.
    """

    def __init__(self, consts: List[str], ivars: List[str],
                 fvars: List[str], tainted: bool = False,
                 const_ctrl: bool = True, counters: List[str] = ()):
        #: run-time constant ints (region constants, derived constants,
        #: unrolled-loop induction variables).
        self.consts = list(consts)
        #: mutable int variables.
        self.ivars = list(ivars)
        #: counters of the enclosing run-time loops: readable ivars (they
        #: anchor tainted expressions) but never assignment targets, so
        #: every generated loop terminates.
        self.counters = list(counters)
        #: mutable float variables.
        self.fvars = list(fvars)
        self.tainted = tainted
        self.const_ctrl = const_ctrl

    def child(self, tainted: Optional[bool] = None,
              const_ctrl: Optional[bool] = None) -> "_Scope":
        return _Scope(self.consts, self.ivars, self.fvars,
                      self.tainted if tainted is None else tainted,
                      self.const_ctrl if const_ctrl is None else const_ctrl,
                      self.counters)


class ProgramGenerator:
    """Generates one random program from one ``random.Random``."""

    def __init__(self, rng: random.Random, max_stmts: int = 14,
                 max_depth: int = 3):
        self.rng = rng
        self.max_stmts = max_stmts
        self.max_depth = max_depth
        self._names = 0
        self._budget = 0
        self._prints = 0
        self._label_depth = 0
        self.features: List[str] = []

    # -- small helpers ------------------------------------------------------

    def _fresh(self, prefix: str) -> str:
        self._names += 1
        return "%s%d" % (prefix, self._names)

    def _feature(self, tag: str) -> None:
        if tag not in self.features:
            self.features.append(tag)

    def _lit(self, lo: int = -9, hi: int = 9) -> str:
        value = self.rng.randint(lo, hi)
        return str(value) if value >= 0 else "(0 - %d)" % -value

    def _atom(self, scope: _Scope) -> str:
        """A bare name or literal: never creates an IR temp by itself."""
        pool = scope.ivars + scope.consts
        if pool and self.rng.random() < 0.8:
            return self.rng.choice(pool)
        return str(self.rng.randint(0, 9))

    def _rt_var(self, scope: _Scope) -> str:
        """A run-time (non-constant) variable; taint anchors."""
        return self.rng.choice(scope.ivars)

    # -- expressions --------------------------------------------------------

    def _const_expr(self, scope: _Scope, depth: int) -> str:
        """An int expression that is a *derived run-time constant*."""
        rng = self.rng
        if depth <= 0 or rng.random() < 0.3:
            if scope.consts and rng.random() < 0.75:
                return rng.choice(scope.consts)
            return self._lit(0, 13)
        choice = rng.randrange(6)
        if choice == 0:
            op = rng.choice(["+", "-", "*", "&", "|", "^"])
            return "(%s %s %s)" % (self._const_expr(scope, depth - 1), op,
                                   self._const_expr(scope, depth - 1))
        if choice == 1:
            return "(%s << %d)" % (self._const_expr(scope, depth - 1),
                                   rng.randrange(0, 5))
        if choice == 2:
            self._feature("pure_builtin")
            fn = rng.choice(_PURE_INT)
            return "%s(%s, %s)" % (fn, self._const_expr(scope, depth - 1),
                                   self._const_expr(scope, depth - 1))
        if choice == 3:
            self._feature("pure_builtin")
            return "iabs(%s)" % self._const_expr(scope, depth - 1)
        if choice == 4:
            # Load through the constant table pointer: a derived
            # constant (the paper's partially-constant data structures).
            self._feature("const_table_load")
            return "tabp[(%s) & %d]" % (self._const_expr(scope, depth - 1),
                                        TABLE_SIZE - 1)
        return "(%s >> %d)" % (self._const_expr(scope, depth - 1),
                               rng.randrange(0, 3))

    def _var_expr(self, scope: _Scope, depth: int,
                  in_region: bool = True) -> str:
        """An int expression over variables and constants.

        In a tainted scope (inside a run-time loop) the result is
        guaranteed to depend on a run-time variable and to contain no
        constant-only compound subexpression: the left spine always
        recurses down to a run-time variable, and the other operands
        are either equally tainted subexpressions or bare atoms.
        """
        rng = self.rng
        tainted = scope.tainted
        if depth <= 0 or rng.random() < 0.28:
            if tainted:
                return self._rt_var(scope)
            pool = scope.ivars + scope.consts
            if pool and rng.random() < 0.8:
                return rng.choice(pool)
            return self._lit()
        choice = rng.randrange(9)
        sub = lambda: self._var_expr(scope, depth - 1, in_region)
        other = (lambda: self._atom(scope) if rng.random() < 0.5
                 else sub()) if tainted else sub
        if choice == 0:
            op = rng.choice(["+", "-", "*", "&", "|", "^"])
            return "(%s %s %s)" % (sub(), op, other())
        if choice == 1:
            # The shift-amount wrapper (& 7) is itself a compound, so
            # its operand must be tainted in tainted scopes (an atom
            # would make the wrapper a constant-only computation).
            op = rng.choice(["<<", ">>"])
            return "(%s %s (%s & 7))" % (other(), op, sub())
        if choice == 2:
            op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
            return "(%s %s %s)" % (sub(), op, other())
        if choice == 3:
            self._feature("ternary")
            left, right = sub(), other()
            if left == right:
                # Identical arms would make a constant phi under a
                # possibly-variable branch -- unplaceable set-up code.
                right = "(%s ^ 1)" % right if not tainted \
                    else self._rt_var(scope)
            return "(%s ? %s : %s)" % (self._cond(scope, depth - 1),
                                       left, right)
        if choice == 4:
            self._feature("division")
            # Trap-free: the denominator is forced odd (never zero).
            # The (| 1) wrapper is a compound, so its operand recurses
            # (an atom would make it constant-only in tainted scopes).
            op = rng.choice(["/", "%"])
            return "(%s %s ((%s) | 1))" % (other(), op, sub())
        if choice == 5 and in_region:
            self._feature("dynamic_deref")
            return "tabp dynamic[ (%s) & %d ]" % (sub(), TABLE_SIZE - 1)
        if choice == 6:
            self._feature("shortcircuit")
            op = rng.choice(["&&", "||"])
            return "(%s %s %s)" % (self._cond(scope, depth - 1), op,
                                   self._cond(scope, depth - 1))
        if choice == 7 and in_region:
            self._feature("helper_call")
            return "helper(%s, %s)" % (sub(), other())
        return "(%s + %s)" % (sub(), other())

    def _float_atom(self, scope: _Scope) -> str:
        rng = self.rng
        if scope.fvars and rng.random() < 0.6:
            return rng.choice(scope.fvars)
        return "%d.%d" % (rng.randint(0, 9), rng.randint(0, 9))

    def _float_expr(self, scope: _Scope, depth: int) -> str:
        rng = self.rng
        tainted = scope.tainted
        if depth <= 0 or rng.random() < 0.35:
            if tainted:
                # The taint anchor: cast of a run-time int variable.
                self._feature("float_cast")
                return "((float)((%s) & 15))" % self._rt_var(scope)
            return self._float_atom(scope)
        choice = rng.randrange(5)
        sub = lambda: self._float_expr(scope, depth - 1)
        other = (lambda: self._float_atom(scope) if rng.random() < 0.5
                 else sub()) if tainted else sub
        if choice == 0:
            op = rng.choice(["+", "-", "*"])
            return "(%s %s %s)" % (sub(), op, other())
        if choice == 1:
            self._feature("float_cast")
            return "((float)((%s) & 15))" % self._var_expr(scope, depth - 1)
        if choice == 2:
            self._feature("float_builtin")
            return "fsqrt(fabs(%s))" % sub()
        if choice == 3:
            self._feature("float_div")
            # Trap-free: denominator in 1..8.
            return "(%s / ((float)(((%s) & 7) + 1)))" % (
                sub(), self._var_expr(scope, depth - 1))
        return "fmin(%s, %s)" % (sub(), other())

    def _cond(self, scope: _Scope, depth: int) -> str:
        """A branch predicate.  Where constant control flow is not
        allowed (tainted scopes, and under variable branches where a
        nested constant branch would make constant phis set-up code
        cannot reach), the left operand is anchored on a run-time
        variable so the predicate is never a run-time constant."""
        rng = self.rng
        op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
        if scope.tainted or not scope.const_ctrl:
            anchored = scope.child(tainted=True)
            rhs = (self._atom(scope) if rng.random() < 0.5
                   else self._var_expr(anchored, depth))
            return "(%s %s %s)" % (self._var_expr(anchored, depth), op, rhs)
        return "(%s %s %s)" % (self._var_expr(scope, depth), op,
                               self._var_expr(scope, depth))

    def _const_cond(self, scope: _Scope, depth: int) -> str:
        rng = self.rng
        if rng.random() < 0.4:
            return "((%s & 1) != 0)" % self._const_expr(scope, depth)
        op = rng.choice(["<", "<=", ">", "==", "!="])
        return "(%s %s %s)" % (self._const_expr(scope, depth), op,
                               self._const_expr(scope, depth))

    # -- statements ---------------------------------------------------------

    def _gen_block(self, scope: _Scope, depth: int, n_stmts: int,
                   in_unrolled: bool) -> List[Node]:
        nodes = []
        for _ in range(n_stmts):
            if self._budget <= 0:
                break
            self._budget -= 1
            nodes.append(self._gen_stmt(scope, depth, in_unrolled))
        return nodes

    def _gen_stmt(self, scope: _Scope, depth: int,
                  in_unrolled: bool) -> Node:
        rng = self.rng
        # Placement discipline (see _Scope): no constant computations
        # inside run-time loops, no constant control flow where set-up
        # code is not guaranteed to reach.
        const_ok = not scope.tainted
        cc = scope.const_ctrl and const_ok
        weights = [
            ("decl_const", 14 if const_ok else 0),
            ("decl_var", 14), ("assign", 16),
            ("store", 10),
            ("if_const", 8 if cc else 0), ("if_var", 8),
            ("switch_const", 5 if cc else 0), ("switch_var", 5),
            ("unrolled", 8 if depth > 0 and cc else 0),
            ("plain_loop", 5 if depth > 0 else 0),
            ("goto", 5 if self._label_depth == 0 else 0),
            ("float", 7),
            ("print", 4 if self._prints < 6 else 0),
            ("early_return", 2),
        ]
        total = sum(w for _, w in weights)
        pick = rng.randrange(total)
        for kind, weight in weights:
            if pick < weight:
                break
            pick -= weight
        method = getattr(self, "_stmt_" + kind)
        return method(scope, depth, in_unrolled)

    def _stmt_decl_const(self, scope: _Scope, depth: int,
                         in_unrolled: bool) -> Node:
        name = self._fresh("d")
        self._feature("derived_const")
        node = Node("int %s = %s;" % (name,
                                      self._const_expr(scope, depth + 1)))
        scope.consts.append(name)
        return node

    def _stmt_decl_var(self, scope: _Scope, depth: int,
                       in_unrolled: bool) -> Node:
        name = self._fresh("v")
        node = Node("int %s = %s;" % (name, self._var_expr(scope, 2)))
        scope.ivars.append(name)
        return node

    def _stmt_assign(self, scope: _Scope, depth: int,
                     in_unrolled: bool) -> Node:
        rng = self.rng
        targets = [v for v in scope.ivars if v not in scope.counters]
        if not targets:
            return self._stmt_decl_var(scope, depth, in_unrolled)
        target = rng.choice(targets)
        if rng.random() < 0.4:
            op = rng.choice(["+=", "-=", "*=", "^=", "|=", "&="])
            return Node("%s %s %s;" % (target, op, self._var_expr(scope, 2)))
        return Node("%s = %s;" % (target, self._var_expr(scope, 2)))

    def _stmt_store(self, scope: _Scope, depth: int,
                    in_unrolled: bool) -> Node:
        self._feature("memory_effect")
        index = "(%s) & %d" % (self._var_expr(scope, 1), OUT_SIZE - 1)
        return Node("out[%s] = %s;" % (index, self._var_expr(scope, 2)))

    def _stmt_if_const(self, scope: _Scope, depth: int,
                       in_unrolled: bool) -> Node:
        self._feature("const_branch")
        cond = self._const_cond(scope, 1)
        then = self._gen_block(scope.child(), depth - 1,
                               self.rng.randint(1, 2), in_unrolled)
        if self.rng.random() < 0.6:
            other = self._gen_block(scope.child(), depth - 1,
                                    self.rng.randint(1, 2), in_unrolled)
            els = Node("} else {", other, deletable=False)
            return Node("if (%s) {" % cond, then + [els], "}")
        return Node("if (%s) {" % cond, then, "}", unwrappable=True)

    def _stmt_if_var(self, scope: _Scope, depth: int,
                     in_unrolled: bool) -> Node:
        self._feature("var_branch")
        cond = self._cond(scope, 1)
        then = self._gen_block(scope.child(const_ctrl=False), depth - 1,
                               self.rng.randint(1, 2), in_unrolled)
        if self.rng.random() < 0.5:
            other = self._gen_block(scope.child(const_ctrl=False),
                                    depth - 1, 1, in_unrolled)
            els = Node("} else {", other, deletable=False)
            return Node("if (%s) {" % cond, then + [els], "}")
        return Node("if (%s) {" % cond, then, "}", unwrappable=True)

    def _switch(self, scope: _Scope, depth: int, in_unrolled: bool,
                selector: str, tag: str, case_scope: _Scope) -> Node:
        rng = self.rng
        self._feature(tag)
        n_cases = rng.randint(2, 4)
        children: List[Node] = []
        for case in range(n_cases):
            # Brace each case body: a declaration may not directly
            # follow a label, and braces keep its scope local.
            body = self._gen_block(case_scope.child(), depth - 1, 1,
                                   in_unrolled)
            fall_through = rng.random() < 0.3
            children.append(Node("case %d: {" % case, body, "}",
                                 deletable=False))
            if not fall_through:
                children.append(Node("break;", deletable=False))
            else:
                self._feature("fallthrough")
        default_body = self._gen_block(case_scope.child(), depth - 1, 1,
                                       in_unrolled)
        children.append(Node("default: {", default_body, "}",
                             deletable=False))
        return Node("switch ((%s) & 3) {" % selector, children, "}")

    def _stmt_switch_const(self, scope: _Scope, depth: int,
                           in_unrolled: bool) -> Node:
        return self._switch(scope, depth, in_unrolled,
                            self._const_expr(scope, 1), "const_switch",
                            scope)

    def _stmt_switch_var(self, scope: _Scope, depth: int,
                         in_unrolled: bool) -> Node:
        return self._switch(scope, depth, in_unrolled,
                            self._var_expr(scope, 1), "var_switch",
                            scope.child(const_ctrl=False))

    def _stmt_unrolled(self, scope: _Scope, depth: int,
                       in_unrolled: bool) -> Node:
        rng = self.rng
        self._feature("unrolled_nested" if in_unrolled else "unrolled")
        ivar = self._fresh("i")
        bound = rng.choice([
            "n",
            str(rng.randint(1, 6)),
            "((%s) & 3) + 1" % self._const_expr(scope, 1),
        ])
        inner = scope.child()
        # The induction variable is a per-iteration run-time constant.
        inner.consts.append(ivar)
        body = self._gen_block(inner, depth - 1, rng.randint(1, 3),
                               in_unrolled=True)
        if not body:
            body = [Node("out[%s & %d] = %s;"
                         % (ivar, OUT_SIZE - 1, self._var_expr(inner, 1)))]
        return Node("int %s;\nunrolled for (%s = 0; %s < %s; %s++) {"
                    % (ivar, ivar, ivar, bound, ivar), body, "}",
                    unwrappable=False)

    def _stmt_plain_loop(self, scope: _Scope, depth: int,
                         in_unrolled: bool) -> Node:
        rng = self.rng
        self._feature("plain_loop")
        ivar = self._fresh("j")
        # The bound is re-evaluated in the loop header (inside the
        # loop), so it must be tainted even when the loop itself sits
        # in constant-friendly context.
        bound_scope = scope.child(tainted=True)
        # The offset may be 0, so a loop can run zero times.
        bound = "((%s) & 3) + %d" % (self._var_expr(bound_scope, 1),
                                     rng.randint(1, 3) - 1)
        inner = scope.child(tainted=True, const_ctrl=False)
        inner.ivars.append(ivar)
        inner.counters.append(ivar)
        # Generate the continue guard *before* the body so it cannot
        # reference variables declared later in the loop.
        guard = (Node("if (%s) continue;" % self._cond(inner, 0))
                 if rng.random() < 0.3 else None)
        body = self._gen_block(inner, depth - 1, rng.randint(1, 2),
                               in_unrolled)
        if guard is not None and body:
            self._feature("continue")
            body.insert(0, guard)
        return Node("int %s;\nfor (%s = 0; %s < %s; %s++) {"
                    % (ivar, ivar, ivar, bound, ivar), body, "}")

    def _stmt_goto(self, scope: _Scope, depth: int,
                   in_unrolled: bool) -> Node:
        """A forward unstructured diamond:

        ``if (c) goto La;  S1;  goto Lb;  La: S2;  Lb: S3;``
        """
        self._feature("goto")
        self._label_depth += 1
        la = self._fresh("L")
        lb = self._fresh("L")
        const_goto = (scope.const_ctrl and not scope.tainted
                      and self.rng.random() < 0.4)
        cond = (self._const_cond(scope, 1) if const_goto
                else self._cond(scope, 1))
        # Label-targeted statements must not be declarations (a label
        # can only prefix a statement), so both arms are assignments
        # or stores.  The arms are guarded by the goto's branch, so
        # constant control flow (from expression lowering) is off
        # there unless the goto itself branches on a constant.
        arm_scope = scope if const_goto else scope.child(const_ctrl=False)
        arm = lambda: (self._stmt_store(arm_scope, 0, in_unrolled)
                       if self.rng.random() < 0.4
                       else self._stmt_assign(arm_scope, 0, in_unrolled))
        s1, s2, s3 = arm(), arm(), self._stmt_assign(scope, 0, in_unrolled)
        self._label_depth -= 1
        return Node("if (%s) goto %s;" % (cond, la),
                    [s1,
                     Node("goto %s;" % lb, deletable=False),
                     Node("%s:" % la, deletable=False),
                     s2,
                     Node("%s:" % lb, deletable=False),
                     s3],
                    deletable=True)

    def _stmt_float(self, scope: _Scope, depth: int,
                    in_unrolled: bool) -> Node:
        rng = self.rng
        self._feature("float")
        if not scope.fvars or rng.random() < 0.5:
            name = self._fresh("g")
            node = Node("float %s = %s;" % (name,
                                            self._float_expr(scope, 2)))
            scope.fvars.append(name)
            return node
        target = rng.choice(scope.fvars)
        return Node("%s = %s;" % (target, self._float_expr(scope, 2)))

    def _stmt_print(self, scope: _Scope, depth: int,
                    in_unrolled: bool) -> Node:
        self._prints += 1
        self._feature("print")
        if scope.fvars and self.rng.random() < 0.35:
            return Node("print_float(%s);" % self.rng.choice(scope.fvars))
        return Node("print_int(%s);" % self._var_expr(scope, 2))

    def _stmt_early_return(self, scope: _Scope, depth: int,
                           in_unrolled: bool) -> Node:
        self._feature("early_return")
        # The returned expression is guarded by the (variable) branch.
        guarded = scope.child(const_ctrl=False)
        return Node("if (%s) return %s;" % (self._cond(scope, 1),
                                            self._var_expr(guarded, 2)))

    # -- whole program ------------------------------------------------------

    def generate(self, seed: int = 0) -> GenProgram:
        rng = self.rng
        self._budget = self.max_stmts
        keyed = rng.random() < 0.35
        c0 = rng.randint(-20, 20)
        c1 = rng.randint(0, 15)
        n = rng.randint(1, 7)
        table = [rng.randint(-25, 25) for _ in range(TABLE_SIZE)]
        keys = sorted({rng.randint(0, 9)
                       for _ in range(rng.randint(2, 3))}) if keyed else []

        scope = _Scope(consts=["c0", "c1", "n"],
                       ivars=["x", "y"], fvars=[])
        region_body = self._gen_block(scope, self.max_depth,
                                      self.max_stmts, in_unrolled=False)
        region_body.append(Node("return %s;" % self._var_expr(scope, 2),
                                deletable=False))

        if keyed:
            # The backend passes at most 6 parameters in registers, so
            # the keyed variant derives y locally instead of taking it.
            self._feature("keyed_region")
            region_head = "dynamicRegion key(k) (k, c0, c1, tabp, n) {"
            params = "int k, int c0, int c1, int *tabp, int n, int x"
            preamble = [Node("int y = x ^ 5;", deletable=False)]
        else:
            region_head = "dynamicRegion (c0, c1, tabp, n) {"
            params = "int c0, int c1, int *tabp, int n, int x, int y"
            preamble = []

        region = Node(region_head, region_body, "}", deletable=False)
        func = Node("int f(%s) {" % params, preamble + [region], "}",
                    deletable=False)

        helper = Node(
            "int helper(int a, int b) {\n"
            "    return a * 3 - (b ^ 5);\n"
            "}", deletable=False)

        init_lines = "\n".join("    tab[%d] = %d;" % (i, v)
                               for i, v in enumerate(table))
        globals_node = Node(
            "int tab[%d];\nint out[%d];\n"
            "void initTab() {\n%s\n}"
            % (TABLE_SIZE, OUT_SIZE, init_lines), deletable=False)

        # main: several calls with identical constants (the annotation
        # contract) but varying non-constant arguments, then a checksum
        # of the out[] array.
        call_nodes: List[Node] = []
        n_calls = rng.randint(2, 4)
        for i in range(n_calls):
            vx = rng.choice(["x", "x + %d" % i, "x - %d" % (2 * i + 1),
                             str(rng.randint(-5, 5))])
            vy = rng.choice(["x * 2", "y0", str(rng.randint(-5, 5)),
                             "acc & 15"])
            if keyed:
                key = rng.choice(keys)
                call = "f(%d, %d, %d, tab, %d, %s)" % (
                    key, c0, c1, n, vx)
            else:
                call = "f(%d, %d, tab, %d, %s, %s)" % (c0, c1, n, vx, vy)
            call_nodes.append(
                Node("acc = acc * 31 + %s;" % call,
                     deletable=(i != 0)))
        main = Node(
            "int main(int x) {",
            [Node("initTab();", deletable=False),
             Node("int acc = 0;", deletable=False),
             Node("int y0 = x ^ 3;", deletable=False)]
            + call_nodes
            + [Node("int q;\nfor (q = 0; q < %d; q++) "
                    "acc = acc * 3 + out[q];" % OUT_SIZE, deletable=False),
               Node("print_int(acc);", deletable=False),
               Node("return acc;", deletable=False)],
            "}", deletable=False)

        root = Node(children=[globals_node, helper, func, main],
                    deletable=False)
        args = sorted({rng.randint(-10, 10) for _ in range(2)}) or [0]
        return GenProgram(root, [int(a) for a in args], seed,
                          list(self.features), keyed)


def generate_program(seed: int, max_stmts: int = 14,
                     max_depth: int = 3) -> GenProgram:
    """One deterministic random program from ``seed``."""
    generator = ProgramGenerator(random.Random(seed), max_stmts=max_stmts,
                                 max_depth=max_depth)
    return generator.generate(seed)
