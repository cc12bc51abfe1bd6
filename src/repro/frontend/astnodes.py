"""Abstract syntax tree for MiniC.

Nodes carry source positions for diagnostics; the type checker
annotates expression nodes with a ``type`` attribute and lvalue
information, which the IR builder consumes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .types import Type


class Node:
    """Base AST node."""

    __slots__ = ("line", "col")

    def __init__(self, line: int = 0, col: int = 0):
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    __slots__ = ("type",)

    def __init__(self, line: int = 0, col: int = 0):
        super().__init__(line, col)
        self.type: Optional[Type] = None


class IntLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int, line: int = 0, col: int = 0):
        super().__init__(line, col)
        self.value = value


class FloatLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float, line: int = 0, col: int = 0):
        super().__init__(line, col)
        self.value = value


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str, line: int = 0, col: int = 0):
        super().__init__(line, col)
        self.name = name


class Binary(Expr):
    """Binary operator; ``op`` is the source operator text (``+``, ...)."""

    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Expr, rhs: Expr, line: int = 0, col: int = 0):
        super().__init__(line, col)
        self.op = op
        self.lhs = lhs
        self.rhs = rhs


class Unary(Expr):
    """Unary operator: ``-``, ``!``, ``~``."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr, line: int = 0, col: int = 0):
        super().__init__(line, col)
        self.op = op
        self.operand = operand


class Deref(Expr):
    """``*p`` or ``dynamic* p``."""

    __slots__ = ("pointer", "dynamic")

    def __init__(self, pointer: Expr, dynamic: bool = False,
                 line: int = 0, col: int = 0):
        super().__init__(line, col)
        self.pointer = pointer
        self.dynamic = dynamic


class AddrOf(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr, line: int = 0, col: int = 0):
        super().__init__(line, col)
        self.operand = operand


class Field(Expr):
    """``base.name``, ``base->name`` or ``base dynamic-> name``."""

    __slots__ = ("base", "name", "arrow", "dynamic")

    def __init__(self, base: Expr, name: str, arrow: bool,
                 dynamic: bool = False, line: int = 0, col: int = 0):
        super().__init__(line, col)
        self.base = base
        self.name = name
        self.arrow = arrow
        self.dynamic = dynamic


class Index(Expr):
    """``base[i]`` or ``base dynamic[ i ]``."""

    __slots__ = ("base", "index", "dynamic")

    def __init__(self, base: Expr, index: Expr, dynamic: bool = False,
                 line: int = 0, col: int = 0):
        super().__init__(line, col)
        self.base = base
        self.index = index
        self.dynamic = dynamic


class Call(Expr):
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: List[Expr], line: int = 0, col: int = 0):
        super().__init__(line, col)
        self.name = name
        self.args = args


class Cast(Expr):
    __slots__ = ("target", "operand")

    def __init__(self, target: Type, operand: Expr, line: int = 0, col: int = 0):
        super().__init__(line, col)
        self.target = target
        self.operand = operand


class Assign(Expr):
    """``target = value`` (or compound ``op=``; ``op`` is None for plain)."""

    __slots__ = ("target", "value", "op")

    def __init__(self, target: Expr, value: Expr, op: Optional[str] = None,
                 line: int = 0, col: int = 0):
        super().__init__(line, col)
        self.target = target
        self.value = value
        self.op = op


class IncDec(Expr):
    """Postfix ``x++`` / ``x--`` (value is the pre-increment value)."""

    __slots__ = ("target", "op")

    def __init__(self, target: Expr, op: str, line: int = 0, col: int = 0):
        super().__init__(line, col)
        self.target = target
        self.op = op


class Conditional(Expr):
    """Ternary ``cond ? then : otherwise``."""

    __slots__ = ("cond", "then", "otherwise")

    def __init__(self, cond: Expr, then: Expr, otherwise: Expr,
                 line: int = 0, col: int = 0):
        super().__init__(line, col)
        self.cond = cond
        self.then = then
        self.otherwise = otherwise


class SizeOf(Expr):
    __slots__ = ("target",)

    def __init__(self, target: Type, line: int = 0, col: int = 0):
        super().__init__(line, col)
        self.target = target


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    __slots__ = ()


class Block(Stmt):
    __slots__ = ("stmts",)

    def __init__(self, stmts: List[Stmt], line: int = 0, col: int = 0):
        super().__init__(line, col)
        self.stmts = stmts


class VarDecl(Stmt):
    __slots__ = ("name", "var_type", "init")

    def __init__(self, name: str, var_type: Type, init: Optional[Expr],
                 line: int = 0, col: int = 0):
        super().__init__(line, col)
        self.name = name
        self.var_type = var_type
        self.init = init


class ExprStmt(Stmt):
    __slots__ = ("expr",)

    def __init__(self, expr: Expr, line: int = 0, col: int = 0):
        super().__init__(line, col)
        self.expr = expr


class If(Stmt):
    __slots__ = ("cond", "then", "otherwise")

    def __init__(self, cond: Expr, then: Stmt, otherwise: Optional[Stmt],
                 line: int = 0, col: int = 0):
        super().__init__(line, col)
        self.cond = cond
        self.then = then
        self.otherwise = otherwise


class While(Stmt):
    __slots__ = ("cond", "body")

    def __init__(self, cond: Expr, body: Stmt, line: int = 0, col: int = 0):
        super().__init__(line, col)
        self.cond = cond
        self.body = body


class DoWhile(Stmt):
    __slots__ = ("body", "cond")

    def __init__(self, body: Stmt, cond: Expr, line: int = 0, col: int = 0):
        super().__init__(line, col)
        self.body = body
        self.cond = cond


class For(Stmt):
    """``for (init; cond; update) body``; ``unrolled`` marks the paper's
    complete-unroll annotation (legal only inside a dynamic region, with
    a run-time constant termination condition).  ``unrolled while (cond)
    body`` parses as the unrolled ``for (; cond;) body``."""

    __slots__ = ("init", "cond", "update", "body", "unrolled")

    def __init__(self, init: Optional[Stmt], cond: Optional[Expr],
                 update: Optional[Expr], body: Stmt, unrolled: bool = False,
                 line: int = 0, col: int = 0):
        super().__init__(line, col)
        self.init = init
        self.cond = cond
        self.update = update
        self.body = body
        self.unrolled = unrolled


class SwitchCase:
    """One ``case`` arm: values is None for ``default``.  Arms fall
    through in source order unless ended by ``break``."""

    __slots__ = ("values", "stmts", "line")

    def __init__(self, values: Optional[List[int]], stmts: List[Stmt],
                 line: int = 0):
        self.values = values
        self.stmts = stmts
        self.line = line


class Switch(Stmt):
    __slots__ = ("expr", "cases")

    def __init__(self, expr: Expr, cases: List[SwitchCase],
                 line: int = 0, col: int = 0):
        super().__init__(line, col)
        self.expr = expr
        self.cases = cases


class Break(Stmt):
    __slots__ = ()


class Continue(Stmt):
    __slots__ = ()


class Return(Stmt):
    __slots__ = ("value",)

    def __init__(self, value: Optional[Expr], line: int = 0, col: int = 0):
        super().__init__(line, col)
        self.value = value


class Goto(Stmt):
    __slots__ = ("label",)

    def __init__(self, label: str, line: int = 0, col: int = 0):
        super().__init__(line, col)
        self.label = label


class LabeledStmt(Stmt):
    __slots__ = ("label", "stmt")

    def __init__(self, label: str, stmt: Stmt, line: int = 0, col: int = 0):
        super().__init__(line, col)
        self.label = label
        self.stmt = stmt


class DynamicRegion(Stmt):
    """``dynamicRegion [key(k1, ...)] (c1, ...) { body }``."""

    __slots__ = ("const_vars", "key_vars", "body")

    def __init__(self, const_vars: List[str], key_vars: List[str], body: Block,
                 line: int = 0, col: int = 0):
        super().__init__(line, col)
        self.const_vars = const_vars
        self.key_vars = key_vars
        self.body = body


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


class Decl(Node):
    __slots__ = ()


class StructDecl(Decl):
    __slots__ = ("name", "fields")

    def __init__(self, name: str, fields: List[Tuple[str, Type]],
                 line: int = 0, col: int = 0):
        super().__init__(line, col)
        self.name = name
        self.fields = fields


class GlobalVar(Decl):
    __slots__ = ("name", "var_type", "init")

    def __init__(self, name: str, var_type: Type, init: Optional[Expr],
                 line: int = 0, col: int = 0):
        super().__init__(line, col)
        self.name = name
        self.var_type = var_type
        self.init = init


class Param:
    __slots__ = ("name", "param_type", "line")

    def __init__(self, name: str, param_type: Type, line: int = 0):
        self.name = name
        self.param_type = param_type
        self.line = line


class FuncDecl(Decl):
    __slots__ = ("name", "ret_type", "params", "body", "pure")

    def __init__(self, name: str, ret_type: Type, params: List[Param],
                 body: Optional[Block], line: int = 0, col: int = 0,
                 pure: bool = False):
        super().__init__(line, col)
        self.name = name
        self.ret_type = ret_type
        self.params = params
        self.body = body
        #: ``pure`` functions (idempotent, side-effect free, non-trapping)
        #: may produce derived run-time constants, like the builtin
        #: ``imax``/``fcos`` family in the paper's rules.
        self.pure = pure


class Program(Node):
    __slots__ = ("decls",)

    def __init__(self, decls: List[Decl]):
        super().__init__()
        self.decls = decls
