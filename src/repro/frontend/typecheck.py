"""Semantic analysis for MiniC.

The checker resolves struct types, alpha-renames shadowed locals so
every function has a flat namespace (simplifying the IR builder),
annotates every expression node with its type, validates annotation
placement (``unrolled`` only inside a ``dynamicRegion``, region
constant/key variables in scope), and records per-function symbol
information consumed by the IR builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from . import astnodes as ast
from .errors import AnnotationError, TypeError_
from .types import (
    FLOAT, INT, VOID, ArrayType, FloatType, IntType, PointerType,
    StructType, Type, VoidType, common_arithmetic_type, decay, is_arithmetic,
    is_integer,
)


@dataclass
class Builtin:
    """A runtime-provided function."""

    name: str
    ret: Type
    params: List[Type]
    pure: bool


#: Builtins available to every MiniC program.  The pure ones
#: (idempotent, side-effect free, non-trapping) may produce derived
#: run-time constants, matching the paper's ``max``/``cos`` examples.
BUILTINS: Dict[str, Builtin] = {
    b.name: b
    for b in [
        Builtin("imax", INT, [INT, INT], pure=True),
        Builtin("imin", INT, [INT, INT], pure=True),
        Builtin("iabs", INT, [INT], pure=True),
        Builtin("fsqrt", FLOAT, [FLOAT], pure=True),
        Builtin("fsin", FLOAT, [FLOAT], pure=True),
        Builtin("fcos", FLOAT, [FLOAT], pure=True),
        Builtin("fexp", FLOAT, [FLOAT], pure=True),
        Builtin("flog", FLOAT, [FLOAT], pure=True),
        Builtin("fpow", FLOAT, [FLOAT, FLOAT], pure=True),
        Builtin("fabs", FLOAT, [FLOAT], pure=True),
        Builtin("ffloor", FLOAT, [FLOAT], pure=True),
        Builtin("fmax", FLOAT, [FLOAT, FLOAT], pure=True),
        Builtin("fmin", FLOAT, [FLOAT, FLOAT], pure=True),
        Builtin("alloc", PointerType(VOID), [INT], pure=False),
        Builtin("print_int", VOID, [INT], pure=False),
        Builtin("print_float", VOID, [FLOAT], pure=False),
    ]
}


@dataclass
class FunctionInfo:
    """Symbol information the IR builder needs for one function."""

    name: str
    ret_type: Type
    #: Renamed parameter names in order, with resolved types.
    params: List[Tuple[str, Type]] = field(default_factory=list)
    #: Flat local symbol table (after alpha-renaming), params included.
    locals: Dict[str, Type] = field(default_factory=dict)
    #: Local names whose address is taken (must live in the frame).
    addr_taken: Set[str] = field(default_factory=set)
    #: Labels defined in the body.
    labels: Set[str] = field(default_factory=set)
    has_region: bool = False
    #: Declared idempotent/side-effect-free/non-trapping: calls may
    #: produce derived run-time constants (checked where checkable).
    pure: bool = False


class CheckedProgram:
    """Result of type checking: the annotated AST plus symbol tables."""

    def __init__(self, program: ast.Program):
        self.program = program
        self.structs: Dict[str, StructType] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.globals: Dict[str, Type] = {}
        self.global_inits: Dict[str, Optional[ast.Expr]] = {}


class _Scope:
    """A lexical scope mapping source names to renamed names."""

    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.names: Dict[str, str] = {}

    def lookup(self, name: str) -> Optional[str]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None


class TypeChecker:
    """Checks one program; entry point is :meth:`check`."""

    def __init__(self, program: ast.Program):
        self._result = CheckedProgram(program)
        self._info: Optional[FunctionInfo] = None
        self._scope: _Scope = _Scope()
        self._rename_counts: Dict[str, int] = {}
        self._loop_depth = 0
        self._switch_depth = 0
        self._region_depth = 0
        self._gotos: List[ast.Goto] = []

    # -- public ------------------------------------------------------------

    def check(self) -> CheckedProgram:
        self._collect_structs()
        self._collect_signatures()
        for decl in self._result.program.decls:
            if isinstance(decl, ast.GlobalVar):
                self._check_global(decl)
        for decl in self._result.program.decls:
            if isinstance(decl, ast.FuncDecl) and decl.body is not None:
                self._check_function(decl)
        return self._result

    # -- declarations --------------------------------------------------------

    def _collect_structs(self) -> None:
        for decl in self._result.program.decls:
            if not isinstance(decl, ast.StructDecl):
                continue
            if decl.name in self._result.structs:
                raise TypeError_("duplicate struct %s" % decl.name,
                                 decl.line, decl.col)
            self._result.structs[decl.name] = StructType(decl.name)
        for decl in self._result.program.decls:
            if not isinstance(decl, ast.StructDecl):
                continue
            struct = self._result.structs[decl.name]
            for fname, ftype in decl.fields:
                resolved = self._resolve(ftype, decl.line, decl.col)
                if resolved.size() == 0:
                    raise TypeError_("field %s has incomplete type" % fname,
                                     decl.line, decl.col)
                struct.add_field(fname, resolved)
            struct.complete = True

    def _collect_signatures(self) -> None:
        defined: Set[str] = set()
        for decl in self._result.program.decls:
            if not isinstance(decl, ast.FuncDecl):
                continue
            if decl.name in BUILTINS:
                raise TypeError_("cannot redefine builtin %s" % decl.name,
                                 decl.line, decl.col)
            if decl.body is not None and decl.name in defined:
                raise TypeError_("duplicate function %s" % decl.name,
                                 decl.line, decl.col)
            if decl.body is None and decl.name in self._result.functions:
                continue  # prototype after definition (or repeat prototype)
            info = FunctionInfo(decl.name,
                                self._resolve(decl.ret_type, decl.line, decl.col))
            for param in decl.params:
                ptype = decay(self._resolve(param.param_type, param.line, 0))
                info.params.append((param.name, ptype))
            previous = self._result.functions.get(decl.name)
            info.pure = decl.pure or (previous is not None and previous.pure)
            self._result.functions[decl.name] = info
            if decl.body is not None:
                defined.add(decl.name)

    def _check_global(self, decl: ast.GlobalVar) -> None:
        gtype = self._resolve(decl.var_type, decl.line, decl.col)
        if decl.name in self._result.globals:
            raise TypeError_("duplicate global %s" % decl.name,
                             decl.line, decl.col)
        self._result.globals[decl.name] = gtype
        if decl.init is not None:
            itype = self._expr(decl.init)
            self._require_convertible(decay(itype), decay(gtype),
                                      decl.line, decl.col)
            if not isinstance(decl.init, (ast.IntLit, ast.FloatLit)):
                raise TypeError_(
                    "global initializer must be a literal constant",
                    decl.line, decl.col)
        self._result.global_inits[decl.name] = decl.init

    # -- functions -----------------------------------------------------------

    def _check_function(self, decl: ast.FuncDecl) -> None:
        info = self._result.functions[decl.name]
        self._info = info
        self._scope = _Scope()
        self._rename_counts = {}
        self._gotos = []
        self._loop_depth = 0
        self._switch_depth = 0
        self._region_depth = 0
        renamed_params: List[Tuple[str, Type]] = []
        for original, (pname, ptype) in zip(decl.params, info.params):
            new_name = self._declare(pname, ptype, original.line, 0)
            renamed_params.append((new_name, ptype))
            original.name = new_name
        info.params = renamed_params
        assert decl.body is not None
        self._collect_labels(decl.body)
        self._stmt(decl.body)
        for goto in self._gotos:
            if goto.label not in info.labels:
                raise TypeError_("goto to undefined label %s" % goto.label,
                                 goto.line, goto.col)
        self._info = None

    def _collect_labels(self, stmt: ast.Stmt) -> None:
        assert self._info is not None
        if isinstance(stmt, ast.LabeledStmt):
            if stmt.label in self._info.labels:
                raise TypeError_("duplicate label %s" % stmt.label,
                                 stmt.line, stmt.col)
            self._info.labels.add(stmt.label)
            self._collect_labels(stmt.stmt)
        elif isinstance(stmt, ast.Block):
            for inner in stmt.stmts:
                self._collect_labels(inner)
        elif isinstance(stmt, ast.If):
            self._collect_labels(stmt.then)
            if stmt.otherwise is not None:
                self._collect_labels(stmt.otherwise)
        elif isinstance(stmt, (ast.While, ast.UnrolledWhile)):
            self._collect_labels(stmt.body)
        elif isinstance(stmt, ast.DoWhile):
            self._collect_labels(stmt.body)
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                self._collect_labels(stmt.init)
            self._collect_labels(stmt.body)
        elif isinstance(stmt, ast.Switch):
            for case in stmt.cases:
                for inner in case.stmts:
                    self._collect_labels(inner)
        elif isinstance(stmt, ast.DynamicRegion):
            self._collect_labels(stmt.body)

    # -- scoping -------------------------------------------------------------

    def _declare(self, name: str, var_type: Type, line: int, col: int) -> str:
        assert self._info is not None
        if name in self._scope.names:
            raise TypeError_("redeclaration of %s" % name, line, col)
        count = self._rename_counts.get(name, 0)
        self._rename_counts[name] = count + 1
        new_name = name if count == 0 else "%s$%d" % (name, count)
        self._scope.names[name] = new_name
        self._info.locals[new_name] = var_type
        return new_name

    def _lookup_var(self, name: str, line: int, col: int) -> Tuple[str, Type, bool]:
        """Resolve ``name``; returns (resolved name, type, is_global)."""
        renamed = self._scope.lookup(name)
        if renamed is not None:
            assert self._info is not None
            return renamed, self._info.locals[renamed], False
        if name in self._result.globals:
            return name, self._result.globals[name], True
        raise TypeError_("undeclared identifier %s" % name, line, col)

    # -- statements ------------------------------------------------------------

    def _stmt(self, stmt: ast.Stmt) -> None:
        assert self._info is not None
        if isinstance(stmt, ast.Block):
            saved = self._scope
            self._scope = _Scope(saved)
            for inner in stmt.stmts:
                self._stmt(inner)
            self._scope = saved
        elif isinstance(stmt, ast.VarDecl):
            var_type = self._resolve(stmt.var_type, stmt.line, stmt.col)
            if isinstance(var_type, VoidType):
                raise TypeError_("variable %s has void type" % stmt.name,
                                 stmt.line, stmt.col)
            if stmt.init is not None:
                itype = self._expr(stmt.init)
                self._require_convertible(decay(itype), decay(var_type),
                                          stmt.line, stmt.col)
            stmt.name = self._declare(stmt.name, var_type, stmt.line, stmt.col)
        elif isinstance(stmt, ast.ExprStmt):
            self._expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self._require_scalar(self._expr(stmt.cond), stmt.line, stmt.col)
            self._stmt(stmt.then)
            if stmt.otherwise is not None:
                self._stmt(stmt.otherwise)
        elif isinstance(stmt, ast.While):
            self._require_scalar(self._expr(stmt.cond), stmt.line, stmt.col)
            self._loop_depth += 1
            self._stmt(stmt.body)
            self._loop_depth -= 1
        elif isinstance(stmt, ast.DoWhile):
            self._loop_depth += 1
            self._stmt(stmt.body)
            self._loop_depth -= 1
            self._require_scalar(self._expr(stmt.cond), stmt.line, stmt.col)
        elif isinstance(stmt, ast.For):
            if stmt.unrolled and self._region_depth == 0:
                raise AnnotationError(
                    "'unrolled' loop outside a dynamicRegion",
                    stmt.line, stmt.col)
            saved = self._scope
            self._scope = _Scope(saved)
            if stmt.init is not None:
                self._stmt(stmt.init)
            if stmt.cond is not None:
                self._require_scalar(self._expr(stmt.cond), stmt.line, stmt.col)
            if stmt.update is not None:
                self._expr(stmt.update)
            self._loop_depth += 1
            self._stmt(stmt.body)
            self._loop_depth -= 1
            self._scope = saved
        elif isinstance(stmt, ast.UnrolledWhile):
            if self._region_depth == 0:
                raise AnnotationError(
                    "'unrolled' loop outside a dynamicRegion",
                    stmt.line, stmt.col)
            self._require_scalar(self._expr(stmt.cond), stmt.line, stmt.col)
            self._loop_depth += 1
            self._stmt(stmt.body)
            self._loop_depth -= 1
        elif isinstance(stmt, ast.Switch):
            stype = decay(self._expr(stmt.expr))
            if not is_integer(stype):
                raise TypeError_("switch value must be an integer",
                                 stmt.line, stmt.col)
            seen: Set[int] = set()
            defaults = 0
            for case in stmt.cases:
                if case.values is None:
                    defaults += 1
                else:
                    for value in case.values:
                        if value in seen:
                            raise TypeError_("duplicate case %d" % value,
                                             stmt.line, stmt.col)
                        seen.add(value)
            if defaults > 1:
                raise TypeError_("multiple default cases", stmt.line, stmt.col)
            self._switch_depth += 1
            saved = self._scope
            self._scope = _Scope(saved)
            for case in stmt.cases:
                for inner in case.stmts:
                    self._stmt(inner)
            self._scope = saved
            self._switch_depth -= 1
        elif isinstance(stmt, ast.Break):
            if self._loop_depth == 0 and self._switch_depth == 0:
                raise TypeError_("break outside loop or switch",
                                 stmt.line, stmt.col)
        elif isinstance(stmt, ast.Continue):
            if self._loop_depth == 0:
                raise TypeError_("continue outside loop", stmt.line, stmt.col)
        elif isinstance(stmt, ast.Return):
            ret = self._info.ret_type
            if stmt.value is None:
                if not isinstance(ret, VoidType):
                    raise TypeError_("return without value in non-void function",
                                     stmt.line, stmt.col)
            else:
                if isinstance(ret, VoidType):
                    raise TypeError_("return with value in void function",
                                     stmt.line, stmt.col)
                vtype = decay(self._expr(stmt.value))
                self._require_convertible(vtype, decay(ret),
                                          stmt.line, stmt.col)
        elif isinstance(stmt, ast.Goto):
            self._gotos.append(stmt)
        elif isinstance(stmt, ast.LabeledStmt):
            self._stmt(stmt.stmt)
        elif isinstance(stmt, ast.DynamicRegion):
            self._check_region(stmt)
        else:
            raise TypeError_("unknown statement %r" % stmt, stmt.line, stmt.col)

    def _check_region(self, stmt: ast.DynamicRegion) -> None:
        assert self._info is not None
        if self._region_depth > 0:
            raise AnnotationError("nested dynamicRegion", stmt.line, stmt.col)
        if self._loop_depth > 0 or self._switch_depth > 0:
            raise AnnotationError(
                "dynamicRegion inside a loop or switch is not supported",
                stmt.line, stmt.col)
        resolved_consts: List[str] = []
        for name in stmt.const_vars:
            renamed, vtype, is_global = self._lookup_var(name, stmt.line, stmt.col)
            if is_global:
                raise AnnotationError(
                    "region constant %s must be a local variable" % name,
                    stmt.line, stmt.col)
            if not decay(vtype).is_scalar():
                raise AnnotationError(
                    "region constant %s must have scalar type" % name,
                    stmt.line, stmt.col)
            resolved_consts.append(renamed)
        resolved_keys: List[str] = []
        for name in stmt.key_vars:
            renamed, vtype, is_global = self._lookup_var(name, stmt.line, stmt.col)
            if is_global:
                raise AnnotationError(
                    "region key %s must be a local variable" % name,
                    stmt.line, stmt.col)
            if not decay(vtype).is_scalar():
                raise AnnotationError(
                    "region key %s must have scalar type" % name,
                    stmt.line, stmt.col)
            resolved_keys.append(renamed)
        stmt.const_vars = resolved_consts
        stmt.key_vars = resolved_keys
        self._info.has_region = True
        self._region_depth += 1
        self._stmt(stmt.body)
        self._region_depth -= 1

    # -- expressions -------------------------------------------------------------

    def _expr(self, expr: ast.Expr) -> Type:
        expr.type = self._expr_inner(expr)
        return expr.type

    def _expr_inner(self, expr: ast.Expr) -> Type:
        if isinstance(expr, ast.IntLit):
            return INT
        if isinstance(expr, ast.FloatLit):
            return FLOAT
        if isinstance(expr, ast.Var):
            renamed, vtype, _ = self._lookup_var(expr.name, expr.line, expr.col)
            expr.name = renamed
            return vtype
        if isinstance(expr, ast.Binary):
            # The operands are checked here rather than in _binary, so
            # a level of a long chain such as ``a + b + c`` costs one
            # frame less.
            return self._binary(expr, decay(self._expr(expr.lhs)),
                                decay(self._expr(expr.rhs)))
        if isinstance(expr, ast.Unary):
            return self._unary(expr)
        if isinstance(expr, ast.Deref):
            ptype = decay(self._expr(expr.pointer))
            if not isinstance(ptype, PointerType):
                raise TypeError_("cannot dereference non-pointer",
                                 expr.line, expr.col)
            if isinstance(ptype.pointee, VoidType):
                raise TypeError_("cannot dereference void*", expr.line, expr.col)
            return ptype.pointee
        if isinstance(expr, ast.AddrOf):
            otype = self._lvalue(expr.operand)
            operand = expr.operand
            info = self._info
            # A local whose address is taken must live in the frame.
            if info is not None and isinstance(operand, ast.Var) \
                    and operand.name in info.locals:
                info.addr_taken.add(operand.name)
            return PointerType(otype)
        if isinstance(expr, ast.Field):
            return self._field(expr)
        if isinstance(expr, ast.Index):
            btype = decay(self._expr(expr.base))
            if not isinstance(btype, PointerType):
                raise TypeError_("indexing a non-array/pointer",
                                 expr.line, expr.col)
            itype = decay(self._expr(expr.index))
            if not is_integer(itype):
                raise TypeError_("array index must be an integer",
                                 expr.line, expr.col)
            return btype.pointee
        if isinstance(expr, ast.Call):
            return self._call(expr)
        if isinstance(expr, ast.Cast):
            target = self._resolve(expr.target, expr.line, expr.col)
            source = decay(self._expr(expr.operand))
            if not target.is_scalar() or not source.is_scalar():
                raise TypeError_("cast requires scalar types",
                                 expr.line, expr.col)
            if isinstance(source, FloatType) and isinstance(target, PointerType):
                raise TypeError_("cannot cast float to pointer",
                                 expr.line, expr.col)
            if isinstance(source, PointerType) and isinstance(target, FloatType):
                raise TypeError_("cannot cast pointer to float",
                                 expr.line, expr.col)
            expr.target = target
            return target
        if isinstance(expr, ast.Assign):
            return self._assign(expr)
        if isinstance(expr, ast.IncDec):
            ttype = decay(self._lvalue(expr.target))
            if not (is_integer(ttype) or isinstance(ttype, PointerType)):
                raise TypeError_("%s requires an integer or pointer" % expr.op,
                                 expr.line, expr.col)
            return ttype
        if isinstance(expr, ast.Conditional):
            self._require_scalar(self._expr(expr.cond), expr.line, expr.col)
            then = decay(self._expr(expr.then))
            other = decay(self._expr(expr.otherwise))
            if then == other:
                return then
            common = common_arithmetic_type(then, other)
            if common is None:
                raise TypeError_("incompatible conditional branches",
                                 expr.line, expr.col)
            return common
        if isinstance(expr, ast.SizeOf):
            expr.target = self._resolve(expr.target, expr.line, expr.col)
            return INT
        raise TypeError_("unknown expression %r" % expr, expr.line, expr.col)

    def _lvalue(self, expr: ast.Expr) -> Type:
        """Check an lvalue expression; returns its (non-decayed) type."""
        if isinstance(expr, (ast.Var, ast.Deref, ast.Index, ast.Field)):
            return self._expr(expr)
        raise TypeError_("expression is not an lvalue", expr.line, expr.col)

    def _binary(self, expr: ast.Binary, lhs: Type, rhs: Type) -> Type:
        """The type of ``expr``, given its operands' decayed types."""
        op = expr.op
        if op in ("&&", "||"):
            self._require_scalar(lhs, expr.line, expr.col)
            self._require_scalar(rhs, expr.line, expr.col)
            return INT
        if op in ("==", "!=", "<", "<=", ">", ">="):
            if isinstance(lhs, PointerType) and isinstance(rhs, PointerType):
                return INT
            if isinstance(lhs, PointerType) and is_integer(rhs):
                return INT  # comparisons against 0 (NULL)
            if is_integer(lhs) and isinstance(rhs, PointerType):
                return INT
            if is_arithmetic(lhs) and is_arithmetic(rhs):
                return INT
            raise TypeError_("invalid comparison operands", expr.line, expr.col)
        if op in ("+", "-"):
            if isinstance(lhs, PointerType) and is_integer(rhs):
                return lhs
            if op == "+" and is_integer(lhs) and isinstance(rhs, PointerType):
                return rhs
            if op == "-" and isinstance(lhs, PointerType) \
                    and isinstance(rhs, PointerType):
                if lhs != rhs:
                    raise TypeError_("subtracting incompatible pointers",
                                     expr.line, expr.col)
                return INT
        if op in ("%", "<<", ">>", "&", "|", "^"):
            if not (is_integer(lhs) and is_integer(rhs)):
                raise TypeError_("operator %s requires integers" % op,
                                 expr.line, expr.col)
            if op in ("<<", ">>"):
                return lhs
            common = common_arithmetic_type(lhs, rhs)
            assert common is not None
            return common
        common = common_arithmetic_type(lhs, rhs)
        if common is None:
            raise TypeError_("invalid operands to %s" % op, expr.line, expr.col)
        return common

    def _unary(self, expr: ast.Unary) -> Type:
        otype = decay(self._expr(expr.operand))
        if expr.op == "-":
            if not is_arithmetic(otype):
                raise TypeError_("unary - requires arithmetic type",
                                 expr.line, expr.col)
            return otype
        if expr.op == "!":
            self._require_scalar(otype, expr.line, expr.col)
            return INT
        if expr.op == "~":
            if not is_integer(otype):
                raise TypeError_("~ requires an integer", expr.line, expr.col)
            return otype
        raise TypeError_("unknown unary operator %s" % expr.op,
                         expr.line, expr.col)

    def _field(self, expr: ast.Field) -> Type:
        base_type = self._expr(expr.base)
        if expr.arrow:
            base_type = decay(base_type)
            if not isinstance(base_type, PointerType) or \
                    not isinstance(base_type.pointee, StructType):
                raise TypeError_("-> requires a pointer to struct",
                                 expr.line, expr.col)
            struct = self._canonical_struct(base_type.pointee, expr.line,
                                            expr.col)
        else:
            if not isinstance(base_type, StructType):
                raise TypeError_(". requires a struct", expr.line, expr.col)
            struct = self._canonical_struct(base_type, expr.line, expr.col)
        try:
            _, ftype = struct.field(expr.name)
        except KeyError as exc:
            raise TypeError_(str(exc), expr.line, expr.col) from exc
        return ftype

    def _call(self, expr: ast.Call) -> Type:
        builtin = BUILTINS.get(expr.name)
        if builtin is not None:
            ret, params = builtin.ret, builtin.params
        else:
            info = self._result.functions.get(expr.name)
            if info is None:
                raise TypeError_("call to undefined function %s" % expr.name,
                                 expr.line, expr.col)
            ret, params = info.ret_type, [t for _, t in info.params]
        if len(expr.args) != len(params):
            raise TypeError_(
                "%s expects %d arguments, got %d"
                % (expr.name, len(params), len(expr.args)),
                expr.line, expr.col)
        for arg, ptype in zip(expr.args, params):
            atype = decay(self._expr(arg))
            self._require_convertible(atype, decay(ptype), arg.line, arg.col)
        return ret

    def _assign(self, expr: ast.Assign) -> Type:
        target_type = decay(self._lvalue(expr.target))
        value_type = decay(self._expr(expr.value))
        if expr.op is not None:
            fake = ast.Binary(expr.op, expr.target, expr.value,
                              expr.line, expr.col)
            fake.lhs.type = expr.target.type
            fake.rhs.type = expr.value.type
            self._binary_check_only(fake, target_type, value_type)
        self._require_convertible(value_type, target_type, expr.line, expr.col)
        return target_type

    def _binary_check_only(self, expr: ast.Binary, lhs: Type, rhs: Type) -> None:
        if expr.op in ("%", "<<", ">>", "&", "|", "^"):
            if not (is_integer(lhs) and is_integer(rhs)):
                raise TypeError_("operator %s= requires integers" % expr.op,
                                 expr.line, expr.col)
        elif isinstance(lhs, PointerType):
            if expr.op not in ("+", "-") or not is_integer(rhs):
                raise TypeError_("invalid pointer compound assignment",
                                 expr.line, expr.col)
        elif common_arithmetic_type(lhs, rhs) is None:
            raise TypeError_("invalid operands to %s=" % expr.op,
                             expr.line, expr.col)

    # -- helpers -----------------------------------------------------------------

    def _canonical_struct(self, struct: StructType, line: int,
                          col: int) -> StructType:
        canonical = self._result.structs.get(struct.name)
        if canonical is None:
            raise TypeError_("unknown struct %s" % struct.name, line, col)
        return canonical

    def _resolve(self, t: Type, line: int, col: int) -> Type:
        if isinstance(t, StructType):
            return self._canonical_struct(t, line, col)
        if isinstance(t, PointerType):
            return PointerType(self._resolve(t.pointee, line, col))
        if isinstance(t, ArrayType):
            return ArrayType(self._resolve(t.elem, line, col), t.length)
        return t

    def _require_scalar(self, t: Type, line: int, col: int) -> None:
        if not decay(t).is_scalar():
            raise TypeError_("expected a scalar value", line, col)

    def _require_convertible(self, source: Type, target: Type,
                             line: int, col: int) -> None:
        if source == target:
            return
        if is_arithmetic(source) and is_arithmetic(target):
            if isinstance(source, FloatType) and isinstance(target, IntType):
                raise TypeError_(
                    "implicit float-to-int conversion; use a cast", line, col)
            return
        if isinstance(source, PointerType) and isinstance(target, PointerType):
            return  # lenient, like void* conversions everywhere
        if is_integer(source) and isinstance(target, PointerType):
            return  # permits NULL-style literals
        raise TypeError_("cannot convert %r to %r" % (source, target),
                         line, col)


def check(program: ast.Program) -> CheckedProgram:
    """Type-check ``program`` in place; returns symbol information."""
    return TypeChecker(program).check()
