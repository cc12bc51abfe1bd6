"""Lowering from the MiniC AST to the three-address CFG IR.

Scalar locals become virtual registers; arrays, structs and
address-taken locals live in the function's stack frame.  Dynamic
regions and ``unrolled`` loops are recorded as metadata
(:class:`~repro.ir.cfg.DynamicRegionInfo`) on the function for the
static compiler's analyses.

Every loop is built with a dedicated *latch* block carrying the single
back edge, which is what the region splitter and stitcher expect of
unrolled loops.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, Union

from ..frontend import astnodes as ast
from ..frontend.errors import AnnotationError, CompileError
from ..frontend.typecheck import BUILTINS, CheckedProgram, FunctionInfo
from ..frontend.types import (
    ArrayType, FloatType, IntType, PointerType, StructType, Type, VoidType,
    decay,
)
from .cfg import (
    BasicBlock, DynamicRegionInfo, Function, GlobalData, Module,
    UnrolledLoopInfo,
)
from .instructions import (
    Assign, BinOp, Call, CondBr, Instr, Jump, Load, Return, Store, Switch,
    UnOp,
)
from .values import FloatConst, GlobalAddr, IntConst, Temp, Value


class FrameAddr(Instr):
    """``dst := &frame[offset]`` -- address of a stack-frame slot.

    Defined here (rather than in :mod:`repro.ir.instructions`) because
    only the builder creates it.  Frame addresses are *not* run-time
    constants: a dynamic region's stitched code is shared across
    activations of its enclosing function, and the frame moves.
    """

    __slots__ = ("dst", "offset")

    def __init__(self, dst: Temp, offset: int):
        self.dst = dst
        self.offset = offset

    def defs(self) -> Optional[Temp]:
        return self.dst

    def __repr__(self) -> str:
        return "%r := frameaddr(%d)" % (self.dst, self.offset)


class _MemLV:
    """A memory lvalue: address value plus access attributes."""

    __slots__ = ("addr", "is_float", "dynamic")

    def __init__(self, addr: Value, is_float: bool, dynamic: bool = False):
        self.addr = addr
        self.is_float = is_float
        self.dynamic = dynamic


class _TempLV:
    """A register lvalue."""

    __slots__ = ("temp",)

    def __init__(self, temp: Temp):
        self.temp = temp


_LValue = Union[_MemLV, _TempLV]


def build_module(checked: CheckedProgram, name: str = "module") -> Module:
    """Lower a checked program to an IR module."""
    module = Module(name)
    for gname, gtype in checked.globals.items():
        init = checked.global_inits.get(gname)
        values: List[object] = [0] * gtype.size()
        if init is not None:
            if isinstance(init, ast.IntLit):
                values[0] = (float(init.value)
                             if isinstance(gtype, FloatType) else init.value)
            elif isinstance(init, ast.FloatLit):
                values[0] = init.value
        if isinstance(gtype, FloatType) and init is None:
            values = [0.0]
        module.add_global(GlobalData(gname, values))
    for decl in checked.program.decls:
        if isinstance(decl, ast.FuncDecl) and decl.body is not None:
            builder = _FunctionBuilder(checked, decl)
            func = module.add_function(builder.build())
            if checked.functions[decl.name].pure:
                _validate_pure(func)
    module.verify()
    return module


def _validate_pure(func: Function) -> None:
    """Enforce the checkable part of the ``pure`` contract.

    A pure function may be hoisted into a region's set-up code and
    executed speculatively, so it must not store to memory, call
    anything impure, or contain operators that can trap.  (Whether the
    memory it *reads* is invariant remains the programmer's assertion,
    exactly as for region constants.)
    """
    from ..frontend.errors import AnnotationError
    from .instructions import TRAPPING_OPS

    for block in func.blocks.values():
        for instr in block.all_instrs():
            if isinstance(instr, Store):
                raise AnnotationError(
                    "pure function %s contains a store" % func.name)
            if isinstance(instr, Call) and not instr.pure:
                raise AnnotationError(
                    "pure function %s calls impure %s"
                    % (func.name, instr.callee))
            op = getattr(instr, "op", None)
            if op in TRAPPING_OPS:
                raise AnnotationError(
                    "pure function %s contains trapping operator %s "
                    "(division/modulus may trap and cannot be hoisted "
                    "into set-up code)" % (func.name, op))


class _FunctionBuilder:
    """Lowers one function body."""

    def __init__(self, checked: CheckedProgram, decl: ast.FuncDecl):
        self._checked = checked
        self._decl = decl
        self._info: FunctionInfo = checked.functions[decl.name]
        self._func = Function(decl.name, [])
        self._block: Optional[BasicBlock] = None
        #: scalar local name -> Temp
        self._var_temps: Dict[str, Temp] = {}
        #: frame-resident local name -> word offset
        self._frame: Dict[str, int] = {}
        self._frame_size = 0
        self._break_stack: List[str] = []
        self._continue_stack: List[str] = []
        self._label_blocks: Dict[str, BasicBlock] = {}
        self._region: Optional[DynamicRegionInfo] = None
        self._region_counter = 0
        self._loop_counter = 0

    # -- infrastructure -----------------------------------------------------

    def _kind_of(self, t: Type) -> str:
        return "float" if isinstance(decay(t), FloatType) else "int"

    def _emit(self, instr: Instr) -> None:
        assert self._block is not None
        if self._block.terminator is None:
            self._block.append(instr)
        # else: unreachable code after return/goto -- silently dropped

    def _new_block(self, prefix: str = "B") -> BasicBlock:
        block = self._func.new_block(prefix)
        if self._region is not None:
            self._region.blocks.add(block.name)
        return block

    def _switch_to(self, block: BasicBlock) -> None:
        self._block = block

    def _jump_to(self, block: BasicBlock) -> None:
        assert self._block is not None
        if self._block.terminator is None:
            self._block.append(Jump(block.name))
        self._switch_to(block)

    def _alloc_frame(self, name: str, size: int) -> int:
        offset = self._frame_size
        self._frame[name] = offset
        self._frame_size += size
        return offset

    # -- entry point ----------------------------------------------------------

    def build(self) -> Function:
        entry = self._new_block("entry")
        self._switch_to(entry)
        for pname, ptype in self._info.params:
            kind = self._kind_of(ptype)
            param_temp = Temp("arg_" + pname)
            self._func.temp_types[param_temp.name] = kind
            self._func.params.append(param_temp)
            if pname in self._info.addr_taken:
                offset = self._alloc_frame(pname, 1)
                addr = self._func.new_temp("int")
                self._emit(FrameAddr(addr, offset))
                self._emit(Store(addr, param_temp,
                                 is_float=(kind == "float")))
            else:
                var = Temp(pname)
                self._func.temp_types[var.name] = kind
                self._var_temps[pname] = var
                self._emit(Assign(var, param_temp))
        assert self._decl.body is not None
        self._stmt(self._decl.body)
        assert self._block is not None
        if self._block.terminator is None:
            if isinstance(self._info.ret_type, VoidType):
                self._block.append(Return(None))
            else:
                self._block.append(Return(IntConst(0)))
        self._func.frame_slots = dict(self._frame)
        self._func.frame_size = self._frame_size
        self._func.remove_unreachable_blocks()
        # Seal any label blocks that were declared but never defined via
        # LabeledStmt (cannot happen after typecheck, but stay safe).
        for block in self._func.blocks.values():
            if block.terminator is None:
                block.append(Return(None if isinstance(
                    self._info.ret_type, VoidType) else IntConst(0)))
        return self._func

    # -- statements -------------------------------------------------------------

    def _stmt(self, stmt: ast.Stmt) -> None:
        # Blocks and labels recurse here directly, and the table calls a
        # statement's method from this frame, so each nesting link costs
        # no more frames than the parser's cost table (beside
        # _MAX_DEPTH in frontend/parser.py) charges for it.
        cls = stmt.__class__
        if cls is ast.Block:
            for inner in stmt.stmts:
                self._stmt(inner)
            return
        lower = _STMT_LOWERERS.get(cls)
        if lower is not None:
            lower(self, stmt)
        elif cls is ast.ExprStmt:
            self._expr(stmt.expr)
        elif cls is ast.Break:
            self._jump_out(self._break_stack, "break", stmt)
        elif cls is ast.Continue:
            self._jump_out(self._continue_stack, "continue", stmt)
        elif cls is ast.Goto:
            target = self._label_block(stmt.label)
            assert self._block is not None
            if self._block.terminator is None:
                self._block.append(Jump(target.name))
            self._switch_to(self._new_block("dead"))
        elif cls is ast.LabeledStmt:
            target = self._label_block(stmt.label)
            self._jump_to(target)
            self._stmt(stmt.stmt)
        else:
            raise CompileError("cannot lower statement %r" % stmt,
                               stmt.line, stmt.col)

    def _label_block(self, label: str) -> BasicBlock:
        if label not in self._label_blocks:
            block = self._new_block("L_" + label)
            self._label_blocks[label] = block
        return self._label_blocks[label]

    def _jump_out(self, stack: List[str], what: str, stmt: ast.Stmt) -> None:
        if not stack:
            raise CompileError("%s outside loop" % what, stmt.line, stmt.col)
        assert self._block is not None
        if self._block.terminator is None:
            self._block.append(Jump(stack[-1]))
        self._switch_to(self._new_block("dead"))

    def _var_decl(self, stmt: ast.VarDecl) -> None:
        var_type = stmt.var_type
        name = stmt.name
        if isinstance(var_type, (ArrayType, StructType)) \
                or name in self._info.addr_taken:
            self._alloc_frame(name, var_type.size())
            if stmt.init is not None:
                if not decay(var_type).is_scalar():
                    raise CompileError(
                        "aggregate initializers are not supported",
                        stmt.line, stmt.col)
                value = self._expr_as(stmt.init, decay(var_type))
                addr = self._frame_addr(name)
                self._emit(Store(addr, value,
                                 is_float=self._kind_of(var_type) == "float"))
            return
        kind = self._kind_of(var_type)
        var = Temp(name)
        self._func.temp_types[name] = kind
        self._var_temps[name] = var
        if stmt.init is not None:
            value = self._expr_as(stmt.init, decay(var_type))
            self._emit(Assign(var, value))
        else:
            zero: Value = FloatConst(0.0) if kind == "float" else IntConst(0)
            self._emit(Assign(var, zero))

    def _frame_addr(self, name: str) -> Temp:
        addr = self._func.new_temp("int")
        self._emit(FrameAddr(addr, self._frame[name]))
        return addr

    def _if(self, stmt: ast.If) -> None:
        then_block = self._new_block("then")
        join_block = self._new_block("join")
        else_block = self._new_block("else") if stmt.otherwise else join_block
        self._cond(stmt.cond, then_block, else_block)
        self._switch_to(then_block)
        self._stmt(stmt.then)
        assert self._block is not None
        if self._block.terminator is None:
            self._block.append(Jump(join_block.name))
        if stmt.otherwise is not None:
            self._switch_to(else_block)
            self._stmt(stmt.otherwise)
            assert self._block is not None
            if self._block.terminator is None:
                self._block.append(Jump(join_block.name))
        self._switch_to(join_block)

    def _while(self, stmt: ast.While) -> None:
        header = self._new_block("while")
        body = self._new_block("body")
        latch = self._new_block("latch")
        exit_block = self._new_block("endwhile")
        self._jump_to(header)
        self._cond(stmt.cond, body, exit_block)
        self._break_stack.append(exit_block.name)
        self._continue_stack.append(latch.name)
        self._switch_to(body)
        self._stmt(stmt.body)
        assert self._block is not None
        if self._block.terminator is None:
            self._block.append(Jump(latch.name))
        latch.append(Jump(header.name))
        self._break_stack.pop()
        self._continue_stack.pop()
        self._switch_to(exit_block)

    def _do_while(self, stmt: ast.DoWhile) -> None:
        body = self._new_block("dobody")
        latch = self._new_block("latch")
        exit_block = self._new_block("enddo")
        self._jump_to(body)
        self._break_stack.append(exit_block.name)
        self._continue_stack.append(latch.name)
        self._stmt(stmt.body)
        assert self._block is not None
        if self._block.terminator is None:
            self._block.append(Jump(latch.name))
        self._switch_to(latch)
        self._cond(stmt.cond, body, exit_block)
        self._break_stack.pop()
        self._continue_stack.pop()
        self._switch_to(exit_block)

    def _for(self, stmt: ast.For) -> None:
        if stmt.init is not None:
            self._stmt(stmt.init)
        assert self._block is not None
        entry_pred = self._block.name
        header = self._new_block("for")
        body = self._new_block("body")
        latch = self._new_block("latch")
        exit_block = self._new_block("endfor")
        self._jump_to(header)
        if stmt.cond is not None:
            self._cond(stmt.cond, body, exit_block)
        else:
            assert self._block is not None
            self._block.append(Jump(body.name))
        loop_info: Optional[UnrolledLoopInfo] = None
        if stmt.unrolled:
            loop_info = self._begin_unrolled(stmt, header, entry_pred, latch)
        self._break_stack.append(exit_block.name)
        self._continue_stack.append(latch.name)
        self._switch_to(body)
        self._stmt(stmt.body)
        assert self._block is not None
        if self._block.terminator is None:
            self._block.append(Jump(latch.name))
        self._switch_to(latch)
        if stmt.update is not None:
            self._expr(stmt.update)
        assert self._block is not None
        if self._block.terminator is None:
            self._block.append(Jump(header.name))
        self._break_stack.pop()
        self._continue_stack.pop()
        if loop_info is not None:
            self._end_unrolled(loop_info, exit_block)
        self._switch_to(exit_block)

    def _begin_unrolled(self, stmt: ast.For, header: BasicBlock,
                        entry_pred: str, latch: BasicBlock) -> UnrolledLoopInfo:
        if self._region is None:
            raise AnnotationError("'unrolled' loop outside a dynamicRegion",
                                  stmt.line, stmt.col)
        self._loop_counter += 1
        info = UnrolledLoopInfo(
            loop_id=self._loop_counter,
            header=header.name,
            entry_pred=entry_pred,
            latch=latch.name,
        )
        info.body.add(header.name)
        info.body.add(latch.name)
        self._region.unrolled_loops.append(info)
        return info

    def _end_unrolled(self, info: UnrolledLoopInfo,
                      exit_block: BasicBlock) -> None:
        assert self._region is not None
        # Loop body = blocks created between begin and end, minus the exit.
        # Compute from CFG: blocks reachable from header without passing
        # through the exit block, intersected with region blocks created
        # after the header.  Simpler and robust: collect blocks that can
        # reach the latch from the header.
        info.body |= self._blocks_between(info.header, info.latch)
        info.body.discard(exit_block.name)

    def _blocks_between(self, header: str, latch: str) -> Set[str]:
        """Natural-loop body: blocks on paths header ->* latch."""
        preds: Dict[str, List[str]] = {}
        for name, block in self._func.blocks.items():
            for succ in block.successors():
                preds.setdefault(succ, []).append(name)
        body = {header, latch}
        work = [latch]
        while work:
            current = work.pop()
            if current == header:
                continue
            for pred in preds.get(current, []):
                if pred not in body:
                    body.add(pred)
                    work.append(pred)
        return body

    def _switch(self, stmt: ast.Switch) -> None:
        value = self._expr_value(stmt.expr)
        exit_block = self._new_block("endswitch")
        arm_blocks: List[BasicBlock] = [
            self._new_block("case") for _ in stmt.cases
        ]
        cases: List[Tuple[int, str]] = []
        default_target = exit_block.name
        for case, block in zip(stmt.cases, arm_blocks):
            if case.values is None:
                default_target = block.name
            else:
                for v in case.values:
                    cases.append((v, block.name))
        assert self._block is not None
        self._block.append(Switch(value, cases, default_target))
        self._break_stack.append(exit_block.name)
        for i, (case, block) in enumerate(zip(stmt.cases, arm_blocks)):
            self._switch_to(block)
            for inner in case.stmts:
                self._stmt(inner)
            assert self._block is not None
            if self._block.terminator is None:
                # fall through to the next arm, or out of the switch
                next_name = (arm_blocks[i + 1].name
                             if i + 1 < len(arm_blocks) else exit_block.name)
                self._block.append(Jump(next_name))
        self._break_stack.pop()
        self._switch_to(exit_block)

    def _return(self, stmt: ast.Return) -> None:
        assert self._block is not None
        if stmt.value is None:
            if self._block.terminator is None:
                self._block.append(Return(None))
        else:
            value = self._expr_as(stmt.value, decay(self._info.ret_type))
            if self._block.terminator is None:
                self._block.append(Return(value))
        self._switch_to(self._new_block("dead"))

    def _dynamic_region(self, stmt: ast.DynamicRegion) -> None:
        for name in stmt.const_vars + stmt.key_vars:
            if name not in self._var_temps:
                raise AnnotationError(
                    "region variable %s must be a register-resident scalar "
                    "(its address is taken)" % name, stmt.line, stmt.col)
        self._region_counter += 1
        region = DynamicRegionInfo(
            region_id=self._region_counter,
            const_vars=list(stmt.const_vars),
            key_vars=list(stmt.key_vars),
            entry="",
            exit="",
        )
        self._func.regions.append(region)
        entry = self._func.new_block("region%d_entry" % region.region_id)
        region.entry = entry.name
        region.blocks.add(entry.name)
        self._jump_to(entry)
        self._region = region
        self._stmt(stmt.body)
        self._region = None
        exit_block = self._func.new_block("region%d_exit" % region.region_id)
        region.exit = exit_block.name
        assert self._block is not None
        if self._block.terminator is None:
            self._block.append(Jump(exit_block.name))
        self._switch_to(exit_block)

    # -- conditions ----------------------------------------------------------

    def _cond(self, expr: ast.Expr, true_block: BasicBlock,
              false_block: BasicBlock) -> None:
        """Lower ``expr`` as a branch condition with short-circuiting."""
        if isinstance(expr, ast.Binary) and expr.op == "&&":
            middle = self._new_block("and")
            self._cond(expr.lhs, middle, false_block)
            self._switch_to(middle)
            self._cond(expr.rhs, true_block, false_block)
            return
        if isinstance(expr, ast.Binary) and expr.op == "||":
            middle = self._new_block("or")
            self._cond(expr.lhs, true_block, middle)
            self._switch_to(middle)
            self._cond(expr.rhs, true_block, false_block)
            return
        if isinstance(expr, ast.Unary) and expr.op == "!":
            self._cond(expr.operand, false_block, true_block)
            return
        value = self._expr_value(expr)
        assert self._block is not None
        if self._block.terminator is None:
            self._block.append(CondBr(value, true_block.name, false_block.name))

    # -- expressions -----------------------------------------------------------

    def _expr(self, expr: ast.Expr) -> Value:
        """Lower an expression for its value (arrays decay to addresses)."""
        return self._expr_value(expr)

    def _expr_as(self, expr: ast.Expr, target: Type) -> Value:
        """Lower and convert to ``target`` (int->float only)."""
        value = self._expr_value(expr)
        source = decay(self._typeof(expr))
        if isinstance(target, FloatType) and not isinstance(source, FloatType):
            return self._to_float(value)
        return value

    def _to_float(self, value: Value) -> Value:
        if isinstance(value, IntConst):
            return FloatConst(float(value.value))
        if isinstance(value, FloatConst):
            return value
        dst = self._func.new_temp("float")
        self._emit(UnOp(dst, "itof", value))
        return dst

    def _typeof(self, expr: ast.Expr) -> Type:
        if expr.type is None:
            raise CompileError("expression was not type-checked",
                               expr.line, expr.col)
        return expr.type

    def _expr_value(self, expr: ast.Expr) -> Value:
        # As in _stmt, the table calls an operator's method from this
        # frame: no frame is added per nesting link.
        cls = expr.__class__
        if cls is ast.IntLit:
            return IntConst(expr.value)
        lower = _EXPR_LOWERERS.get(cls)
        if lower is not None:
            return lower(self, expr)
        if cls is ast.Deref or cls is ast.Index or cls is ast.Field:
            lv = self._lvalue(expr)
            if isinstance(self._typeof(expr), (ArrayType, StructType)):
                # aggregates used as values decay to their address
                assert isinstance(lv, _MemLV)
                return lv.addr
            return self._load(lv)
        if cls is ast.AddrOf:
            lv = self._lvalue(expr.operand)
            if isinstance(lv, _TempLV):
                raise CompileError(
                    "cannot take address of register variable",
                    expr.line, expr.col)
            return lv.addr
        if cls is ast.FloatLit:
            return FloatConst(expr.value)
        if cls is ast.SizeOf:
            return IntConst(expr.target.size())  # type: ignore[union-attr]
        raise CompileError("cannot lower expression %r" % expr,
                           expr.line, expr.col)

    def _var_value(self, expr: ast.Var) -> Value:
        name = expr.name
        vtype = self._typeof(expr)
        if name in self._var_temps:
            return self._var_temps[name]
        if name in self._frame:
            addr = self._frame_addr(name)
            if isinstance(vtype, (ArrayType, StructType)):
                return addr
            dst = self._func.new_temp(self._kind_of(vtype))
            self._emit(Load(dst, addr,
                            is_float=self._kind_of(vtype) == "float"))
            return dst
        # global
        if isinstance(vtype, (ArrayType, StructType)):
            return GlobalAddr(name)
        dst = self._func.new_temp(self._kind_of(vtype))
        self._emit(Load(dst, GlobalAddr(name),
                        is_float=self._kind_of(vtype) == "float"))
        return dst

    def _lvalue(self, expr: ast.Expr) -> _LValue:
        if isinstance(expr, ast.Var):
            name = expr.name
            vtype = self._typeof(expr)
            if name in self._var_temps:
                return _TempLV(self._var_temps[name])
            is_float = self._kind_of(vtype) == "float"
            if name in self._frame:
                return _MemLV(self._frame_addr(name), is_float)
            return _MemLV(GlobalAddr(name), is_float)
        if isinstance(expr, ast.Deref):
            addr = self._expr_value(expr.pointer)
            pointee = self._typeof(expr)
            return _MemLV(addr, self._kind_of(pointee) == "float",
                          expr.dynamic)
        if isinstance(expr, ast.Index):
            base = self._expr_value(expr.base)
            elem = self._typeof(expr)
            index = self._expr_value(expr.index)
            addr = self._address_add(base, index, elem.size())
            return _MemLV(addr, self._kind_of(elem) == "float", expr.dynamic)
        if isinstance(expr, ast.Field):
            struct, base_addr = self._field_base(expr)
            offset, ftype = struct.field(expr.name)
            addr = self._address_add(base_addr, IntConst(offset), 1)
            return _MemLV(addr, self._kind_of(ftype) == "float", expr.dynamic)
        raise CompileError("expression is not an lvalue", expr.line, expr.col)

    def _field_base(self, expr: ast.Field) -> Tuple[StructType, Value]:
        if expr.arrow:
            base_type = decay(self._typeof(expr.base))
            assert isinstance(base_type, PointerType)
            struct = base_type.pointee
            assert isinstance(struct, StructType)
            struct = self._checked.structs[struct.name]
            return struct, self._expr_value(expr.base)
        struct_t = self._typeof(expr.base)
        assert isinstance(struct_t, StructType)
        struct = self._checked.structs[struct_t.name]
        lv = self._lvalue(expr.base)
        assert isinstance(lv, _MemLV)
        return struct, lv.addr

    def _address_add(self, base: Value, index: Value, scale: int) -> Value:
        if isinstance(index, IntConst):
            if index.value == 0:
                return base
            total = index.value * scale
            dst = self._func.new_temp("int")
            self._emit(BinOp(dst, "add", base, IntConst(total)))
            return dst
        scaled: Value = index
        if scale != 1:
            scaled_t = self._func.new_temp("int")
            self._emit(BinOp(scaled_t, "mul", index, IntConst(scale)))
            scaled = scaled_t
        dst = self._func.new_temp("int")
        self._emit(BinOp(dst, "add", base, scaled))
        return dst

    def _load(self, lv: _LValue) -> Value:
        if isinstance(lv, _TempLV):
            return lv.temp
        dst = self._func.new_temp("float" if lv.is_float else "int")
        self._emit(Load(dst, lv.addr, dynamic=lv.dynamic,
                        is_float=lv.is_float))
        return dst

    def _store(self, lv: _LValue, value: Value) -> None:
        if isinstance(lv, _TempLV):
            self._emit(Assign(lv.temp, value))
        else:
            self._emit(Store(lv.addr, value, is_float=lv.is_float))

    # -- operators -----------------------------------------------------------

    def _binary(self, expr: ast.Binary) -> Value:
        op = expr.op
        if op in ("&&", "||"):
            return self._logical_value(expr)
        lhs_type = decay(self._typeof(expr.lhs))
        rhs_type = decay(self._typeof(expr.rhs))
        lhs = self._expr_value(expr.lhs)
        rhs = self._expr_value(expr.rhs)
        return self._binary_values(op, lhs, lhs_type, rhs, rhs_type)

    def _binary_values(self, op: str, lhs: Value, lhs_type: Type,
                       rhs: Value, rhs_type: Type) -> Value:
        # pointer arithmetic
        if isinstance(lhs_type, PointerType) or isinstance(rhs_type, PointerType):
            return self._pointer_op(op, lhs, lhs_type, rhs, rhs_type)
        float_op = isinstance(lhs_type, FloatType) or isinstance(rhs_type, FloatType)
        if float_op:
            lhs = self._to_float(lhs) if not isinstance(lhs_type, FloatType) else lhs
            rhs = self._to_float(rhs) if not isinstance(rhs_type, FloatType) else rhs
            ir_op = {
                "+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv",
                "==": "feq", "!=": "fne", "<": "flt", "<=": "fle",
                ">": "fgt", ">=": "fge",
            }.get(op)
            if ir_op is None:
                raise CompileError("operator %s not valid on floats" % op, 0, 0)
            kind = "int" if ir_op in ("feq", "fne", "flt", "fle", "fgt", "fge") \
                else "float"
            dst = self._func.new_temp(kind)
            self._emit(BinOp(dst, ir_op, lhs, rhs))
            return dst
        unsigned = (isinstance(lhs_type, IntType) and not lhs_type.signed) or \
                   (isinstance(rhs_type, IntType) and not rhs_type.signed)
        ir_op = self._int_op(op, unsigned)
        dst = self._func.new_temp("int")
        self._emit(BinOp(dst, ir_op, lhs, rhs))
        return dst

    def _int_op(self, op: str, unsigned: bool) -> str:
        table = {
            "+": "add", "-": "sub", "*": "mul",
            "/": "udiv" if unsigned else "div",
            "%": "umod" if unsigned else "mod",
            "&": "and", "|": "or", "^": "xor",
            "<<": "shl", ">>": "lshr" if unsigned else "ashr",
            "==": "eq", "!=": "ne",
            "<": "ult" if unsigned else "lt",
            "<=": "ule" if unsigned else "le",
            ">": "ugt" if unsigned else "gt",
            ">=": "uge" if unsigned else "ge",
        }
        if op not in table:
            raise CompileError("unknown operator %s" % op, 0, 0)
        return table[op]

    def _pointer_op(self, op: str, lhs: Value, lhs_type: Type,
                    rhs: Value, rhs_type: Type) -> Value:
        if op in ("==", "!=", "<", "<=", ">", ">="):
            ir_op = {"==": "eq", "!=": "ne", "<": "ult", "<=": "ule",
                     ">": "ugt", ">=": "uge"}[op]
            dst = self._func.new_temp("int")
            self._emit(BinOp(dst, ir_op, lhs, rhs))
            return dst
        if op == "+":
            if isinstance(lhs_type, PointerType):
                return self._address_add(lhs, rhs, lhs_type.pointee.size())
            assert isinstance(rhs_type, PointerType)
            return self._address_add(rhs, lhs, rhs_type.pointee.size())
        if op == "-":
            if isinstance(rhs_type, PointerType) and isinstance(lhs_type, PointerType):
                diff = self._func.new_temp("int")
                self._emit(BinOp(diff, "sub", lhs, rhs))
                size = lhs_type.pointee.size()
                if size == 1:
                    return diff
                dst = self._func.new_temp("int")
                self._emit(BinOp(dst, "div", diff, IntConst(size)))
                return dst
            assert isinstance(lhs_type, PointerType)
            neg = self._func.new_temp("int")
            self._emit(UnOp(neg, "neg", rhs))
            return self._address_add(lhs, neg, lhs_type.pointee.size())
        raise CompileError("invalid pointer operation %s" % op, 0, 0)

    def _logical_value(self, expr: ast.Binary) -> Value:
        dst = self._func.new_temp("int")
        true_block = self._new_block("ltrue")
        false_block = self._new_block("lfalse")
        join = self._new_block("ljoin")
        self._cond(expr, true_block, false_block)
        true_block.append(Assign(dst, IntConst(1)))
        true_block.append(Jump(join.name))
        false_block.append(Assign(dst, IntConst(0)))
        false_block.append(Jump(join.name))
        self._switch_to(join)
        return dst

    def _unary(self, expr: ast.Unary) -> Value:
        operand_type = decay(self._typeof(expr.operand))
        operand = self._expr_value(expr.operand)
        if expr.op == "-":
            if isinstance(operand_type, FloatType):
                dst = self._func.new_temp("float")
                self._emit(UnOp(dst, "fneg", operand))
            else:
                dst = self._func.new_temp("int")
                self._emit(UnOp(dst, "neg", operand))
            return dst
        if expr.op == "!":
            dst = self._func.new_temp("int")
            if isinstance(operand_type, FloatType):
                self._emit(BinOp(dst, "feq", operand, FloatConst(0.0)))
            else:
                self._emit(BinOp(dst, "eq", operand, IntConst(0)))
            return dst
        if expr.op == "~":
            dst = self._func.new_temp("int")
            self._emit(UnOp(dst, "bnot", operand))
            return dst
        raise CompileError("unknown unary operator %s" % expr.op,
                           expr.line, expr.col)

    def _call(self, expr: ast.Call) -> Value:
        builtin = BUILTINS.get(expr.name)
        if builtin is not None:
            param_types = builtin.params
            ret = builtin.ret
            pure = builtin.pure
            intrinsic = True
        else:
            info = self._checked.functions[expr.name]
            param_types = [t for _, t in info.params]
            ret = info.ret_type
            pure = info.pure
            intrinsic = False
        args = [self._expr_as(arg, decay(ptype))
                for arg, ptype in zip(expr.args, param_types)]
        if isinstance(ret, VoidType):
            self._emit(Call(None, expr.name, args, pure=pure,
                            intrinsic=intrinsic))
            return IntConst(0)
        dst = self._func.new_temp(self._kind_of(ret))
        self._emit(Call(dst, expr.name, args, pure=pure, intrinsic=intrinsic))
        return dst

    def _cast(self, expr: ast.Cast) -> Value:
        source_type = decay(self._typeof(expr.operand))
        target = expr.target
        assert isinstance(target, Type)
        value = self._expr_value(expr.operand)
        if isinstance(target, FloatType) and not isinstance(source_type, FloatType):
            return self._to_float(value)
        if not isinstance(target, FloatType) and isinstance(source_type, FloatType):
            if isinstance(value, FloatConst):
                return IntConst(int(value.value))
            dst = self._func.new_temp("int")
            self._emit(UnOp(dst, "ftoi", value))
            return dst
        return value  # same representation

    def _assign(self, expr: ast.Assign) -> Value:
        target_type = decay(self._typeof(expr.target))
        if expr.op is None:
            value = self._expr_as(expr.value, target_type)
            lv = self._lvalue(expr.target)
            self._store(lv, value)
            return value
        # compound assignment: evaluate the lvalue address once
        lv = self._lvalue(expr.target)
        old = self._load(lv)
        rhs_type = decay(self._typeof(expr.value))
        rhs = self._expr_value(expr.value)
        new = self._binary_values(expr.op, old, target_type, rhs, rhs_type)
        self._store(lv, new)
        return new

    def _incdec(self, expr: ast.IncDec) -> Value:
        target_type = decay(self._typeof(expr.target))
        lv = self._lvalue(expr.target)
        old = self._load(lv)
        if isinstance(lv, _TempLV):
            # The loaded value aliases the variable; snapshot it so the
            # expression's value is the *pre*-increment one.
            snapshot = self._func.new_temp(self._kind_of(target_type))
            self._emit(Assign(snapshot, old))
            old = snapshot
        step = 1
        if isinstance(target_type, PointerType):
            step = target_type.pointee.size()
        op = "add" if expr.op == "++" else "sub"
        new = self._func.new_temp("int")
        self._emit(BinOp(new, op, old, IntConst(step)))
        self._store(lv, new)
        return old

    def _conditional(self, expr: ast.Conditional) -> Value:
        result_type = decay(self._typeof(expr))
        kind = self._kind_of(result_type)
        dst = self._func.new_temp(kind)
        then_block = self._new_block("cthen")
        else_block = self._new_block("celse")
        join = self._new_block("cjoin")
        self._cond(expr.cond, then_block, else_block)
        self._switch_to(then_block)
        value = self._expr_as(expr.then, result_type)
        self._emit(Assign(dst, value))
        assert self._block is not None
        if self._block.terminator is None:
            self._block.append(Jump(join.name))
        self._switch_to(else_block)
        value = self._expr_as(expr.otherwise, result_type)
        self._emit(Assign(dst, value))
        assert self._block is not None
        if self._block.terminator is None:
            self._block.append(Jump(join.name))
        self._switch_to(join)
        return dst


#: statement class -> the ``_FunctionBuilder`` method that lowers it
#: (blocks, expression statements, jumps and labels are handled in
#: ``_stmt`` itself).
_STMT_LOWERERS = {
    ast.VarDecl: _FunctionBuilder._var_decl,
    ast.If: _FunctionBuilder._if,
    ast.While: _FunctionBuilder._while,
    ast.DoWhile: _FunctionBuilder._do_while,
    ast.For: _FunctionBuilder._for,
    ast.Switch: _FunctionBuilder._switch,
    ast.Return: _FunctionBuilder._return,
    ast.DynamicRegion: _FunctionBuilder._dynamic_region,
}

#: expression class -> the ``_FunctionBuilder`` method that lowers it
#: for its value (literals, memory accesses and ``&`` are handled in
#: ``_expr_value`` itself).
_EXPR_LOWERERS = {
    ast.Var: _FunctionBuilder._var_value,
    ast.Binary: _FunctionBuilder._binary,
    ast.Unary: _FunctionBuilder._unary,
    ast.Call: _FunctionBuilder._call,
    ast.Cast: _FunctionBuilder._cast,
    ast.Assign: _FunctionBuilder._assign,
    ast.IncDec: _FunctionBuilder._incdec,
    ast.Conditional: _FunctionBuilder._conditional,
}
