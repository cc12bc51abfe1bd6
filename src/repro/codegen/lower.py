"""IR-to-RVM lowering.

Consumes phi-free (post-``from_ssa``) IR and a register allocation, and
produces :class:`~repro.codegen.objects.CompiledFunction` objects:
ordinary code for ordinary blocks, and -- for dynamic regions --
machine-code *templates* with hole directives for the stitcher, exactly
the division the paper's static compiler performs in its code
generation step (section 3.4).

Cycle-owner tags are attached per block so the VM can attribute costs
to function bodies, set-up code, dispatch overhead, or (in static mode)
the un-split region body.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..dynamic.regionops import RegionEnter, RegionLookup, RegionStitch
from ..dynamic.splitter import RegionPlan
from ..frontend.errors import CompileError
from ..ir.builder import FrameAddr
from ..ir.cfg import Function
from ..ir.instructions import (
    Assign, BinOp, Call, CondBr, Jump, Load, Return, Store, Switch, UnOp,
)
from ..ir.values import (
    FloatConst, GlobalAddr, HoleRef, IntConst, Temp, Value,
)
from ..machine.isa import (
    ARG_BASE, CPOOL, FREG_BASE, FRV, MInstr, NUM_ARG_REGS, RA, RV, SCRATCH,
    SCRATCH2, SP, ZERO, fits_imm, is_float_reg, materialize_int,
)
from .objects import (
    BranchFixup, CompiledFunction, ElementAction, HoleDirective, RegionCode,
    TemplateBlock, TermInfo, linearize_region,
)
from .regalloc import Allocation, allocate
from ..machine.isa import INT_ALLOCATABLE

FSCRATCH = FREG_BASE + 28
FSCRATCH2 = FREG_BASE + 29
FARG_BASE = FREG_BASE + 16

#: IR binop -> (machine op, swap operands?).  Operators without a
#: machine instruction are synthesized by swapping (gt -> lt).
_INT_OPS: Dict[str, Tuple[str, bool]] = {
    "add": ("addq", False), "sub": ("subq", False), "mul": ("mulq", False),
    "div": ("divq", False), "udiv": ("udivq", False),
    "mod": ("remq", False), "umod": ("uremq", False),
    "and": ("and", False), "or": ("bis", False), "xor": ("xor", False),
    "shl": ("sll", False), "lshr": ("srl", False), "ashr": ("sra", False),
    "eq": ("cmpeq", False), "ne": ("cmpne", False),
    "lt": ("cmplt", False), "le": ("cmple", False),
    "gt": ("cmplt", True), "ge": ("cmple", True),
    "ult": ("cmpult", False), "ule": ("cmpule", False),
    "ugt": ("cmpult", True), "uge": ("cmpule", True),
}

_FLOAT_OPS: Dict[str, Tuple[str, bool]] = {
    "fadd": ("addt", False), "fsub": ("subt", False),
    "fmul": ("mult", False), "fdiv": ("divt", False),
    "feq": ("cmpteq", False), "fne": ("cmptne", False),
    "flt": ("cmptlt", False), "fle": ("cmptle", False),
    "fgt": ("cmptlt", True), "fge": ("cmptle", True),
}

#: IR operators producing float results (for destination register class
#: sanity checks).
_COMMUTATIVE = {"add", "mul", "and", "or", "xor", "eq", "ne",
                "fadd", "fmul", "feq", "fne"}


class DataLayout:
    """Assigns data-memory addresses to globals and float literals."""

    DATA_BASE = 0x1000

    def __init__(self) -> None:
        self.global_addrs: Dict[str, int] = {}
        self.global_values: Dict[str, List[object]] = {}
        self._next = self.DATA_BASE
        self._float_pool: Dict[float, int] = {}

    def add_module_globals(self, module) -> None:
        for data in module.globals.values():
            self.global_addrs[data.name] = self._next
            self.global_values[data.name] = list(data.values)
            self._next += max(1, len(data.values))

    def addr_of(self, name: str) -> int:
        return self.global_addrs[name]

    def float_const_addr(self, value: float) -> int:
        if value not in self._float_pool:
            self._float_pool[value] = self._next
            self._next += 1
        return self._float_pool[value]

    def write_into(self, vm) -> None:
        for name, values in self.global_values.items():
            base = self.global_addrs[name]
            for i, value in enumerate(values):
                vm.memory[base + i] = value
        for value, addr in self._float_pool.items():
            vm.memory[addr] = value
        vm.heap_next = max(vm.heap_next, self._next + 16)


class _Emitter:
    """Accumulates machine code with labels, for one output stream."""

    def __init__(self, owner: str):
        self.instrs: List[MInstr] = []
        self.labels: Dict[str, int] = {}
        self.owner = owner

    def label(self, name: str) -> None:
        self.labels[name] = len(self.instrs)

    def emit(self, instr: MInstr) -> MInstr:
        if not instr.owner:
            instr.owner = self.owner
        self.instrs.append(instr)
        return instr

    @property
    def position(self) -> int:
        return len(self.instrs)


class FunctionLowerer:
    """Lowers one phi-free function to RVM code."""

    def __init__(self, func: Function, layout: DataLayout,
                 plans: Optional[List[RegionPlan]] = None,
                 allocation: Optional[Allocation] = None,
                 reserve_action_regs: int = 0):
        self.func = func
        self.layout = layout
        self.plans = plans or []
        #: Registers reserved for stitcher-time element promotion.  They
        #: are excluded from the allocator's pool but still saved and
        #: restored by the prologue/epilogue -- stitched code runs in
        #: this frame, and the caller may be using those registers.
        self.action_regs: List[int] = []
        if allocation is not None:
            self.alloc = allocation
        elif reserve_action_regs > 0 and self.plans:
            keep = max(4, len(INT_ALLOCATABLE) - reserve_action_regs)
            pool = INT_ALLOCATABLE[:keep]
            self.action_regs = list(INT_ALLOCATABLE[keep:])
            self.alloc = allocate(func, int_pool=pool)
        else:
            self.alloc = allocate(func)
        self.saved_regs = list(self.alloc.used_registers) + self.action_regs
        self.compiled = CompiledFunction(name=func.name,
                                         frame_size=func.frame_size)
        # frame: [locals][spills][saved regs][ra]
        self.spill_base = func.frame_size
        self.save_base = self.spill_base + self.alloc.num_spill_slots
        self.total_frame = self.save_base + len(self.saved_regs) + 1
        self.template_blocks: Dict[str, RegionPlan] = {}
        self.block_owner: Dict[str, str] = {}
        self._compute_owners()
        #: Emission positions of the most recent memory / ALU op, for
        #: register-action tagging.
        self._last_mem_index: int = -1
        self._last_alu_index: int = -1
        self._scan_frame_accesses()

    # -- register-action pre-analysis ---------------------------------------

    def _scan_frame_accesses(self) -> None:
        """Function-wide maps for register-action tagging: which temps
        hold frame-array base addresses, which hold element addresses
        (base + constant index), and per-temp use counts."""
        self._use_counts: Dict[str, int] = {}
        self._frame_base_temps: Dict[str, int] = {}
        self._frame_base_block: Dict[str, str] = {}
        use_counts = self._use_counts
        # One walk; element additions are matched to their bases after
        # it, since a base may be defined in a later block.
        adds: List[Tuple[str, BinOp]] = []
        for name, block in self.func.blocks.items():
            for instr in block.all_instrs():
                for value in instr.uses():
                    if value.__class__ is Temp:
                        use_counts[value.name] = \
                            use_counts.get(value.name, 0) + 1
                cls = instr.__class__
                if cls is FrameAddr:
                    self._frame_base_temps[instr.dst.name] = instr.offset
                    self._frame_base_block[instr.dst.name] = name
                elif cls is BinOp and instr.op == "add":
                    adds.append((name, instr))
        #: elem temp -> (array frame offset, slot or None, const index).
        self._elem_temps: Dict[str, Tuple[int, Optional[Tuple], int]] = {}
        self._elem_block: Dict[str, str] = {}
        for name, instr in adds:
            lhs, rhs = instr.lhs, instr.rhs
            if isinstance(rhs, Temp) and rhs.name in self._frame_base_temps:
                lhs, rhs = rhs, lhs
            if not (isinstance(lhs, Temp)
                    and lhs.name in self._frame_base_temps):
                continue
            array = self._frame_base_temps[lhs.name]
            if isinstance(rhs, HoleRef):
                self._elem_temps[instr.dst.name] = (
                    array, (rhs.loop_id, rhs.index), 0)
            elif isinstance(rhs, IntConst):
                self._elem_temps[instr.dst.name] = (
                    array, None, rhs.value)
            else:
                continue
            self._elem_block[instr.dst.name] = name

    # -- owners & layout ------------------------------------------------------

    def _compute_owners(self) -> None:
        func = self.func
        default = "fn:%s" % func.name
        for name in func.blocks:
            self.block_owner[name] = default
        if self.plans:
            for plan in self.plans:
                rid = plan.region_id
                for name in plan.setup_blocks:
                    self.block_owner[name] = "setup:%s:%d" % (func.name, rid)
                for name in (plan.dispatch_block, plan.enter_block):
                    self.block_owner[name] = "dispatch:%s:%d" % (func.name, rid)
                self.block_owner[plan.stitch_block] = \
                    "setup:%s:%d" % (func.name, rid)
                for name in plan.template_blocks:
                    self.template_blocks[name] = plan
                    self.block_owner[name] = \
                        "template:%s:%d" % (func.name, rid)
        else:
            # Static mode: attribute region bodies for the comparison.
            for region in func.regions:
                for name in region.blocks:
                    if name in func.blocks:
                        self.block_owner[name] = \
                            "region:%s:%d" % (func.name, region.region_id)

    # -- main ------------------------------------------------------------------

    def lower(self) -> CompiledFunction:
        emitter = _Emitter("fn:%s" % self.func.name)
        layout_order = [n for n in self.alloc.block_order
                        if n not in self.template_blocks]
        emitter.label(self.func.name)
        self._prologue(emitter)
        for index, name in enumerate(layout_order):
            emitter.label(name)
            next_block = (layout_order[index + 1]
                          if index + 1 < len(layout_order) else None)
            self._lower_block(emitter, name, next_block)
        emitter.label("$epilogue")
        self._epilogue(emitter)
        self.compiled.code = emitter.instrs
        self.compiled.labels = emitter.labels
        for plan in self.plans:
            self.compiled.regions.append(self._lower_templates(plan))
        return self.compiled

    def _prologue(self, emitter: _Emitter) -> None:
        e = emitter.emit
        if self.total_frame:
            e(MInstr("lda", rd=SP, ra=SP, imm=-self.total_frame))
        e(MInstr("stq", rb=RA, ra=SP, imm=self.save_base
                 + len(self.saved_regs)))
        for i, reg in enumerate(self.saved_regs):
            op = "stt" if is_float_reg(reg) else "stq"
            e(MInstr(op, rb=reg, ra=SP, imm=self.save_base + i))
        int_pos = 0
        float_pos = 0
        for i, param in enumerate(self.func.params):
            if i >= NUM_ARG_REGS:
                raise CompileError("more than %d parameters in %s"
                                   % (NUM_ARG_REGS, self.func.name))
            is_float = self.func.temp_types.get(param.name) == "float"
            src = (FARG_BASE + i) if is_float else (ARG_BASE + i)
            loc = self.alloc.locations.get(param.name)
            if loc is None:
                continue  # unused parameter
            if loc.spilled:
                op = "stt" if is_float else "stq"
                e(MInstr(op, rb=src, ra=SP,
                         imm=self.spill_base + loc.spill_slot))
            else:
                e(MInstr("fmov" if is_float else "mov", rd=loc.reg, ra=src))

    def _epilogue(self, emitter: _Emitter) -> None:
        e = emitter.emit
        for i, reg in enumerate(self.saved_regs):
            op = "ldt" if is_float_reg(reg) else "ldq"
            e(MInstr(op, rd=reg, ra=SP, imm=self.save_base + i))
        e(MInstr("ldq", rd=RA, ra=SP, imm=self.save_base
                 + len(self.saved_regs)))
        if self.total_frame:
            e(MInstr("lda", rd=SP, ra=SP, imm=self.total_frame))
        e(MInstr("ret"))

    # -- operand helpers ---------------------------------------------------------

    def _reload(self, emitter: _Emitter, temp: Temp, scratch: int) -> int:
        loc = self.alloc.locations[temp.name]
        if not loc.spilled:
            return loc.reg  # type: ignore[return-value]
        is_float = self.func.temp_types.get(temp.name) == "float"
        op = "ldt" if is_float else "ldq"
        target = (FSCRATCH + (scratch - SCRATCH)) if is_float else scratch
        emitter.emit(MInstr(op, rd=target, ra=SP,
                            imm=self.spill_base + loc.spill_slot))
        return target

    def _value_reg(self, emitter: _Emitter, value: Value,
                   scratch: int) -> int:
        """Bring ``value`` into a register (possibly ``scratch``)."""
        if value.__class__ is Temp:
            loc = self.alloc.locations[value.name]
            if loc.spill_slot is None:
                return loc.reg  # type: ignore[return-value]
            return self._reload(emitter, value, scratch)
        if isinstance(value, IntConst):
            materialize_int(emitter.emit, scratch, value.value)
            return scratch
        if isinstance(value, GlobalAddr):
            materialize_int(emitter.emit, scratch,
                                  self.layout.addr_of(value.name))
            return scratch
        if isinstance(value, FloatConst):
            addr = self.layout.float_const_addr(value.value)
            freg = FSCRATCH + (scratch - SCRATCH)
            if fits_imm(addr):
                emitter.emit(MInstr("ldt", rd=freg, ra=ZERO, imm=addr))
            else:
                materialize_int(emitter.emit, scratch, addr)
                emitter.emit(MInstr("ldt", rd=freg, ra=scratch, imm=0))
            return freg
        raise CompileError("cannot lower operand %r here" % (value,))

    def _def_reg(self, temp: Temp) -> Tuple[int, Optional[MInstr]]:
        """Destination register for ``temp`` plus an optional spill store
        to emit afterwards."""
        loc = self.alloc.locations.get(temp.name)
        is_float = self.func.temp_types.get(temp.name) == "float"
        if loc is None:
            # Dead destination; write to a scratch.
            return (FSCRATCH if is_float else SCRATCH), None
        if not loc.spilled:
            return loc.reg, None  # type: ignore[return-value]
        reg = FSCRATCH if is_float else SCRATCH
        op = "stt" if is_float else "stq"
        return reg, MInstr(op, rb=reg, ra=SP,
                           imm=self.spill_base + loc.spill_slot)

    # -- blocks --------------------------------------------------------------

    def _lower_block(self, emitter: _Emitter, name: str,
                     next_block: Optional[str]) -> None:
        block = self.func.blocks[name]
        owner = self.block_owner[name]
        saved_owner = emitter.owner
        emitter.owner = owner
        for instr in block.instrs:
            self._lower_instr(emitter, instr, template=None)
        self._lower_terminator(emitter, block.terminator, next_block)
        emitter.owner = saved_owner

    def _lower_terminator(self, emitter: _Emitter, term,
                          next_block: Optional[str]) -> None:
        if isinstance(term, Jump):
            if term.target != next_block:
                emitter.emit(MInstr("br", label=term.target))
        elif isinstance(term, CondBr):
            creg = self._value_reg(emitter, term.cond, SCRATCH)
            if term.if_false == next_block:
                emitter.emit(MInstr("bne", ra=creg, label=term.if_true))
            elif term.if_true == next_block:
                emitter.emit(MInstr("beq", ra=creg, label=term.if_false))
            else:
                emitter.emit(MInstr("bne", ra=creg, label=term.if_true))
                emitter.emit(MInstr("br", label=term.if_false))
        elif isinstance(term, Switch):
            vreg = self._value_reg(emitter, term.value, SCRATCH)
            if self._dense_switch(term):
                low = min(v for v, _ in term.cases)
                high = max(v for v, _ in term.cases)
                table: List[str] = [term.default] * (high - low + 1)
                for case_value, label in term.cases:
                    table[case_value - low] = label
                emitter.emit(MInstr("jtab", ra=vreg, imm=low,
                                    extra=("labels", table, term.default)))
                return
            for case_value, label in term.cases:
                if fits_imm(case_value):
                    emitter.emit(MInstr("cmpeq", rd=SCRATCH2, ra=vreg,
                                        imm=case_value))
                else:
                    materialize_int(emitter.emit, SCRATCH2, case_value)
                    emitter.emit(MInstr("cmpeq", rd=SCRATCH2, ra=vreg,
                                        rb=SCRATCH2))
                emitter.emit(MInstr("bne", ra=SCRATCH2, label=label))
            if term.default != next_block:
                emitter.emit(MInstr("br", label=term.default))
        elif isinstance(term, Return):
            self._lower_return(emitter, term)
        elif isinstance(term, RegionEnter):
            creg = self._value_reg(emitter, term.code, SCRATCH)
            emitter.emit(MInstr("jmp", ra=creg))
        else:
            raise CompileError("cannot lower terminator %r" % term)

    def _dense_switch(self, term: Switch) -> bool:
        """Use a jump table for reasonably dense multi-way switches, as
        a 1990s optimizing compiler would."""
        if len(term.cases) < 3:
            return False
        low = min(v for v, _ in term.cases)
        high = max(v for v, _ in term.cases)
        span = high - low + 1
        return span <= 3 * len(term.cases) and span <= 512

    def _lower_return(self, emitter: _Emitter, term: Return) -> None:
        if term.value is not None:
            if self._value_is_float(term.value):
                reg = self._value_reg(emitter, term.value, SCRATCH)
                emitter.emit(MInstr("fmov", rd=FRV, ra=reg))
            else:
                if isinstance(term.value, IntConst):
                    materialize_int(emitter.emit, RV, term.value.value)
                else:
                    reg = self._value_reg(emitter, term.value, SCRATCH)
                    emitter.emit(MInstr("mov", rd=RV, ra=reg))
        emitter.emit(MInstr("br", label="$epilogue"))

    def _value_is_float(self, value: Value) -> bool:
        if isinstance(value, FloatConst):
            return True
        if isinstance(value, Temp):
            return self.func.temp_types.get(value.name) == "float"
        if isinstance(value, HoleRef):
            return value.is_float
        return False

    # -- instructions ------------------------------------------------------------

    def _lower_instr(self, emitter: _Emitter, instr,
                     template: Optional[TemplateBlock]) -> None:
        lower = _INSTR_LOWERERS.get(instr.__class__)
        if lower is None:
            raise CompileError("cannot lower instruction %r" % instr)
        lower(self, emitter, instr, template)

    def _hole_operand(self, emitter: _Emitter, value: HoleRef,
                      template: TemplateBlock, dest_reg: int) -> int:
        """Materialize a hole into ``dest_reg`` with a directive."""
        slot = (value.loop_id, value.index)
        if value.is_float:
            freg = dest_reg if is_float_reg(dest_reg) else FSCRATCH2
            template.holes.append(HoleDirective(emitter.position, "fpool",
                                                slot))
            emitter.emit(MInstr("ldt", rd=freg, ra=CPOOL, imm=0))
            return freg
        template.holes.append(HoleDirective(emitter.position, "materialize",
                                            slot))
        emitter.emit(MInstr("lda", rd=dest_reg, ra=ZERO, imm=0))
        return dest_reg

    def _template_value_reg(self, emitter: _Emitter, value: Value,
                            scratch: int,
                            template: Optional[TemplateBlock]) -> int:
        if isinstance(value, HoleRef):
            assert template is not None
            return self._hole_operand(emitter, value, template, scratch)
        return self._value_reg(emitter, value, scratch)

    def _lower_assign(self, emitter: _Emitter, instr: Assign,
                      template: Optional[TemplateBlock]) -> None:
        reg, post = self._def_reg(instr.dst)
        src = instr.src
        if isinstance(src, HoleRef):
            assert template is not None
            self._hole_operand(emitter, src, template, reg)
        elif isinstance(src, IntConst):
            materialize_int(emitter.emit, reg, src.value)
        elif isinstance(src, (GlobalAddr, FloatConst)):
            out = self._value_reg(emitter, src, SCRATCH)
            if out != reg:
                op = "fmov" if is_float_reg(reg) else "mov"
                emitter.emit(MInstr(op, rd=reg, ra=out))
        else:
            out = self._value_reg(emitter, src, SCRATCH)  # type: ignore[arg-type]
            if out != reg:
                op = "fmov" if is_float_reg(reg) else "mov"
                emitter.emit(MInstr(op, rd=reg, ra=out))
        if post:
            emitter.emit(post)

    def _lower_binop(self, emitter: _Emitter, instr: BinOp,
                     template: Optional[TemplateBlock]) -> None:
        op = instr.op
        reg, post = self._def_reg(instr.dst)
        if op in _FLOAT_OPS:
            mop, swap = _FLOAT_OPS[op]
            lhs, rhs = (instr.rhs, instr.lhs) if swap else (instr.lhs, instr.rhs)
            ra = self._template_value_reg(emitter, lhs, SCRATCH, template)
            rb = self._template_value_reg(emitter, rhs, SCRATCH2, template)
            emitter.emit(MInstr(mop, rd=reg, ra=ra, rb=rb))
            if post:
                emitter.emit(post)
            return
        mop, swap = _INT_OPS[op]
        lhs, rhs = (instr.rhs, instr.lhs) if swap else (instr.lhs, instr.rhs)
        # A constant/hole on the left of a commutative operator moves to
        # the right, where the immediate form can absorb it.  SCRATCH is
        # the left-operand register either way: SCRATCH2 must stay free
        # because the stitcher's big-constant fallback for an immediate
        # hole expands into a pool load through SCRATCH2.
        if isinstance(lhs, (HoleRef, IntConst)) and op in _COMMUTATIVE \
                and not isinstance(rhs, (HoleRef, IntConst)):
            lhs, rhs = rhs, lhs
        ra = self._template_value_reg(emitter, lhs, SCRATCH, template)
        self._last_alu_index = emitter.position
        if isinstance(rhs, HoleRef):
            assert template is not None
            slot = (rhs.loop_id, rhs.index)
            template.holes.append(
                HoleDirective(emitter.position, "alu_imm", slot))
            emitter.emit(MInstr(mop, rd=reg, ra=ra, imm=0))
        elif isinstance(rhs, IntConst) and fits_imm(rhs.value):
            emitter.emit(MInstr(mop, rd=reg, ra=ra, imm=rhs.value))
        else:
            rb = self._template_value_reg(emitter, rhs, SCRATCH2, template)
            self._last_alu_index = emitter.position
            emitter.emit(MInstr(mop, rd=reg, ra=ra, rb=rb))
        if post:
            emitter.emit(post)

    def _lower_unop(self, emitter: _Emitter, instr: UnOp,
                    template: Optional[TemplateBlock]) -> None:
        reg, post = self._def_reg(instr.dst)
        src = self._template_value_reg(emitter, instr.src, SCRATCH, template)
        op = instr.op
        if op == "neg":
            emitter.emit(MInstr("negq", rd=reg, ra=src))
        elif op == "fneg":
            emitter.emit(MInstr("fneg", rd=reg, ra=src))
        elif op == "bnot":
            emitter.emit(MInstr("ornot", rd=reg, ra=src))
        elif op == "not":
            emitter.emit(MInstr("cmpeq", rd=reg, ra=src, imm=0))
        elif op == "itof":
            emitter.emit(MInstr("cvtqt", rd=reg, ra=src))
        elif op == "ftoi":
            emitter.emit(MInstr("cvttq", rd=reg, ra=src))
        else:
            raise CompileError("cannot lower unop %s" % op)
        if post:
            emitter.emit(post)

    def _lower_frame_addr(self, emitter: _Emitter, instr: FrameAddr,
                          template: Optional[TemplateBlock]) -> None:
        reg, post = self._def_reg(instr.dst)
        emitter.emit(MInstr("lda", rd=reg, ra=SP, imm=instr.offset))
        if post:
            emitter.emit(post)

    def _lower_load(self, emitter: _Emitter, instr: Load,
                    template: Optional[TemplateBlock]) -> None:
        reg, post = self._def_reg(instr.dst)
        op = "ldt" if instr.is_float else "ldq"
        addr = instr.addr
        if isinstance(addr, HoleRef):
            assert template is not None
            slot = (addr.loop_id, addr.index)
            template.holes.append(
                HoleDirective(emitter.position, "loadbase", slot))
            emitter.emit(MInstr(op, rd=reg, ra=ZERO, imm=0))
        elif isinstance(addr, (IntConst, GlobalAddr)):
            target = (addr.value if isinstance(addr, IntConst)
                      else self.layout.addr_of(addr.name))
            if fits_imm(target):
                emitter.emit(MInstr(op, rd=reg, ra=ZERO, imm=target))
            else:
                materialize_int(emitter.emit, SCRATCH, target)
                emitter.emit(MInstr(op, rd=reg, ra=SCRATCH, imm=0))
        else:
            areg = self._value_reg(emitter, addr, SCRATCH)
            self._last_mem_index = emitter.position
            emitter.emit(MInstr(op, rd=reg, ra=areg, imm=0))
        if post:
            emitter.emit(post)

    def _lower_store(self, emitter: _Emitter, instr: Store,
                     template: Optional[TemplateBlock]) -> None:
        op = "stt" if instr.is_float else "stq"
        # Value first (uses SCRATCH / FSCRATCH).
        vreg = self._template_value_reg(emitter, instr.src, SCRATCH, template)
        addr = instr.addr
        if isinstance(addr, HoleRef):
            assert template is not None
            slot = (addr.loop_id, addr.index)
            template.holes.append(
                HoleDirective(emitter.position, "loadbase", slot))
            emitter.emit(MInstr(op, rb=vreg, ra=ZERO, imm=0))
        elif isinstance(addr, (IntConst, GlobalAddr)):
            target = (addr.value if isinstance(addr, IntConst)
                      else self.layout.addr_of(addr.name))
            if fits_imm(target):
                emitter.emit(MInstr(op, rb=vreg, ra=ZERO, imm=target))
            else:
                materialize_int(emitter.emit, SCRATCH2, target)
                emitter.emit(MInstr(op, rb=vreg, ra=SCRATCH2, imm=0))
        else:
            areg = self._value_reg(emitter, addr, SCRATCH2)
            self._last_mem_index = emitter.position
            emitter.emit(MInstr(op, rb=vreg, ra=areg, imm=0))

    def _lower_call(self, emitter: _Emitter, instr: Call,
                    template: Optional[TemplateBlock]) -> None:
        if len(instr.args) > NUM_ARG_REGS:
            raise CompileError("more than %d arguments to %s"
                               % (NUM_ARG_REGS, instr.callee))
        for i, arg in enumerate(instr.args):
            if self._value_is_float(arg):
                src = self._template_value_reg(emitter, arg, SCRATCH, template)
                emitter.emit(MInstr("fmov", rd=FARG_BASE + i, ra=src))
            elif isinstance(arg, IntConst):
                materialize_int(emitter.emit, ARG_BASE + i, arg.value)
            else:
                src = self._template_value_reg(emitter, arg, SCRATCH, template)
                emitter.emit(MInstr("mov", rd=ARG_BASE + i, ra=src))
        if instr.intrinsic:
            emitter.emit(MInstr("call_rt", name=instr.callee))
        else:
            emitter.emit(MInstr("jsr", label="func:" + instr.callee))
        if instr.dst is not None:
            reg, post = self._def_reg(instr.dst)
            is_float = self.func.temp_types.get(instr.dst.name) == "float"
            emitter.emit(MInstr("fmov" if is_float else "mov", rd=reg,
                                ra=FRV if is_float else RV))
            if post:
                emitter.emit(post)

    def _lower_region_lookup(self, emitter: _Emitter, instr: RegionLookup,
                             template: Optional[TemplateBlock]) -> None:
        for i, key in enumerate(instr.keys):
            src = self._value_reg(emitter, key, SCRATCH)
            emitter.emit(MInstr("mov", rd=ARG_BASE + i, ra=src))
        emitter.emit(MInstr("call_rt", name="region_lookup",
                            extra=(self.func.name, instr.region_id)))
        reg, post = self._def_reg(instr.dst)
        emitter.emit(MInstr("mov", rd=reg, ra=RV))
        if post:
            emitter.emit(post)

    def _lower_region_stitch(self, emitter: _Emitter, instr: RegionStitch,
                             template: Optional[TemplateBlock]) -> None:
        src = self._value_reg(emitter, instr.table, SCRATCH)
        emitter.emit(MInstr("mov", rd=ARG_BASE, ra=src))
        for i, key in enumerate(instr.keys):
            kreg = self._value_reg(emitter, key, SCRATCH2)
            emitter.emit(MInstr("mov", rd=ARG_BASE + 1 + i, ra=kreg))
        emitter.emit(MInstr("call_rt", name="region_stitch",
                            extra=(self.func.name, instr.region_id)))
        reg, post = self._def_reg(instr.dst)
        emitter.emit(MInstr("mov", rd=reg, ra=RV))
        if post:
            emitter.emit(post)

    # -- templates ---------------------------------------------------------------

    def _lower_templates(self, plan: RegionPlan) -> RegionCode:
        region_code = RegionCode(
            func_name=self.func.name,
            region_id=plan.region_id,
            table=plan.table,
            entry=plan.template_entry,
            key_count=len(plan.region.key_temps or []),
        )
        for name in self.func.blocks:
            if name in plan.template_blocks:
                region_code.blocks[name] = \
                    self._lower_template_block(plan, name)
        region_code.promotable_arrays = self._promotable_arrays(
            plan, region_code)
        # Only explicitly reserved (and prologue-saved) registers are
        # safe for the stitcher to write: an unused pool register may
        # hold a *caller's* live value.
        region_code.free_registers = list(self.action_regs)
        linearize_region(region_code)
        return region_code

    def _external_label(self, name: str, plan: RegionPlan) -> str:
        if name in plan.template_blocks:
            return name
        return "ext:" + name

    def _lower_template_block(self, plan: RegionPlan,
                              name: str) -> TemplateBlock:
        func = self.func
        block = func.blocks[name]
        tb = TemplateBlock(name=name)
        emitter = _Emitter("template:%s:%d" % (func.name, plan.region_id))
        for instr in block.instrs:
            self._lower_instr_into_template(emitter, tb, instr)
        term = block.terminator
        if name in plan.const_branch_slots:
            slot = plan.const_branch_slots[name]
            if isinstance(term, CondBr):
                tb.term = TermInfo(
                    "const_branch", slot=slot,
                    if_true=self._external_label(term.if_true, plan),
                    if_false=self._external_label(term.if_false, plan))
            else:
                assert isinstance(term, Switch)
                tb.term = TermInfo(
                    "const_branch", slot=slot,
                    cases=[(v, self._external_label(l, plan))
                           for v, l in term.cases],
                    default=self._external_label(term.default, plan))
        elif isinstance(term, Jump):
            label = self._external_label(term.target, plan)
            tb.fixups.append(BranchFixup(emitter.position, label))
            emitter.emit(MInstr("br", label=label))
            tb.term = TermInfo("fallthrough", succs=self._term_succs(term, plan))
        elif isinstance(term, CondBr):
            creg = self._template_value_reg(emitter, term.cond, SCRATCH, tb)
            t_label = self._external_label(term.if_true, plan)
            f_label = self._external_label(term.if_false, plan)
            tb.fixups.append(BranchFixup(emitter.position, t_label))
            emitter.emit(MInstr("bne", ra=creg, label=t_label))
            tb.fixups.append(BranchFixup(emitter.position, f_label))
            emitter.emit(MInstr("br", label=f_label))
            tb.term = TermInfo("fallthrough", succs=self._term_succs(term, plan))
        elif isinstance(term, Switch):
            vreg = self._template_value_reg(emitter, term.value, SCRATCH, tb)
            for case_value, label in term.cases:
                ext = self._external_label(label, plan)
                emitter.emit(MInstr("cmpeq", rd=SCRATCH2, ra=vreg,
                                    imm=case_value))
                tb.fixups.append(BranchFixup(emitter.position, ext))
                emitter.emit(MInstr("bne", ra=SCRATCH2, label=ext))
            ext = self._external_label(term.default, plan)
            tb.fixups.append(BranchFixup(emitter.position, ext))
            emitter.emit(MInstr("br", label=ext))
            tb.term = TermInfo("fallthrough", succs=self._term_succs(term, plan))
        elif isinstance(term, Return):
            if term.value is not None:
                if self._value_is_float(term.value):
                    reg = self._template_value_reg(emitter, term.value,
                                                   SCRATCH, tb)
                    emitter.emit(MInstr("fmov", rd=FRV, ra=reg))
                else:
                    reg = self._template_value_reg(emitter, term.value,
                                                   SCRATCH, tb)
                    emitter.emit(MInstr("mov", rd=RV, ra=reg))
            tb.fixups.append(BranchFixup(emitter.position, "ext:$epilogue"))
            emitter.emit(MInstr("br", label="ext:$epilogue"))
            tb.term = TermInfo("fallthrough", succs=[])
        else:
            raise CompileError("unexpected template terminator %r" % term)
        tb.instrs = emitter.instrs
        return tb

    def _term_succs(self, term, plan: RegionPlan) -> List[str]:
        return [s for s in dict.fromkeys(term.successors())
                if s in plan.template_blocks]

    def _lower_instr_into_template(self, emitter: _Emitter,
                                   tb: TemplateBlock, instr) -> None:
        self._last_mem_index = -1
        self._last_alu_index = -1
        self._lower_instr(emitter, instr, template=tb)
        self._tag_register_action(tb, instr)

    def _tag_register_action(self, tb: TemplateBlock, instr) -> None:
        """Attach register-action directives for constant-index frame
        array accesses (the section 5 extension)."""
        dst = instr.defs()
        if isinstance(instr, BinOp) and dst is not None \
                and dst.name in self._elem_temps \
                and self._last_alu_index >= 0:
            array, slot, const_index = self._elem_temps[dst.name]
            loc = self.alloc.locations.get(dst.name)
            removable = (self._use_counts.get(dst.name, 0) == 1
                         and loc is not None and not loc.spilled)
            tb.actions.append(ElementAction(
                "addr", self._last_alu_index, array, slot, const_index,
                removable))
        elif isinstance(instr, (Load, Store)) \
                and isinstance(instr.addr, Temp) \
                and not instr.is_float and self._last_mem_index >= 0:
            kind = "load" if isinstance(instr, Load) else "store"
            if instr.addr.name in self._elem_temps:
                array, slot, const_index = self._elem_temps[instr.addr.name]
                tb.actions.append(ElementAction(
                    kind, self._last_mem_index, array, slot, const_index))
            elif instr.addr.name in self._frame_base_temps:
                # The bare array base used as an address = element 0.
                array = self._frame_base_temps[instr.addr.name]
                tb.actions.append(ElementAction(
                    kind, self._last_mem_index, array, None, 0))

    def _promotable_arrays(self, plan: RegionPlan,
                           region_code: RegionCode) -> List[int]:
        """Frame arrays whose *every* access, function-wide, is a tagged
        constant-index access in this region's templates: safe for the
        stitcher to keep entirely in registers."""
        func = self.func
        candidates = set(self._frame_base_temps.values())
        # A base temp outside this region's templates disqualifies its
        # array (the array is touched by other code).
        for temp, array in self._frame_base_temps.items():
            if self._frame_base_block[temp] not in plan.template_blocks:
                candidates.discard(array)
        # Every use of a base temp must be an element-address add; every
        # use of an element temp must be a load/store address.
        base_names = set(self._frame_base_temps)
        elem_names = set(self._elem_temps)
        for name, block in func.blocks.items():
            for instr in block.all_instrs():
                for value in instr.uses():
                    if not isinstance(value, Temp):
                        continue
                    if value.name in base_names:
                        array = self._frame_base_temps[value.name]
                        is_elem_add = (
                            isinstance(instr, BinOp)
                            and instr.op == "add"
                            and instr.defs() is not None
                            and instr.defs().name in elem_names)
                        is_direct_addr = (
                            isinstance(instr, (Load, Store))
                            and instr.addr == value
                            and not instr.is_float
                            and not (isinstance(instr, Store)
                                     and instr.src == value))
                        ok = (name in plan.template_blocks
                              and (is_elem_add or is_direct_addr))
                        if not ok:
                            candidates.discard(array)
                    if value.name in elem_names:
                        array = self._elem_temps[value.name][0]
                        is_addr_use = (
                            isinstance(instr, (Load, Store))
                            and instr.addr == value
                            and not instr.is_float
                            and name in plan.template_blocks)
                        if not is_addr_use:
                            candidates.discard(array)
        return sorted(candidates)


#: IR instruction class -> its ``FunctionLowerer`` method.
_INSTR_LOWERERS = {
    Assign: FunctionLowerer._lower_assign,
    BinOp: FunctionLowerer._lower_binop,
    UnOp: FunctionLowerer._lower_unop,
    Load: FunctionLowerer._lower_load,
    Store: FunctionLowerer._lower_store,
    FrameAddr: FunctionLowerer._lower_frame_addr,
    Call: FunctionLowerer._lower_call,
    RegionLookup: FunctionLowerer._lower_region_lookup,
    RegionStitch: FunctionLowerer._lower_region_stitch,
}


def lower_module(module, layout: DataLayout,
                 plans_by_func: Optional[Dict[str, List[RegionPlan]]] = None,
                 reserve_action_regs: int = 0
                 ) -> Dict[str, CompiledFunction]:
    """Lower every function of a phi-free module."""
    plans_by_func = plans_by_func or {}
    compiled = {}
    for func in module.functions.values():
        lowerer = FunctionLowerer(func, layout,
                                  plans=plans_by_func.get(func.name),
                                  reserve_action_regs=reserve_action_regs)
        compiled[func.name] = lowerer.lower()
    return compiled
