"""The ``rvm`` backend: predecoded threaded dispatch (the oracle).

This is the historical execution engine extracted out of
:mod:`repro.machine.vm` and put behind the
:class:`~repro.backends.base.ExecutionBackend` seam.  Two pieces live
here:

* :func:`predecode` -- specialize one installed :class:`MInstr` into a
  threaded handler.  The ~20 near-identical ``def handler(pc)`` bodies
  the VM used to inline are deduplicated into a *table-driven
  builder*: every opcode contributes only its semantic body (a few
  source lines); one shared template supplies the accounting prelude
  (add the cost to the cycle total, bump the instruction's count cell,
  check the cycle budget) and binds everything the body reads as
  default arguments, so a handler holds no closure cell.  The factories
  are generated once at import time with :func:`exec`, so
  per-instruction predecode cost is a dict probe plus one factory
  call -- the same as the hand-written version.

* :class:`RVMBackend` -- the naive decode loop and the threaded
  dispatch loop as two methods of one backend class.  Every run uses
  the threaded loop; the naive loop is the reference the differential
  tests run against it (through a test-local backend), and the two
  are required to stay equivalent -- same results, same traps with the
  same messages, bit-identical cycle/owner/opcode accounting.

Nothing here imports :mod:`repro.machine.vm`: the VM is always passed
in, which is what lets the VM itself delegate to this module without
an import cycle.
"""

from __future__ import annotations

from types import CodeType
from typing import Callable, Dict, List, Tuple

from ..errors import VMError
from ..ir.semantics import EvalTrap, binop_impl  # noqa: F401 (exec ns)
from ..ir.values import wrap_int  # noqa: F401 (exec namespace)
from ..machine.isa import (
    ALU_OPS, FALU_OPS, FRV, MInstr, RA, RD_WRITING_OPS, RETURN_SENTINEL,
    RV, ZERO,
)
from .base import ExecutionBackend

#: One predecoded instruction: takes its own pc, returns the next pc.
Handler = Callable[[int], int]


# ---------------------------------------------------------------------------
# The table-driven handler builder.
#
# Each entry is (setup, body): ``setup`` runs once at predecode time
# (extra per-instruction bindings beyond the standard ones), ``body``
# is the handler's semantics after the shared accounting prelude.
# Bodies end with a ``return`` of the next pc.  ``%(binds)s`` becomes
# one default argument per factory name the prelude and body read.
# ---------------------------------------------------------------------------

_FACTORY_TEMPLATE = """\
def _factory(vm, instr, cyc, maxc, count):
    regs = vm.regs
    memory = vm.memory
    memlen = vm.memory_words
    cost = instr.cost
    rd = instr.rd
    ra = instr.ra
    rb = instr.rb
    imm = instr.imm
%(setup)s
    def handler(pc%(binds)s):
        total = cyc[0] + cost
        cyc[0] = total
        count[0] += 1
        if total > maxc[0]:
            raise VMError("cycle budget exceeded")
%(body)s
    return handler
"""

#: spec name -> (predecode-time setup lines, handler body lines).
_HANDLER_TABLE: Dict[str, Tuple[str, str]] = {
    "load": ("", """\
addr = int(regs[ra]) + imm
if not 0 <= addr < memlen:
    raise VMError("load from wild address %#x at pc %d" % (addr, pc))
try:
    regs[rd] = memory[addr]
except KeyError:  # never written: reads 0
    regs[rd] = 0
return pc + 1
"""),
    "store": ("", """\
addr = int(regs[ra]) + imm
if not 0 <= addr < memlen:
    raise VMError("store to wild address %#x at pc %d" % (addr, pc))
memory[addr] = regs[rb]
return pc + 1
"""),
    # Constant materialization: the immediate always fits.
    "lda_const": ("", """\
regs[rd] = imm
return pc + 1
"""),
    "lda_add": ("", """\
regs[rd] = wrap_int(int(regs[ra]) + imm)
return pc + 1
"""),
    "ldih": ("imm16 = imm & 0xFFFF\n", """\
regs[rd] = wrap_int((int(regs[rd]) << 16) | imm16)
return pc + 1
"""),
    "alu_rr": ("fn = binop_impl(ALU_OPS[instr.op])\n", """\
try:
    regs[rd] = fn(int(regs[ra]), int(regs[rb]))
except EvalTrap as trap:
    raise VMError("arithmetic trap at pc %d: %s" % (pc, trap))
return pc + 1
"""),
    "alu_ri": ("fn = binop_impl(ALU_OPS[instr.op])\n", """\
try:
    regs[rd] = fn(int(regs[ra]), imm)
except EvalTrap as trap:
    raise VMError("arithmetic trap at pc %d: %s" % (pc, trap))
return pc + 1
"""),
    "falu": ("fn = binop_impl(FALU_OPS[instr.op])\n", """\
try:
    regs[rd] = fn(float(regs[ra]), float(regs[rb]))
except EvalTrap as trap:
    raise VMError("float trap at pc %d: %s" % (pc, trap))
return pc + 1
"""),
    "mov": ("", """\
regs[rd] = regs[ra]
return pc + 1
"""),
    # Control flow reads ``instr.target`` / ``instr.extra`` at
    # execution time: the loader and the stitcher patch those fields
    # after installation.
    "br": ("i = instr\n", """\
target = i.target
if target < 0:
    raise VMError("pc out of range: %d" % target)
return target
"""),
    "condbr": ("""\
taken_if_zero = instr.op == "beq"
i = instr
""", """\
if (regs[ra] == 0) == taken_if_zero:
    target = i.target
    if target < 0:
        raise VMError("pc out of range: %d" % target)
    return target
return pc + 1
"""),
    "jtab": ("i = instr\n", """\
targets, default = i.extra  # resolved by the loader
index = int(regs[ra]) - imm
if 0 <= index < len(targets):
    target = targets[index]
else:
    target = default
if target < 0:
    raise VMError("pc out of range: %d" % target)
return target
"""),
    "negq": ("", """\
regs[rd] = wrap_int(-int(regs[ra]))
return pc + 1
"""),
    "ornot": ("", """\
regs[rd] = wrap_int(~int(regs[ra]))
return pc + 1
"""),
    "fneg": ("", """\
regs[rd] = -float(regs[ra])
return pc + 1
"""),
    "cvtqt": ("", """\
regs[rd] = float(int(regs[ra]))
return pc + 1
"""),
    "cvttq": ("", """\
regs[rd] = wrap_int(int(float(regs[ra])))
return pc + 1
"""),
    "jsr": ("i = instr\n", """\
regs[RA] = pc + 1
target = i.target
if target < 0:
    raise VMError("pc out of range: %d" % target)
return target
"""),
    "ret": ("", """\
target = int(regs[RA])
if target < 0 and target != RETURN_SENTINEL:
    raise VMError("pc out of range: %d" % target)
return target
"""),
    "jmp": ("", """\
target = int(regs[ra])
if target < 0 and target != RETURN_SENTINEL:
    raise VMError("pc out of range: %d" % target)
return target
"""),
    # The run-scoped slot, not the bound ``vm._call_rt``: a handler
    # that held the VM would make every VM a reference cycle.
    "call_rt": ("""\
rt = vm._rt
i = instr
""", """\
rt[0](i)
return pc + 1
"""),
    "halt": ("", "return RETURN_SENTINEL\n"),
    "nop": ("", "return pc + 1\n"),
    # Unknown opcodes fault at execution time (not install time),
    # after charging, exactly like the interpretive loop.
    "unknown": ("i = instr\n", """\
raise VMError("unknown opcode %r at pc %d" % (i.op, pc))
"""),
}


def _indent(block: str, spaces: int) -> str:
    pad = " " * spaces
    return "".join(pad + line + "\n" if line else "\n"
                   for line in block.splitlines())


def _build_factories() -> Dict[str, Callable]:
    namespace_base = {
        "VMError": VMError, "EvalTrap": EvalTrap,
        "binop_impl": binop_impl, "wrap_int": wrap_int,
        "ALU_OPS": ALU_OPS, "FALU_OPS": FALU_OPS,
        "RA": RA, "ZERO": ZERO, "RETURN_SENTINEL": RETURN_SENTINEL,
    }
    factories: Dict[str, Callable] = {}
    for spec, (setup, body) in _HANDLER_TABLE.items():
        parts = {"setup": _indent(setup, 4), "body": _indent(body, 8),
                 "binds": ""}
        # Compile once with closures to learn which names the handler
        # reads, then bind exactly those as defaults.
        factory_code = _code_consts(compile(
            _FACTORY_TEMPLATE % parts, "<probe>", "exec"))[0]
        names = _code_consts(factory_code)[0].co_freevars
        parts["binds"] = "".join(", %s=%s" % (name, name) for name in names)
        namespace = dict(namespace_base)
        exec(compile(_FACTORY_TEMPLATE % parts, "<rvm-handler:%s>" % spec,
                     "exec"), namespace)
        factories[spec] = namespace["_factory"]
    return factories


def _code_consts(code: CodeType) -> List[CodeType]:
    return [const for const in code.co_consts
            if isinstance(const, CodeType)]


_FACTORIES = _build_factories()

#: opcodes with a fixed spec (forms with operand-dependent variants --
#: ``lda`` and the ALU group -- are resolved in :func:`predecode`).
_SPEC_BY_OP: Dict[str, str] = {
    "ldq": "load", "ldt": "load",
    "stq": "store", "stt": "store",
    "ldih": "ldih",
    "mov": "mov", "fmov": "mov",
    "br": "br", "beq": "condbr", "bne": "condbr", "jtab": "jtab",
    "negq": "negq", "ornot": "ornot", "fneg": "fneg",
    "cvtqt": "cvtqt", "cvttq": "cvttq",
    "jsr": "jsr", "ret": "ret", "jmp": "jmp",
    "call_rt": "call_rt", "halt": "halt", "nop": "nop",
}
for _op in FALU_OPS:
    _SPEC_BY_OP[_op] = "falu"


def _wrap_rd_zero(regs, inner: Handler) -> Handler:
    """r31 reads as zero: perform the operation (traps and memory
    faults still fire) but discard the result."""
    def handler(pc: int, inner=inner, regs=regs) -> int:
        next_pc = inner(pc)
        regs[ZERO] = 0
        return next_pc
    return handler


def predecode(vm, instr: MInstr) -> Handler:
    """Specialize one installed instruction into a threaded handler.

    Every handler adds its bound cost to the cycle total, bumps the
    bound count cell of its ``(owner, opcode, cost)``, checks the cycle
    budget, performs the operation and returns the next pc.
    """
    op = instr.op
    spec = _SPEC_BY_OP.get(op)
    if spec is None:
        if op == "lda":
            spec = "lda_const" if instr.ra == ZERO else "lda_add"
        elif op in ALU_OPS:
            spec = "alu_rr" if instr.rb is not None else "alu_ri"
        else:
            spec = "unknown"
    handler = _FACTORIES[spec](vm, instr, vm._cyc, vm._maxc,
                               vm._count_cell(instr.owner, op, instr.cost))
    if instr.rd == ZERO and op in RD_WRITING_OPS:
        handler = _wrap_rd_zero(vm.regs, handler)
    return handler


class RVMBackend(ExecutionBackend):
    """Today's engine: per-instruction handlers, threaded dispatch.

    The semantic oracle every other backend is differentially checked
    against.  ``run_threaded`` and ``run_naive`` are the two dispatch
    variants: ``VM.run`` drives the first, and tests check the first
    against the second.
    """

    name = "rvm"

    def run_threaded(self, vm, pc: int) -> Tuple[int, float]:
        """The fast path: ``pc = handlers[pc](pc)`` until the sentinel.

        For the length of the loop the VM's runtime-call slot holds
        ``vm._call_rt`` (the previous value comes back on exit), so the
        ``call_rt`` handlers reach the VM without holding it."""
        handlers = vm.handlers
        regs = vm.regs
        rt = vm._rt
        outer = rt[0]
        rt[0] = vm._call_rt
        try:
            while pc != RETURN_SENTINEL:
                pc = handlers[pc](pc)
        except IndexError:
            if 0 <= pc < len(handlers):
                raise  # a genuine IndexError inside a runtime service
            raise VMError("pc out of range: %d" % pc) from None
        finally:
            rt[0] = outer
        return int(regs[RV]), float(regs[FRV])

    def run_naive(self, vm, pc: int) -> Tuple[int, float]:
        """The slow path: decode every instruction on every execution.

        This is the dispatch loop the predecoded handlers replaced.  It
        is retained deliberately, as the oracle for the fast path: each
        step charges the same pre-assigned cost, bumps the same count
        cell, checks the same budget, raises the same faults with the
        same messages, reads never-written memory as 0 and discards
        results written to r31, so both dispatchers must produce
        bit-identical accounting.
        """
        regs = vm.regs
        memory = vm.memory
        memlen = vm.memory_words
        cyc = vm._cyc
        maxc = vm._maxc
        code = vm.code
        while pc != RETURN_SENTINEL:
            if not 0 <= pc < len(code):
                raise VMError("pc out of range: %d" % pc)
            instr = code[pc]
            op = instr.op
            cost = instr.cost
            total = cyc[0] + cost
            cyc[0] = total
            vm._count_cell(instr.owner, op, cost)[0] += 1
            if total > maxc[0]:
                raise VMError("cycle budget exceeded")
            rd = instr.rd
            ra = instr.ra
            rb = instr.rb
            imm = instr.imm
            next_pc = pc + 1
            if op == "ldq" or op == "ldt":
                addr = int(regs[ra]) + imm
                if not 0 <= addr < memlen:
                    raise VMError("load from wild address %#x at pc %d"
                                  % (addr, pc))
                try:
                    regs[rd] = memory[addr]
                except KeyError:  # never written: reads 0
                    regs[rd] = 0
            elif op == "stq" or op == "stt":
                addr = int(regs[ra]) + imm
                if not 0 <= addr < memlen:
                    raise VMError("store to wild address %#x at pc %d"
                                  % (addr, pc))
                memory[addr] = regs[rb]
            elif op == "lda":
                if ra == ZERO:
                    regs[rd] = imm
                else:
                    regs[rd] = wrap_int(int(regs[ra]) + imm)
            elif op == "ldih":
                regs[rd] = wrap_int((int(regs[rd]) << 16) | (imm & 0xFFFF))
            elif op in ALU_OPS:
                fn = binop_impl(ALU_OPS[op])
                try:
                    if rb is not None:
                        regs[rd] = fn(int(regs[ra]), int(regs[rb]))
                    else:
                        regs[rd] = fn(int(regs[ra]), imm)
                except EvalTrap as trap:
                    raise VMError("arithmetic trap at pc %d: %s"
                                  % (pc, trap))
            elif op in FALU_OPS:
                fn = binop_impl(FALU_OPS[op])
                try:
                    regs[rd] = fn(float(regs[ra]), float(regs[rb]))
                except EvalTrap as trap:
                    raise VMError("float trap at pc %d: %s" % (pc, trap))
            elif op == "mov" or op == "fmov":
                regs[rd] = regs[ra]
            elif op == "br":
                target = instr.target
                if target < 0:
                    raise VMError("pc out of range: %d" % target)
                next_pc = target
            elif op == "beq" or op == "bne":
                if (regs[ra] == 0) == (op == "beq"):
                    target = instr.target
                    if target < 0:
                        raise VMError("pc out of range: %d" % target)
                    next_pc = target
            elif op == "jtab":
                targets, default = instr.extra  # resolved by the loader
                index = int(regs[ra]) - imm
                if 0 <= index < len(targets):
                    target = targets[index]
                else:
                    target = default
                if target < 0:
                    raise VMError("pc out of range: %d" % target)
                next_pc = target
            elif op == "negq":
                regs[rd] = wrap_int(-int(regs[ra]))
            elif op == "ornot":
                regs[rd] = wrap_int(~int(regs[ra]))
            elif op == "fneg":
                regs[rd] = -float(regs[ra])
            elif op == "cvtqt":
                regs[rd] = float(int(regs[ra]))
            elif op == "cvttq":
                regs[rd] = wrap_int(int(float(regs[ra])))
            elif op == "jsr":
                regs[RA] = pc + 1
                target = instr.target
                if target < 0:
                    raise VMError("pc out of range: %d" % target)
                next_pc = target
            elif op == "ret":
                target = int(regs[RA])
                if target < 0 and target != RETURN_SENTINEL:
                    raise VMError("pc out of range: %d" % target)
                next_pc = target
            elif op == "jmp":
                target = int(regs[ra])
                if target < 0 and target != RETURN_SENTINEL:
                    raise VMError("pc out of range: %d" % target)
                next_pc = target
            elif op == "call_rt":
                vm._call_rt(instr)
            elif op == "halt":
                next_pc = RETURN_SENTINEL
            elif op == "nop":
                pass
            else:
                raise VMError("unknown opcode %r at pc %d" % (op, pc))
            if rd == ZERO and op in RD_WRITING_OPS:
                regs[ZERO] = 0
            pc = next_pc
        return int(regs[RV]), float(regs[FRV])
