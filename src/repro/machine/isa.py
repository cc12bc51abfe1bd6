"""RVM: the reproduction's RISC instruction set.

A 64-bit load/store architecture modelled on the DEC Alpha 21064 the
paper evaluated on: 32 integer registers (r31 reads as zero), 32
floating-point registers, 16-bit immediates, explicit compare
instructions producing 0/1, and conditional branches that test a
register against zero.

Deviations from the real Alpha, chosen for simulator simplicity and
documented in DESIGN.md: memory is word-addressed (one address = one
64-bit cell); ALU immediates are 16-bit rather than 8-bit; integer
divide exists as an (expensive) instruction instead of a software
routine; ``call_rt`` invokes runtime services (allocation, I/O, the
stitcher) directly.

Register conventions::

    r0        integer return value
    r1-r15    allocatable (callee saved)
    r16-r21   integer argument registers (volatile)
    r22-r25   allocatable (callee saved)
    r26       return address (ra)
    r27       linearized constants-table base inside stitched code
    r28       assembler scratch (immediate materialization, spills)
    r29       reserved
    r30       stack pointer (sp)
    r31       always zero
    f0        float return value; f16-f21 float args
    f1-f15, f22-f27  allocatable floats

Float registers are numbered 32..63 internally (``FREG_BASE + n``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

FREG_BASE = 32

ZERO = 31
SP = 30
RA = 26
CPOOL = 27
SCRATCH = 28
SCRATCH2 = 29
RV = 0
FRV = FREG_BASE + 0
ARG_BASE = 16
NUM_ARG_REGS = 6

INT_ALLOCATABLE = list(range(1, 16)) + list(range(22, 26))
FLOAT_ALLOCATABLE = [FREG_BASE + n for n in
                     list(range(1, 16)) + list(range(22, 28))]

IMM_MIN = -(1 << 15)
IMM_MAX = (1 << 15) - 1

#: The "return to host" pc: ``VM.run`` seeds ``RA`` with it, and a
#: ``ret``/``jmp``/``halt`` reaching it ends execution.  Shared by the
#: execution backends (:mod:`repro.backends`) and the VM itself.
RETURN_SENTINEL = -2


def fits_imm(value: int) -> bool:
    """Does ``value`` fit the 16-bit signed immediate field?"""
    return IMM_MIN <= value <= IMM_MAX


def is_float_reg(reg: int) -> bool:
    return reg >= FREG_BASE


def reg_name(reg: Optional[int]) -> str:
    if reg is None:
        return "_"
    if reg == ZERO:
        return "zero"
    if reg == SP:
        return "sp"
    if reg == RA:
        return "ra"
    if reg >= FREG_BASE:
        return "f%d" % (reg - FREG_BASE)
    return "r%d" % reg


#: Integer ALU opcodes (register or immediate second operand), mapping
#: to the shared IR semantics in :mod:`repro.ir.semantics`.
ALU_OPS: Dict[str, str] = {
    "addq": "add", "subq": "sub", "mulq": "mul",
    "divq": "div", "udivq": "udiv", "remq": "mod", "uremq": "umod",
    "and": "and", "bis": "or", "xor": "xor",
    "sll": "shl", "srl": "lshr", "sra": "ashr",
    "cmpeq": "eq", "cmpne": "ne",
    "cmplt": "lt", "cmple": "le",
    "cmpult": "ult", "cmpule": "ule",
}

#: Floating-point ALU opcodes.
FALU_OPS: Dict[str, str] = {
    "addt": "fadd", "subt": "fsub", "mult": "fmul", "divt": "fdiv",
    "cmpteq": "feq", "cmptne": "fne", "cmptlt": "flt", "cmptle": "fle",
}

#: Opcodes that write an integer/float destination register (``rd``).
#: The VM's predecoder uses this to special-case writes to the
#: architecturally-zero register and to the stack pointer.
RD_WRITING_OPS = frozenset(
    list(ALU_OPS) + list(FALU_OPS) + [
        "lda", "ldih", "ldq", "ldt", "mov", "fmov",
        "negq", "fneg", "ornot", "cvtqt", "cvttq",
    ]
)

#: All opcodes, for validation.
OPCODES = frozenset(
    list(ALU_OPS) + list(FALU_OPS) + [
        "lda",        # rd = ra + imm
        "ldih",       # rd = (rd << 16) | (imm & 0xffff): constant building
        "ldq", "stq",  # integer load/store: mem[ra + imm]
        "ldt", "stt",  # float load/store
        "mov", "fmov",  # register moves
        "negq", "fneg", "ornot",  # ornot rd, zero, rb = bitwise not
        "cvtqt",      # int reg -> float reg
        "cvttq",      # float reg -> int reg (truncate)
        "br",         # unconditional pc-relative branch
        "beq", "bne",  # branch if (ra == 0) / (ra != 0)
        "jtab",       # jump table: index = ra - imm; labels in .extra
        "jmp",        # indirect jump through ra
        "jsr",        # call (label); pushes pc+1 into RA
        "ret",        # jump through RA
        "call_rt",    # runtime service call (name in .name)
        "halt",
        "nop",
    ]
)


class MInstr:
    """One machine instruction.

    ``rb is None`` selects the immediate form for ALU operations.
    ``label`` is a symbolic branch/call target; the loader (or the
    stitcher, for template copies) resolves it into ``target``, an
    absolute code address.  ``owner`` attributes executed cycles to a
    component (``"fn:NAME"``, ``"setup:R"``, ``"stitched:R"``...).
    """

    __slots__ = ("op", "rd", "ra", "rb", "imm", "label", "name", "extra",
                 "owner", "target", "cost")

    def __init__(self, op: str, rd: Optional[int] = None,
                 ra: Optional[int] = None, rb: Optional[int] = None,
                 imm: int = 0, label: Optional[str] = None,
                 name: Optional[str] = None, extra: object = None,
                 owner: str = ""):
        self.op = op
        self.rd = rd
        self.ra = ra
        self.rb = rb
        self.imm = imm
        self.label = label
        self.name = name
        self.extra = extra
        self.owner = owner
        self.target: int = -1
        self.cost: int = 1  # filled in when code is installed

    def copy(self) -> "MInstr":
        # The stitcher clones template instructions on every stitch;
        # bypassing __init__ roughly halves the cost of a copy.
        clone = MInstr.__new__(MInstr)
        clone.op = self.op
        clone.rd = self.rd
        clone.ra = self.ra
        clone.rb = self.rb
        clone.imm = self.imm
        clone.label = self.label
        clone.name = self.name
        clone.extra = self.extra
        clone.owner = self.owner
        clone.target = self.target
        clone.cost = self.cost
        return clone

    def __repr__(self) -> str:
        parts: List[str] = [self.op]
        regs = [reg_name(r) for r in (self.rd, self.ra, self.rb)
                if r is not None]
        if regs:
            parts.append(", ".join(regs))
        if self.op in ("lda", "ldq", "stq", "ldt", "stt") or (
                self.rb is None and self.op in ALU_OPS):
            parts.append("#%d" % self.imm)
        if self.label is not None:
            parts.append("-> %s" % self.label)
        if self.name is not None:
            parts.append("[%s]" % self.name)
        return " ".join(parts)


def materialize_int(emit: Callable[[MInstr], object], reg: int,
                    value: int) -> None:
    """Emit, through ``emit``, a load of an arbitrary 64-bit constant
    into ``reg``: one ``lda`` when it fits the immediate field, else an
    ``lda`` of 0 and one ``ldih`` per significant 16-bit chunk."""
    if fits_imm(value):
        emit(MInstr("lda", rd=reg, ra=ZERO, imm=value))
        return
    unsigned = value & ((1 << 64) - 1)
    chunks = [(unsigned >> shift) & 0xFFFF for shift in (48, 32, 16, 0)]
    while len(chunks) > 1 and chunks[0] == 0:
        chunks.pop(0)
    emit(MInstr("lda", rd=reg, ra=ZERO, imm=0))
    for chunk in chunks:
        emit(MInstr("ldih", rd=reg, imm=chunk))
