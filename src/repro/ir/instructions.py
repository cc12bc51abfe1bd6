"""Three-address code instructions.

The instruction set deliberately mirrors the paper's presentation
(section 3.1 and Appendix A): straight-line instructions are copies,
unary/binary operations, loads (optionally annotated ``dynamic``),
stores, calls and SSA phi functions; terminators are jumps, two-way
conditional branches, n-way switches and returns.

Instructions are mutable -- optimization passes rewrite operands in
place via :meth:`Instr.replace_uses` -- while operand *values* are
immutable (see :mod:`repro.ir.values`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .values import Temp, Value

# ---------------------------------------------------------------------------
# Operator tables
# ---------------------------------------------------------------------------

#: Integer binary operators.
INT_BINOPS = frozenset(
    [
        "add", "sub", "mul", "div", "udiv", "mod", "umod",
        "and", "or", "xor", "shl", "lshr", "ashr",
        "eq", "ne", "lt", "le", "gt", "ge", "ult", "ule", "ugt", "uge",
    ]
)

#: Floating-point binary operators (comparisons produce an int 0/1).
FLOAT_BINOPS = frozenset(
    ["fadd", "fsub", "fmul", "fdiv", "feq", "fne", "flt", "fle", "fgt", "fge"]
)

BINOPS = INT_BINOPS | FLOAT_BINOPS

#: Binary operators whose result is an integer even for float inputs.
COMPARISON_OPS = frozenset(
    ["eq", "ne", "lt", "le", "gt", "ge", "ult", "ule", "ugt", "uge",
     "feq", "fne", "flt", "fle", "fgt", "fge"]
)

#: Unary operators.  ``itof``/``ftoi`` convert between int and float.
UNOPS = frozenset(["neg", "fneg", "not", "bnot", "itof", "ftoi"])

#: Operators that can raise at run time.  Following the paper, these are
#: excluded from run-time constant derivation because set-up code hoists
#: constant computations to execute unconditionally.
TRAPPING_OPS = frozenset(["div", "udiv", "mod", "umod", "fdiv"])

#: Commutative integer/float operators, used by CSE value numbering.
COMMUTATIVE_OPS = frozenset(
    ["add", "mul", "and", "or", "xor", "eq", "ne", "fadd", "fmul", "feq", "fne"]
)


def is_speculatable(op: str) -> bool:
    """True if ``op`` is idempotent, side-effect free and non-trapping.

    Only such operators may produce derived run-time constants
    (paper section 3.1): their evaluation can be safely hoisted into
    set-up code that runs exactly once per dynamic region.
    """
    return op in BINOPS | UNOPS and op not in TRAPPING_OPS


# ---------------------------------------------------------------------------
# Instruction classes
# ---------------------------------------------------------------------------


class Instr:
    """Base class for all IR instructions."""

    __slots__ = ()

    def uses(self) -> List[Value]:
        """Values read by this instruction."""
        return []

    def defs(self) -> Optional[Temp]:
        """The Temp defined by this instruction, if any."""
        return None

    def replace_uses(self, mapping: Dict[Value, Value]) -> None:
        """Rewrite every used operand found in ``mapping``."""

    def is_terminator(self) -> bool:
        return False


class Assign(Instr):
    """``dst := src`` -- register copy or constant move."""

    __slots__ = ("dst", "src")

    def __init__(self, dst: Temp, src: Value):
        self.dst = dst
        self.src = src

    def uses(self) -> List[Value]:
        return [self.src]

    def defs(self) -> Optional[Temp]:
        return self.dst

    def replace_uses(self, mapping: Dict[Value, Value]) -> None:
        self.src = mapping.get(self.src, self.src)

    def __repr__(self) -> str:
        return "%r := %r" % (self.dst, self.src)


class BinOp(Instr):
    """``dst := lhs op rhs``."""

    __slots__ = ("dst", "op", "lhs", "rhs")

    def __init__(self, dst: Temp, op: str, lhs: Value, rhs: Value):
        if op not in BINOPS:
            raise ValueError("unknown binary operator: %r" % op)
        self.dst = dst
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def uses(self) -> List[Value]:
        return [self.lhs, self.rhs]

    def defs(self) -> Optional[Temp]:
        return self.dst

    def replace_uses(self, mapping: Dict[Value, Value]) -> None:
        self.lhs = mapping.get(self.lhs, self.lhs)
        self.rhs = mapping.get(self.rhs, self.rhs)

    def __repr__(self) -> str:
        return "%r := %r %s %r" % (self.dst, self.lhs, self.op, self.rhs)


class UnOp(Instr):
    """``dst := op src``."""

    __slots__ = ("dst", "op", "src")

    def __init__(self, dst: Temp, op: str, src: Value):
        if op not in UNOPS:
            raise ValueError("unknown unary operator: %r" % op)
        self.dst = dst
        self.op = op
        self.src = src

    def uses(self) -> List[Value]:
        return [self.src]

    def defs(self) -> Optional[Temp]:
        return self.dst

    def replace_uses(self, mapping: Dict[Value, Value]) -> None:
        self.src = mapping.get(self.src, self.src)

    def __repr__(self) -> str:
        return "%r := %s %r" % (self.dst, self.op, self.src)


class Load(Instr):
    """``dst := *addr`` (``dst := dynamic* addr`` when ``dynamic``).

    A ``dynamic`` load never produces a run-time constant even when its
    address is one -- the paper's escape hatch for partially-constant
    data structures.  ``is_float`` records whether the loaded cell holds
    a floating-point value.
    """

    __slots__ = ("dst", "addr", "dynamic", "is_float")

    def __init__(self, dst: Temp, addr: Value, dynamic: bool = False,
                 is_float: bool = False):
        self.dst = dst
        self.addr = addr
        self.dynamic = dynamic
        self.is_float = is_float

    def uses(self) -> List[Value]:
        return [self.addr]

    def defs(self) -> Optional[Temp]:
        return self.dst

    def replace_uses(self, mapping: Dict[Value, Value]) -> None:
        self.addr = mapping.get(self.addr, self.addr)

    def __repr__(self) -> str:
        star = "dynamic*" if self.dynamic else "*"
        return "%r := %s%r" % (self.dst, star, self.addr)


class Store(Instr):
    """``*addr := src``."""

    __slots__ = ("addr", "src", "is_float")

    def __init__(self, addr: Value, src: Value, is_float: bool = False):
        self.addr = addr
        self.src = src
        self.is_float = is_float

    def uses(self) -> List[Value]:
        return [self.addr, self.src]

    def replace_uses(self, mapping: Dict[Value, Value]) -> None:
        self.addr = mapping.get(self.addr, self.addr)
        self.src = mapping.get(self.src, self.src)

    def __repr__(self) -> str:
        return "*%r := %r" % (self.addr, self.src)


class Call(Instr):
    """``dst := callee(args...)``.

    ``pure`` marks idempotent, side-effect-free, non-trapping callees
    (``max``, ``cos``, ...) that may yield derived run-time constants.
    ``intrinsic`` marks callees implemented by the runtime rather than
    by MiniC code.
    """

    __slots__ = ("dst", "callee", "args", "pure", "intrinsic")

    def __init__(self, dst: Optional[Temp], callee: str, args: Sequence[Value],
                 pure: bool = False, intrinsic: bool = False):
        self.dst = dst
        self.callee = callee
        self.args = list(args)
        self.pure = pure
        self.intrinsic = intrinsic

    def uses(self) -> List[Value]:
        return list(self.args)

    def defs(self) -> Optional[Temp]:
        return self.dst

    def replace_uses(self, mapping: Dict[Value, Value]) -> None:
        self.args = [mapping.get(a, a) for a in self.args]

    def __repr__(self) -> str:
        args = ", ".join(repr(a) for a in self.args)
        if self.dst is None:
            return "%s(%s)" % (self.callee, args)
        return "%r := %s(%s)" % (self.dst, self.callee, args)


class Phi(Instr):
    """SSA phi: ``dst := phi(pred1: v1, ..., predn: vn)``."""

    __slots__ = ("dst", "args")

    def __init__(self, dst: Temp, args: Dict[str, Value]):
        self.dst = dst
        self.args = dict(args)

    def uses(self) -> List[Value]:
        return list(self.args.values())

    def defs(self) -> Optional[Temp]:
        return self.dst

    def replace_uses(self, mapping: Dict[Value, Value]) -> None:
        self.args = {p: mapping.get(v, v) for p, v in self.args.items()}

    def __repr__(self) -> str:
        args = ", ".join(
            "%s: %r" % (p, v) for p, v in sorted(self.args.items())
        )
        return "%r := phi(%s)" % (self.dst, args)


# ---------------------------------------------------------------------------
# Terminators
# ---------------------------------------------------------------------------


class Terminator(Instr):
    """Base class for block terminators."""

    __slots__ = ()

    def is_terminator(self) -> bool:
        return True

    def successors(self) -> List[str]:
        """Names of possible successor blocks."""
        return []

    def replace_successor(self, old: str, new: str) -> None:
        """Redirect every edge to ``old`` to point at ``new``."""


class Jump(Terminator):
    __slots__ = ("target",)

    def __init__(self, target: str):
        self.target = target

    def successors(self) -> List[str]:
        return [self.target]

    def replace_successor(self, old: str, new: str) -> None:
        if self.target == old:
            self.target = new

    def __repr__(self) -> str:
        return "jump %s" % self.target


class CondBr(Terminator):
    """Two-way branch: to ``if_true`` when ``cond`` is non-zero."""

    __slots__ = ("cond", "if_true", "if_false")

    def __init__(self, cond: Value, if_true: str, if_false: str):
        self.cond = cond
        self.if_true = if_true
        self.if_false = if_false

    def uses(self) -> List[Value]:
        return [self.cond]

    def replace_uses(self, mapping: Dict[Value, Value]) -> None:
        self.cond = mapping.get(self.cond, self.cond)

    def successors(self) -> List[str]:
        return [self.if_true, self.if_false]

    def replace_successor(self, old: str, new: str) -> None:
        if self.if_true == old:
            self.if_true = new
        if self.if_false == old:
            self.if_false = new

    def __repr__(self) -> str:
        return "if %r then %s else %s" % (self.cond, self.if_true, self.if_false)


class Switch(Terminator):
    """N-way branch on an integer value."""

    __slots__ = ("value", "cases", "default")

    def __init__(self, value: Value, cases: Sequence[Tuple[int, str]],
                 default: str):
        self.value = value
        self.cases = list(cases)
        self.default = default

    def uses(self) -> List[Value]:
        return [self.value]

    def replace_uses(self, mapping: Dict[Value, Value]) -> None:
        self.value = mapping.get(self.value, self.value)

    def successors(self) -> List[str]:
        seen: List[str] = []
        for _, label in self.cases:
            if label not in seen:
                seen.append(label)
        if self.default not in seen:
            seen.append(self.default)
        return seen

    def replace_successor(self, old: str, new: str) -> None:
        self.cases = [(v, new if l == old else l) for v, l in self.cases]
        if self.default == old:
            self.default = new

    def __repr__(self) -> str:
        cases = ", ".join("%d: %s" % (v, l) for v, l in self.cases)
        return "switch %r {%s} default %s" % (self.value, cases, self.default)


class Return(Terminator):
    __slots__ = ("value",)

    def __init__(self, value: Optional[Value] = None):
        self.value = value

    def uses(self) -> List[Value]:
        return [] if self.value is None else [self.value]

    def replace_uses(self, mapping: Dict[Value, Value]) -> None:
        if self.value is not None:
            self.value = mapping.get(self.value, self.value)

    def __repr__(self) -> str:
        if self.value is None:
            return "return"
        return "return %r" % self.value
