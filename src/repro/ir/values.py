"""Operand values for the three-address intermediate representation.

The IR is register-based: instruction operands are either virtual
registers (:class:`Temp`), literal constants (:class:`IntConst`,
:class:`FloatConst`), symbolic addresses (:class:`GlobalAddr`), or --
only inside extracted template code -- references to run-time constant
table slots (:class:`HoleRef`).

Values are immutable and hashable so they can be used as dictionary
keys by the dataflow analyses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class Temp:
    """A virtual register.

    ``name`` is unique within a function.  SSA renaming produces names
    of the form ``base.N``; compiler-generated temporaries are ``tN``.
    """

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class IntConst:
    """A compile-time integer constant (64-bit two's complement)."""

    value: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", wrap_int(self.value))

    def __repr__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class FloatConst:
    """A compile-time floating-point constant (IEEE double)."""

    value: float

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class GlobalAddr:
    """The address of a global symbol (function or global variable)."""

    name: str

    def __repr__(self) -> str:
        return "@" + self.name


@dataclass(frozen=True)
class HoleRef:
    """A reference to a run-time constants table slot.

    Holes appear only in template code produced by the region splitter.
    ``index`` is the slot within the table identified by ``loop_id``:
    ``loop_id`` is ``None`` for the region's top-level table and the
    id of an unrolled loop for per-iteration subtables (the paper's
    ``hole4.1`` notation).  ``is_float`` records the value's type so
    code generation can decide between immediate patching and a load
    from the linearized large-constants table.
    """

    index: int
    loop_id: Union[int, None] = None
    is_float: bool = False

    def __repr__(self) -> str:
        if self.loop_id is None:
            return "hole%d" % self.index
        return "hole%d.%d" % (self.loop_id, self.index)


Value = Union[Temp, IntConst, FloatConst, GlobalAddr, HoleRef]

_INT_MASK = (1 << 64) - 1
_INT_SIGN = 1 << 63


def wrap_int(value: int) -> int:
    """Wrap ``value`` to a signed 64-bit integer (two's complement)."""
    value &= _INT_MASK
    if value & _INT_SIGN:
        value -= 1 << 64
    return value


def to_unsigned(value: int) -> int:
    """Reinterpret a signed 64-bit integer as unsigned."""
    return value & _INT_MASK
