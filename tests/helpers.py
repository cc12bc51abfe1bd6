"""Shared helpers for the test suite."""

from __future__ import annotations

import copy
from typing import List, Optional, Tuple, Union

from repro.backends import PycodeBackend, RVMBackend
from repro.dynamic.splitter import split_module
from repro.frontend.parser import parse
from repro.frontend.typecheck import check
from repro.ir.builder import build_module
from repro.ir.cfg import Module
from repro.ir.ssa import from_ssa, to_ssa
from repro.opt.pipeline import OptOptions, optimize
from repro.runtime.engine import compile_program
from repro.runtime.interp import Interpreter

Number = Union[int, float]


class NaiveLoop:
    """Test-local backend mixin: while ``naive`` is set, runs use the
    retained instruction-at-a-time loop
    (:meth:`~repro.backends.rvm.RVMBackend.run_naive`) in place of the
    threaded handlers, the reference the dispatch-equivalence tests
    compare against.  Clearing ``naive`` switches every program built
    on the instance, and its cached VM, back to the threaded loop."""

    def __init__(self, naive: bool = True):
        super().__init__()
        self.naive = naive

    def execute(self, vm, entry, int_args=None):
        if self.naive:
            return RVMBackend().run_naive(vm, vm.enter(entry, int_args))
        return super().execute(vm, entry, int_args)


class NaiveRVM(NaiveLoop, RVMBackend):
    """rvm with a switchable dispatch loop (see :class:`NaiveLoop`)."""


class NaivePycode(NaiveLoop, PycodeBackend):
    """pycode with a switchable dispatch loop (see :class:`NaiveLoop`)."""


def build(source: str) -> Module:
    """Parse, check and lower MiniC to an IR module."""
    return build_module(check(parse(source)))


def interp_run(source: str, func: str = "main",
               args: Optional[List[Number]] = None
               ) -> Tuple[Optional[Number], List[Number]]:
    """Reference-interpret MiniC; returns (result, printed output)."""
    module = build(source)
    interp = Interpreter(module)
    return interp.run(func, args), interp.output


def ssa_module(source: str, optimize_too: bool = True) -> Module:
    module = build(source)
    for func in module.functions.values():
        to_ssa(func)
        if optimize_too:
            optimize(func)
    return module


def run_all_ways(source: str, func: str = "main",
                 args: Optional[List[Number]] = None
                 ) -> Tuple[Number, List[Number]]:
    """Run a program five ways and assert they all agree.

    1. reference interpreter on raw IR
    2. reference interpreter on optimized SSA IR
    3. reference interpreter on post-split IR (if it has regions)
    4. compiled static code on the VM
    5. compiled dynamic (stitched) code on the VM

    Returns the agreed (value, output).
    """
    module = build(source)
    interp = Interpreter(copy.deepcopy(module))
    expected = interp.run(func, args)
    expected_out = list(interp.output)

    opt_mod = copy.deepcopy(module)
    for f in opt_mod.functions.values():
        to_ssa(f)
        optimize(f)
    interp2 = Interpreter(copy.deepcopy(opt_mod))
    got = interp2.run(func, args)
    assert got == expected, "optimized interp: %r != %r" % (got, expected)
    assert interp2.output == expected_out

    has_regions = any(f.regions for f in module.functions.values())
    if has_regions:
        split_mod = copy.deepcopy(opt_mod)
        plans = split_module(split_mod)
        interp3 = Interpreter(split_mod, plans=plans)
        got = interp3.run(func, args)
        assert got == expected, "post-split interp: %r != %r" % (got, expected)
        assert interp3.output == expected_out

    static = compile_program(source, mode="static")
    rs = static.run(func, args)
    assert rs.value == expected, "static VM: %r != %r" % (rs.value, expected)
    assert rs.output == expected_out

    dynamic = compile_program(source, mode="dynamic")
    rd = dynamic.run(func, args)
    assert rd.value == expected, "dynamic VM: %r != %r" % (rd.value, expected)
    assert rd.output == expected_out
    return expected, expected_out


def ssa_then_back(source: str, func: str = "main",
                  args: Optional[List[Number]] = None) -> None:
    """SSA round-trip must preserve interpreter results."""
    module = build(source)
    interp = Interpreter(copy.deepcopy(module))
    expected = interp.run(func, args)
    for f in module.functions.values():
        to_ssa(f)
        f.verify()
    mid = Interpreter(copy.deepcopy(module)).run(func, args)
    assert mid == expected
    for f in module.functions.values():
        from_ssa(f)
        f.verify()
    post = Interpreter(module).run(func, args)
    assert post == expected
