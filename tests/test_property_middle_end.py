"""Properties of the middle end over generated programs (hypothesis).

What the optimizer's fixpoint stop and semi-pruned SSA rely on:

* every optimizer pass that returns 0 leaves the printed IR (and the
  region values it keeps in sync) unchanged, so ``optimize`` may stop
  once every enabled pass has run with no change since the last one;
* a second ``optimize`` call on an optimized function rewrites nothing;
* programs compile to the same words with the shipped ``to_ssa`` and
  with ``tests/reference_ssa.py``'s minimal phi placement.

Programs come from the fuzzer's generator; CI's fuzz job runs these
with ``HYPOTHESIS_PROFILE=thorough``.
"""

from __future__ import annotations

from unittest import mock

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

import reference_ssa
from repro.errors import ReproError
from repro.frontend.parser import parse
from repro.frontend.typecheck import check
from repro.ir.builder import build_module
from repro.ir.printer import format_function
from repro.ir.ssa import to_ssa
from repro.opt.pipeline import _PASS_ORDER, OptOptions, optimize
from repro.runtime import engine
from repro.testing.genprog import generate_program
from test_compiled_golden import function_record

seeds = st.integers(min_value=0, max_value=1 << 20)

SLOW = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _ssa_functions(seed: int):
    module = build_module(check(parse(generate_program(seed).source)))
    for func in module.functions.values():
        to_ssa(func)
    return list(module.functions.values())


def _printed(func) -> str:
    regions = [(region.const_temps, region.key_temps)
               for region in func.regions]
    return format_function(func) + repr(regions)


@SLOW
@given(seeds)
def test_pass_returning_zero_leaves_ir_unchanged(seed):
    for func in _ssa_functions(seed):
        unchanged = 0
        for _ in range(OptOptions().max_rounds):
            for name, _, _, pass_fn in _PASS_ORDER:
                before = _printed(func)
                if pass_fn(func):
                    unchanged = 0
                else:
                    assert _printed(func) == before, name
                    unchanged += 1
            if unchanged >= len(_PASS_ORDER):
                break


@SLOW
@given(seeds)
def test_second_optimize_rewrites_nothing(seed):
    for func in _ssa_functions(seed):
        optimize(func)
        before = _printed(func)
        stats = optimize(func)
        assert (stats.total(), stats.rounds) == (0, 1)
        assert _printed(func) == before


def _compiled(source: str, mode: str):
    try:
        program = engine.compile_program(source, mode=mode)
    except ReproError as exc:
        return type(exc).__name__
    return [function_record(function)
            for function in program.compiled.values()]


@SLOW
@given(seeds)
def test_semi_pruned_ssa_compiles_like_minimal_placement(seed):
    source = generate_program(seed).source
    for mode in ("dynamic", "static"):
        shipped = _compiled(source, mode)
        with mock.patch.object(engine, "to_ssa", reference_ssa.to_ssa):
            reference = _compiled(source, mode)
        assert shipped == reference, mode
