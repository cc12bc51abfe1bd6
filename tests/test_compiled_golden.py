"""Golden digests of compiled code.

The static pipeline (IR build, SSA, optimization, region splitting,
lowering) may get faster, but what it emits must not change: every
word, label, frame size and region template (words, holes, fixups,
terminator, register actions).  This module pins one SHA-256 per
program and compile mode over a fixed set of programs -- Table 2 at
scales 1 and 0.5, the cache-pressure program, ``tests/corpus``, the
fuzz generator's seeds 0-39 and seeded variants of the five Table 2
generators -- plus a short digest per function, so a mismatch names
the first program, mode and function whose code differs.

Regenerate (only when an *intentional* change to compiled code lands,
and say which entries changed and why) with::

    PYTHONPATH=src python tests/test_compiled_golden.py --regen
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

from repro.bench import cachepressure
from repro.bench import workloads as table2
from repro.errors import ReproError
from repro.runtime.engine import compile_program
from repro.testing.genprog import generate_program

GOLDEN_PATH = Path(__file__).parent / "golden_compiled.json"
CORPUS_DIR = Path(__file__).parent / "corpus"

MODES = ("dynamic", "static")

#: seed of the Table 2 generator variants, and how many there are.
VARIANT_SEED = 1996
VARIANTS = 20


def _rpn(rng: random.Random, length: int) -> List[Tuple[int, int]]:
    """A random well-formed RPN expression of about ``length`` ops."""
    ops: List[Tuple[int, int]] = []
    depth = 0
    while len(ops) < length or depth > 1:
        if depth >= 2 and (len(ops) >= length or depth >= 6
                           or rng.random() < 0.45):
            ops.append((rng.choice((3, 4, 5)), 0))
            depth -= 1
        else:
            kind = rng.choice((0, 1, 2))
            ops.append((kind, rng.randint(1, 9) if kind == 0 else 0))
            depth += 1
    return ops


def _variant(rng: random.Random, kind: int) -> table2.Workload:
    """A seeded variant of one of the five Table 2 generators."""
    if kind == 0:
        return table2.calculator_workload(
            xs=rng.randint(2, 4), ys=rng.randint(2, 4),
            ops=_rpn(rng, rng.randint(5, 40)))
    if kind == 1:
        return table2.scalar_matrix_workload(
            rows=rng.randint(2, 8), cols=rng.randint(2, 16),
            scalars=rng.randint(2, 8))
    if kind == 2:
        return table2.sparse_matvec_workload(
            size=rng.randint(4, 30), per_row=rng.randint(1, 5),
            reps=rng.randint(1, 4), seed=rng.randrange(1 << 30))
    if kind == 3:
        return table2.event_dispatcher_workload(
            nguards=rng.randint(1, 20), events=rng.randint(5, 70),
            seed=rng.randrange(1 << 30))
    keys = [(rng.randrange(4), rng.randrange(3))
            for _ in range(rng.randint(1, 3))]
    return table2.record_sorter_workload(
        count=rng.randint(4, 100), keys=keys, seed=rng.randrange(1 << 30))


def programs() -> Iterator[Tuple[str, Callable[[], str]]]:
    """(name, source thunk) for every pinned program, in a fixed order."""
    for scale in (1.0, 0.5):
        for i, workload in enumerate(table2.all_workloads(scale=scale)):
            yield ("table2@%s/%d:%s" % (scale, i, workload.name),
                   lambda w=workload: w.source)
    yield "cachepressure", lambda: cachepressure.SOURCE
    for path in sorted(CORPUS_DIR.glob("*.c")):
        yield "corpus/" + path.name, path.read_text
    for seed in range(40):
        yield ("genprog/%d" % seed,
               lambda s=seed: generate_program(s).source)
    rng = random.Random(VARIANT_SEED)
    for i in range(VARIANTS):
        workload = _variant(rng, i % 5)
        yield ("variant/%d:%s" % (i, workload.name),
               lambda w=workload: w.source)


def _words(instrs) -> List[tuple]:
    return [(i.op, i.rd, i.ra, i.rb, i.imm, i.label, i.name, repr(i.extra),
             i.owner) for i in instrs]


def _template(block) -> tuple:
    term = block.term
    return (
        _words(block.instrs),
        [(h.offset, h.kind, h.slot) for h in block.holes],
        [(f.offset, f.label) for f in block.fixups],
        (term.kind, term.slot, term.if_true, term.if_false, term.cases,
         term.default, term.succs),
        [(a.kind, a.offset, a.array_offset, a.slot, a.const_index,
          a.removable) for a in block.actions],
    )


def function_record(compiled) -> tuple:
    """Everything lowering emitted for one function."""
    regions = [
        (region.region_id, region.entry, region.key_count,
         region.directive_count, region.promotable_arrays,
         region.free_registers,
         [(name, _template(region.blocks[name]))
          for name in sorted(region.blocks)])
        for region in compiled.regions
    ]
    return (compiled.name, _words(compiled.code),
            sorted(compiled.labels.items()), compiled.frame_size, regions)


def digest(source: str, mode: str) -> Dict[str, object]:
    """The program's SHA-256 and a short digest per function (or the
    compile error's class and message)."""
    try:
        program = compile_program(source, mode=mode)
    except ReproError as exc:
        return {"error": "%s: %s" % (type(exc).__name__, exc)}
    whole = hashlib.sha256()
    functions: Dict[str, str] = {}
    for name, compiled in program.compiled.items():
        text = repr(function_record(compiled)).encode()
        functions[name] = hashlib.sha256(text).hexdigest()[:16]
        whole.update(text)
    return {"sha256": whole.hexdigest(), "functions": functions}


def snapshot() -> Dict[str, Dict[str, object]]:
    return {name: {mode: digest(source(), mode) for mode in MODES}
            for name, source in programs()}


def first_difference(expected: Dict[str, Dict[str, object]],
                     actual: Dict[str, Dict[str, object]]) -> str:
    """One line naming the first program, mode and function that
    differs, or "" if none does."""
    if list(expected) != list(actual):
        return "program list differs: golden %d, now %d" % (
            len(expected), len(actual))
    for name in expected:
        for mode in MODES:
            want, got = expected[name][mode], actual[name][mode]
            if want == got:
                continue
            if "error" in want or "error" in got:
                return "%s [%s]: %s -> %s" % (
                    name, mode, want.get("error", "compiles"),
                    got.get("error", "compiles"))
            want_fns, got_fns = want["functions"], got["functions"]
            for fn in list(want_fns) + list(got_fns):
                if want_fns.get(fn) != got_fns.get(fn):
                    return "%s [%s]: function %s differs" % (name, mode, fn)
            return "%s [%s]: function order differs" % (name, mode)
    return ""


def test_compiled_code_matches_golden() -> None:
    expected = json.loads(GOLDEN_PATH.read_text())
    assert first_difference(expected, snapshot()) == ""


def _regen() -> None:
    GOLDEN_PATH.write_text(json.dumps(snapshot(), indent=1) + "\n")
    print("wrote %s" % GOLDEN_PATH)


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
