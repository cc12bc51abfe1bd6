"""Golden cycle-accounting regression tests.

The VM's execution fast path (predecoded threaded dispatch) and the
stitcher's copy-and-patch fast path are *host-side* optimizations: the
simulated observables -- ``cycles``, ``cycles_by_owner``,
``instrs_by_owner``, ``op_counts``, and every :class:`StitchReport`
field -- must be bit-identical to the original interpretive
implementation.  This module pins them against snapshots taken from
the pre-fast-path implementation (``golden_accounting.json``).

Regenerate (only when an *intentional* semantic change lands) with::

    PYTHONPATH=src python tests/test_accounting_golden.py --regen
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

import pytest

from repro.bench.workloads import (
    calculator_workload, event_dispatcher_workload, sparse_matvec_workload,
)
from repro.runtime.engine import compile_program
from repro.machine.vm import VMError

from helpers import NaiveRVM

GOLDEN_PATH = Path(__file__).parent / "golden_accounting.json"

#: name -> workload builder; small configs keep the snapshots fast but
#: still cover unrolling, const branches, holes, and float templates.
CASES = {
    "calculator_small": lambda: calculator_workload(xs=3, ys=3),
    "sparse_matvec_tiny": lambda: sparse_matvec_workload(
        size=8, per_row=3, reps=2),
    "event_dispatcher_small": lambda: event_dispatcher_workload(
        nguards=6, events=30),
}

MODES = ("static", "dynamic")

#: StitchReport fields snapshotted for dynamic mode.
REPORT_FIELDS = (
    "func_name", "region_id", "instrs_emitted", "holes_patched",
    "directives", "const_branches_resolved", "dead_sides_eliminated",
    "branch_fixups", "pool_entries", "records_followed", "cycles",
    "entry", "pool_base",
)


def snapshot(name: str, mode: str) -> Dict[str, object]:
    workload = CASES[name]()
    program = compile_program(workload.source, mode=mode)
    result = program.run()
    snap: Dict[str, object] = {
        "value": result.value,
        "output": list(result.output),
        "cycles": result.cycles,
        "cycles_by_owner": dict(result.cycles_by_owner),
        "instrs_by_owner": dict(result.instrs_by_owner),
        "op_counts": dict(result.op_counts),
    }
    if mode == "dynamic":
        reports: List[Dict[str, object]] = []
        for report in result.stitch_reports:
            row = {f: getattr(report, f) for f in REPORT_FIELDS}
            row["key"] = list(report.key)
            row["loop_iterations"] = {
                str(k): v for k, v in report.loop_iterations.items()}
            row["peepholes"] = dict(report.peepholes)
            reports.append(row)
        snap["stitch_reports"] = reports

    # Whatever the dispatch implementation, a second run of the same
    # Program must reproduce the exact same accounting (this also
    # exercises the engine's cached-VM re-run path).
    rerun = program.run()
    assert rerun.cycles == result.cycles
    assert dict(rerun.cycles_by_owner) == dict(result.cycles_by_owner)
    assert dict(rerun.instrs_by_owner) == dict(result.instrs_by_owner)
    assert dict(rerun.op_counts) == dict(result.op_counts)
    assert rerun.value == result.value
    assert list(rerun.output) == list(result.output)
    if mode == "dynamic":
        assert len(rerun.stitch_reports) == len(result.stitch_reports)
        for a, b in zip(rerun.stitch_reports, result.stitch_reports):
            for f in REPORT_FIELDS:
                assert getattr(a, f) == getattr(b, f), f
    return snap


def _full_snapshot(result) -> Dict[str, object]:
    """Every observable of one run, stitch reports included."""
    snap: Dict[str, object] = {
        "value": result.value,
        "float_value": result.float_value,
        "output": list(result.output),
        "cycles": result.cycles,
        "cycles_by_owner": dict(result.cycles_by_owner),
        "instrs_by_owner": dict(result.instrs_by_owner),
        "op_counts": dict(result.op_counts),
        "stitch_reports": [
            tuple(getattr(report, f) for f in REPORT_FIELDS)
            + (tuple(report.key), dict(report.loop_iterations),
               dict(report.peepholes))
            for report in result.stitch_reports
        ],
    }
    return snap


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_dispatch_equivalence(name: str, mode: str) -> None:
    """Fast path vs slow path: the predecoded threaded dispatch and the
    retained naive decode loop must agree on *every* observable --
    results, output, and bit-identical cycle/owner/opcode accounting.
    The cost model is simulated, so host-side dispatch speed must never
    leak into it."""
    workload = CASES[name]()
    threaded_loop, naive_loop = NaiveRVM(naive=False), NaiveRVM()
    threaded = compile_program(workload.source, mode=mode,
                               backend=threaded_loop)
    naive = compile_program(workload.source, mode=mode, backend=naive_loop)
    a = _full_snapshot(threaded.run())
    b = _full_snapshot(naive.run())
    for field in sorted(a):
        assert a[field] == b[field], \
            "%s/%s: %s differs between threaded and naive dispatch" \
            % (name, mode, field)
    # Cross-dispatch rerun on the same cached VM: a naive rerun of the
    # threaded Program (and vice versa) must reproduce it again.
    threaded_loop.naive, naive_loop.naive = True, False
    c = _full_snapshot(threaded.run())
    d = _full_snapshot(naive.run())
    assert c == a
    assert d == a


def test_dispatch_equivalence_on_trap() -> None:
    """Both dispatchers must fault identically (same message, same
    cycle count at the fault) on a division by zero."""
    source = """
    int main(int x) {
        return 7 / x;
    }
    """
    outcomes = []
    for naive in (False, True):
        program = compile_program(source, mode="static",
                                  backend=NaiveRVM(naive))
        try:
            program.run("main", [0])
        except VMError as exc:
            outcomes.append((str(exc), program._vm.cycles))
        else:
            pytest.fail("division by zero did not trap (naive=%s)"
                        % naive)
    assert outcomes[0] == outcomes[1]
    assert "arithmetic trap" in outcomes[0][0]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_eager_tier_matches_golden(name: str, mode: str) -> None:
    """Tier parity: an explicit ``tier="eager"`` run must reproduce
    the pre-tiering golden snapshots bit-for-bit -- the eager path
    constructs no controller, charges no ``tier:`` owner, and records
    no tiering state."""
    golden = _load_golden()
    expected = golden["%s/%s" % (name, mode)]
    workload = CASES[name]()
    program = compile_program(workload.source, mode=mode, tier="eager")
    result = program.run(tier="eager")
    assert result.value == expected["value"]
    assert result.cycles == expected["cycles"]
    assert dict(result.cycles_by_owner) == expected["cycles_by_owner"]
    assert dict(result.instrs_by_owner) == expected["instrs_by_owner"]
    assert dict(result.op_counts) == expected["op_counts"]
    assert result.tier_stats == {}
    assert result.cold_entries == []
    if mode == "dynamic":
        assert len(result.stitch_reports) \
            == len(expected["stitch_reports"])
        for report, row in zip(result.stitch_reports,
                               expected["stitch_reports"]):
            for f in REPORT_FIELDS:
                assert getattr(report, f) == row[f], f
            assert list(report.key) == row["key"]


def _load_golden() -> Dict[str, Dict[str, object]]:
    if not GOLDEN_PATH.exists():
        pytest.skip("golden_accounting.json missing; run --regen")
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_accounting_matches_golden(name: str, mode: str) -> None:
    golden = _load_golden()
    key = "%s/%s" % (name, mode)
    assert key in golden, "no golden entry for %s" % key
    current = snapshot(name, mode)
    expected = golden[key]
    # Compare field by field for readable failures.
    for field in sorted(expected):
        assert current[field] == expected[field], \
            "%s: %s diverged from golden" % (key, field)
    assert sorted(current) == sorted(expected)


def regen() -> None:
    golden = {}
    for name in sorted(CASES):
        for mode in MODES:
            print("snapshotting %s/%s ..." % (name, mode))
            golden["%s/%s" % (name, mode)] = snapshot(name, mode)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True)
                           + "\n")
    print("wrote %s" % GOLDEN_PATH)


if __name__ == "__main__":
    import sys
    if "--regen" in sys.argv:
        regen()
    else:
        print(__doc__)
