"""Break-even economics (repro.obs.breakeven): arithmetic + golden.

Two layers of defense:

* the derived quantities (speedup, overhead, break-even run count,
  cycles per stitched instruction) are checked against hand-computed
  values on a synthetic row, so the arithmetic itself is pinned
  independently of the compiler;
* a full ``break_even_source`` over ``sparse_matvec_small`` (the
  paper's matrix benchmark at test scale) is compared field-for-field
  with the committed ``tests/golden_breakeven.json``, so any
  accounting drift in the pipeline shows up as a diff.

Regenerate the golden (only on an *intentional* cost/accounting
change) with::

    PYTHONPATH=src python tests/test_obs_breakeven.py --regen
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

from repro.bench.workloads import sparse_matvec_workload
from repro.obs.breakeven import BreakEvenRow, break_even_source
from repro.runtime.engine import compile_program

GOLDEN_PATH = Path(__file__).parent / "golden_breakeven.json"


def small_workload():
    return sparse_matvec_workload(size=12, per_row=3)


def small_rows():
    workload = small_workload()
    return break_even_source(workload.source, expected=workload.expected)


def test_derived_quantities_hand_computed():
    row = BreakEvenRow(
        func_name="f", region_id=1,
        executions=100, stitches=2, cache_hits=98,
        static_cycles=50_000,       # 500 / execution
        stitched_cycles=19_000,     # + dispatch: 200 / execution
        dispatch_cycles=1_000,
        setup_cycles=4_000,
        stitcher_cycles=26_000,     # overhead 30_000
        instrs_stitched=600,
    )
    assert row.static_per_exec == 500.0
    assert row.dynamic_per_exec == 200.0
    assert row.saved_per_exec == 300.0
    assert row.speedup == 2.5
    assert row.overhead_cycles == 30_000
    # 30_000 overhead / 300 saved per run -> pays off at run 100.
    assert row.breakeven_runs == 100
    assert row.cycles_per_stitched_instr == 50.0


def test_breakeven_rounds_up_and_handles_never():
    row = BreakEvenRow("f", 1, executions=10, stitches=1, cache_hits=9,
                       static_cycles=1000, stitched_cycles=899,
                       dispatch_cycles=0, setup_cycles=50,
                       stitcher_cycles=51, instrs_stitched=10)
    # saved = 100.0 - 89.9 = 10.1/exec; 101 / 10.1 = 10.0 -> ceil 10
    assert row.breakeven_runs == math.ceil(
        101 / (row.static_per_exec - row.dynamic_per_exec))

    slower = BreakEvenRow("f", 1, executions=10, stitches=1, cache_hits=9,
                          static_cycles=1000, stitched_cycles=2000,
                          dispatch_cycles=0, setup_cycles=1,
                          stitcher_cycles=1, instrs_stitched=1)
    assert slower.saved_per_exec < 0
    assert slower.breakeven_runs is None  # never pays off


def test_to_dict_is_json_round_trippable():
    row = BreakEvenRow("f", 2, 5, 1, 4, 100, 40, 10, 7, 13, 25)
    data = json.loads(json.dumps(row.to_dict()))
    assert data["region"] == "f:2"
    assert data["executions"] == 5
    assert data["overhead_cycles"] == 20
    assert data["cache_hits"] == 4


def test_golden_sparse_matvec_small():
    workload = small_workload()
    rows = small_rows()
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["config"] == workload.config
    assert len(rows) == len(golden["rows"])
    for row, want in zip(rows, golden["rows"]):
        got = row.to_dict()
        for field_name, want_value in want.items():
            assert got[field_name] == want_value, (
                "%s.%s: got %r, golden %r"
                % (want["region"], field_name, got[field_name],
                   want_value))


def test_rows_consistent_with_run_results():
    """The row's raw fields must restate the engine's own accounting."""
    workload = small_workload()
    static = compile_program(workload.source, mode="static").run()
    dynamic = compile_program(workload.source, mode="dynamic").run()
    (row,) = small_rows()
    key = (row.func_name, row.region_id)
    suffix = "%s:%d" % key
    assert row.executions == dynamic.region_entries[key]
    assert row.stitches == len(dynamic.stitch_reports)
    assert row.cache_hits == len(dynamic.cache_hits)
    assert row.executions == row.stitches + row.cache_hits
    assert row.static_cycles == \
        static.cycles_by_owner["region:" + suffix]
    assert row.stitched_cycles == \
        dynamic.cycles_by_owner["stitched:" + suffix]
    assert row.dispatch_cycles == \
        dynamic.cycles_by_owner["dispatch:" + suffix]
    assert row.setup_cycles == dynamic.cycles_by_owner["setup:" + suffix]
    assert row.stitcher_cycles == \
        dynamic.cycles_by_owner["stitcher:" + suffix]
    assert row.instrs_stitched == sum(
        r.instrs_emitted for r in dynamic.stitch_reports)


def test_break_even_source_checks_agreement():
    source = """
    int f(int n) {
        int total = 0;
        dynamicRegion (n) {
            int i;
            unrolled for (i = 0; i < n; i++) total += i;
        }
        return total;
    }
    int main() { int j; int s = 0;
        for (j = 0; j < 8; j++) s += f(5);
        return s; }
    """
    rows = break_even_source(source)
    (row,) = rows
    assert row.executions == 8
    assert row.stitches == 1
    assert row.cache_hits == 7
    assert break_even_source(source, expected=80) == rows
    with pytest.raises(AssertionError):
        break_even_source(source, expected=81)


def _regen():
    workload = small_workload()
    rows = small_rows()
    out = {"workload": workload.name, "config": workload.config,
           "rows": [row.to_dict() for row in rows]}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(out, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % GOLDEN_PATH)


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
