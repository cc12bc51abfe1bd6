"""Measurement-harness and reporting tests (Table 2 rows and tables).

The Section 5 arithmetic lives on :class:`BreakEvenRow` and is pinned
by ``test_obs_breakeven.py``; here only the harness's own additions
are checked: the paper's break-even units and the rendered tables.
"""

import pytest

from repro.bench.__main__ import main as bench_main
from repro.bench.harness import BenchmarkMeasurement, measure
from repro.bench.reporting import format_table2, format_table3, table3_dict
from repro.bench.workloads import (
    Workload, all_workloads, scalar_matrix_workload,
)
from repro.obs.breakeven import BreakEvenRow


def make_row(static=1000, dynamic=400, dispatch=100, setup=50,
             stitcher=5000, executions=10, instrs=20):
    workload = Workload(name="demo", config="cfg", source="",
                        region_func="f", executions=executions,
                        unit="widgets", units_per_execution=2.0)
    region = BreakEvenRow(
        func_name="f", region_id=1,
        executions=executions, stitches=1, cache_hits=executions - 1,
        static_cycles=static,
        stitched_cycles=dynamic,
        dispatch_cycles=dispatch,
        setup_cycles=setup,
        stitcher_cycles=stitcher,
        instrs_stitched=instrs,
    )
    return BenchmarkMeasurement(
        workload=workload,
        region=region,
        units_per_execution=2.0,
        optimizations={"constant_folding": True},
    )


def test_breakeven_formula():
    row = make_row()
    # gain 50/exec, overhead 5050 -> 101 executions of 2 widgets each
    assert row.region.breakeven_runs == 101
    assert row.breakeven_paper_units == 202.0


def test_breakeven_never_when_dynamic_loses():
    row = make_row(static=400, dynamic=400, dispatch=100)
    assert row.region.speedup < 1
    assert row.breakeven_paper_units is None


def test_measure_catches_result_mismatch():
    workload = scalar_matrix_workload(rows=3, cols=3, scalars=2)
    workload.expected = -999  # sabotage
    with pytest.raises(AssertionError):
        measure(workload)


def test_measure_returns_consistent_row():
    workload = scalar_matrix_workload(rows=4, cols=4, scalars=3)
    row = measure(workload)
    region = row.region
    assert region.executions == workload.executions == 3
    assert region.stitches == 3         # one per key
    assert region.static_cycles > 0
    assert region.stitched_cycles > 0
    assert region.setup_cycles > 0
    assert region.stitcher_cycles > 0
    assert region.instrs_stitched > 0
    assert row.static_result is not None
    assert row.dynamic_result is not None


def test_measure_is_deterministic():
    workload = scalar_matrix_workload(rows=4, cols=4, scalars=3)
    a = measure(workload)
    b = measure(workload)
    assert a.region == b.region


TABLE2_IDS = ("calculator", "scalar_matrix", "sparse_matvec_large",
              "sparse_matvec_small", "event_dispatcher",
              "record_sorter_1key", "record_sorter_2key")


@pytest.mark.parametrize("workload", all_workloads(scale=0.5),
                         ids=TABLE2_IDS)
def test_region_entries_match_declared_executions(workload):
    """Table 2 counts executions as region entries; every workload's
    declared count (the sorter's printed comparison count) agrees, so
    speedups and paper-unit break-evens mean what the workload says."""
    row = measure(workload)
    declared = workload.executions
    if declared < 0:
        declared = int(row.dynamic_result.output[0])
    assert row.region.executions == declared


def test_format_table2_contains_rows():
    rows = [make_row()]
    text = format_table2(rows)
    assert "demo" in text
    assert "2.00x" in text
    assert "202 widgets" in text


def test_format_table2_never_row():
    rows = [make_row(static=400, dynamic=400, dispatch=100)]
    assert "never" in format_table2(rows)


def test_format_table3_one_row_per_benchmark():
    rows = [make_row(), make_row()]
    text = format_table3(rows)
    assert text.count("demo") == 1
    assert "yes" in text


def test_table3_dict():
    rows = [make_row()]
    matrix = table3_dict(rows)
    assert matrix["demo"]["constant_folding"]


def test_breakeven_flag_reuses_the_measured_runs(monkeypatch, capsys):
    """``--breakeven`` prints rows off the runs Table 2 already made:
    one static and one dynamic compilation per workload."""
    import repro.runtime.engine as engine

    compiled = []
    compile_ir_module = engine.compile_ir_module

    def counting(module, mode="dynamic", **kwargs):
        compiled.append(mode)
        return compile_ir_module(module, mode=mode, **kwargs)

    monkeypatch.setattr(engine, "compile_ir_module", counting)
    assert bench_main(["--no-cache-pressure", "--breakeven",
                       "--scale", "0.5", "--only", "calculator",
                       "scalar"]) == 0
    assert "break-even, live per region" in capsys.readouterr().out
    assert sorted(compiled) == ["dynamic", "dynamic", "static", "static"]
