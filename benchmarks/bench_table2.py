"""Table 2 of the paper: speedups and breakeven points.

One benchmark per table row, in the paper's row order.  Each test
compiles the workload both ways (static baseline vs dynamic
compilation), runs them on the cycle-counting VM, asserts the *shape*
the paper reports -- who wins, and roughly by how much -- and records
the row for the end-of-session table.

Paper numbers for reference (DEC Alpha 21064):

    calculator              speedup 1.7   breakeven   916 interpretations
    scalar-matrix multiply  speedup 1.6   breakeven 31392 multiplications
    sparse matvec 200x200   speedup 1.8   breakeven  2645 multiplications
    sparse matvec  96x96    speedup 1.5   breakeven  1858 multiplications
    event dispatcher        speedup 1.4   breakeven   722 dispatches
    record sorter 1 key     speedup 1.2   breakeven  3050 records
    record sorter 2 keys    speedup 1.2   breakeven  4760 records

Our absolute values differ (the substrate is a single-issue VM, not a
dual-issue 21064, and problem sizes are scaled); see EXPERIMENTS.md for
the calibration discussion.
"""

import pytest

from repro.bench.workloads import (
    calculator_workload, event_dispatcher_workload, record_sorter_workload,
    scalar_matrix_workload, sparse_matvec_workload,
)

from conftest import attach_info, record_row, run_measurement


def test_calculator(benchmark):
    row = record_row(run_measurement(calculator_workload(), benchmark))
    attach_info(benchmark, row)
    region = row.region
    assert region.speedup > 1.5
    assert region.breakeven_runs is not None
    assert 10 <= region.breakeven_runs <= 5000
    # interpreting one expression beats 200+ cycles statically;
    # stitched code runs it in a fraction.
    assert region.dynamic_per_exec < region.static_per_exec
    assert row.optimizations["complete_loop_unrolling"]
    assert row.optimizations["static_branch_elimination"]


def test_scalar_matrix(benchmark):
    row = record_row(run_measurement(scalar_matrix_workload(), benchmark))
    attach_info(benchmark, row)
    # the paper's 1.6: ours comes almost entirely from multiply
    # strength reduction, so it is moderate.
    assert 1.1 <= row.region.speedup <= 2.5
    assert row.optimizations["strength_reduction"]
    assert not row.optimizations["complete_loop_unrolling"]
    # one stitch per scalar key
    assert row.region.stitches == row.region.executions


def test_sparse_matvec_large(benchmark):
    row = record_row(run_measurement(
        sparse_matvec_workload(size=24, per_row=5), benchmark))
    attach_info(benchmark, row)
    assert 1.2 <= row.region.speedup <= 3.0   # paper: 1.8
    assert row.optimizations["complete_loop_unrolling"]
    assert row.optimizations["load_elimination"]
    # full unrolling makes this the largest stitched region
    assert row.region.instrs_stitched > 400


def test_sparse_matvec_small(benchmark):
    row = record_row(run_measurement(
        sparse_matvec_workload(size=12, per_row=3), benchmark))
    attach_info(benchmark, row)
    assert 1.2 <= row.region.speedup <= 3.0   # paper: 1.5


def test_event_dispatcher(benchmark):
    row = record_row(run_measurement(
        event_dispatcher_workload(), benchmark))
    attach_info(benchmark, row)
    assert row.region.speedup > 1.3            # paper: 1.4
    assert row.optimizations["static_branch_elimination"]
    assert row.optimizations["dead_code_elimination"]
    assert row.optimizations["complete_loop_unrolling"]


def test_record_sorter_one_key(benchmark):
    row = record_row(run_measurement(
        record_sorter_workload(keys=[(0, 0)]), benchmark))
    attach_info(benchmark, row)
    # the paper's weakest speedup (1.2): dispatch overhead on a tiny
    # region nearly cancels the win.
    assert 1.0 < row.region.speedup < 1.6
    assert row.optimizations["complete_loop_unrolling"]


def test_record_sorter_two_keys(benchmark):
    row = record_row(run_measurement(
        record_sorter_workload(keys=[(2, 1), (0, 2)]), benchmark))
    attach_info(benchmark, row)
    assert 1.0 < row.region.speedup < 1.8
    assert row.optimizations["static_branch_elimination"]


def test_breakeven_ordering():
    """The paper's qualitative finding: the sorter (tiny region, high
    per-entry dispatch cost) has the *worst* payoff profile; the
    calculator and dispatcher pay off quickly."""
    by_name = {}
    from conftest import TABLE2_ROWS
    for row in TABLE2_ROWS:
        by_name.setdefault(row.workload.name, row)
    if len(by_name) < 5:
        pytest.skip("table rows incomplete")
    sorter = by_name["record sorter"]
    calculator = by_name["calculator"]
    assert sorter.region.speedup < calculator.region.speedup
