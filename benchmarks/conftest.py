"""Shared infrastructure for the reproduction benchmarks.

Each ``bench_*`` module regenerates one of the paper's evaluation
artifacts (Table 2, Table 3, the register-actions result, ablations).
Measurements are deterministic cycle counts from the VM; the
pytest-benchmark timings additionally record the wall-clock cost of
compile+run on the host.

Collected rows are printed as paper-shaped tables at the end of the
session.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.bench.harness import BenchmarkMeasurement, measure
from repro.bench.workloads import Workload

#: session-collected Table 2 rows, in insertion order.
TABLE2_ROWS: List[BenchmarkMeasurement] = []
#: extra result lines (register actions, ablations).
EXTRA_LINES: List[str] = []


def record_row(row: BenchmarkMeasurement) -> BenchmarkMeasurement:
    TABLE2_ROWS.append(row)
    return row


def record_line(line: str) -> None:
    EXTRA_LINES.append(line)


def run_measurement(workload: Workload, benchmark=None,
                    **kwargs) -> BenchmarkMeasurement:
    """Measure a workload, optionally under pytest-benchmark timing."""
    if benchmark is not None:
        result = benchmark.pedantic(
            lambda: measure(workload, **kwargs), rounds=1, iterations=1)
    else:
        result = measure(workload, **kwargs)
    return result


def attach_info(benchmark, row: BenchmarkMeasurement) -> None:
    if benchmark is None:
        return
    benchmark.extra_info.update(row.region.to_dict())


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    from repro.bench.reporting import format_table2, format_table3

    if TABLE2_ROWS:
        terminalreporter.write_line("")
        terminalreporter.write_line(
            "=" * 30 + " reproduced Table 2 " + "=" * 30)
        for line in format_table2(TABLE2_ROWS).splitlines():
            terminalreporter.write_line(line)
        terminalreporter.write_line("")
        terminalreporter.write_line(
            "=" * 30 + " reproduced Table 3 " + "=" * 30)
        for line in format_table3(TABLE2_ROWS).splitlines():
            terminalreporter.write_line(line)
    for line in EXTRA_LINES:
        terminalreporter.write_line(line)
