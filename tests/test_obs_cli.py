"""CLI tests for the observability surface.

Covers ``python -m repro.obs`` (report / trace / profile / validate),
the ``--trace``/``--metrics`` flags on ``python -m repro``, and the
``--breakeven`` flag on ``python -m repro.bench``.  The report golden
check runs in-process (subprocess startup would dominate) against the
same workload pinned in tests/golden_breakeven.json.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.__main__ import main as obs_main

GOLDEN_PATH = Path(__file__).parent / "golden_breakeven.json"

PROGRAM = """
int f(int c, int v) {
    dynamicRegion (c) {
        return c * 6 + v;
    }
}
int main() {
    int t = 0; int i;
    for (i = 0; i < 4; i++) t += f(7, i);
    return t;
}
"""


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(PROGRAM)
    return str(path)


def test_report_matches_golden(tmp_path, capsys):
    json_path = tmp_path / "rows.json"
    code = obs_main(["report", "--only", "sparse",
                     "--json", str(json_path)])
    assert code == 0
    out = capsys.readouterr().out
    # The table's header and the region row are present.
    assert "breakeven" in out
    assert "spmv:1" in out
    golden = json.loads(GOLDEN_PATH.read_text())
    written = json.loads(json_path.read_text())
    # One key per reported table: both sparse configurations, keyed by
    # their printed titles (name and config).
    assert len(written) == 2
    assert all(title in out for title in written)
    # The bench-scale sparse workload (24x24) differs from the golden's
    # test-scale one (12x12); both must at least report the region.
    assert any("spmv:1" == row["region"]
               for rows in written.values() for row in rows)
    assert golden["rows"][0]["region"] == "spmv:1"


def test_trace_subcommand_writes_valid_chrome(tmp_path, source_file,
                                              capsys):
    out_path = tmp_path / "trace.json"
    code = obs_main(["trace", source_file, "--out", str(out_path)])
    assert code == 0
    document = json.loads(out_path.read_text())
    assert isinstance(document["traceEvents"], list)
    assert document["traceEvents"], "empty trace"
    assert obs_main(["validate", str(out_path)]) == 0
    assert "OK" in capsys.readouterr().out


def test_trace_subcommand_jsonl_and_metrics(tmp_path, source_file,
                                            capsys):
    out_path = tmp_path / "trace.jsonl"
    code = obs_main(["trace", source_file, "--out", str(out_path),
                     "--format", "jsonl", "--metrics"])
    assert code == 0
    lines = [json.loads(line)
             for line in out_path.read_text().splitlines() if line]
    assert any(event["name"] == "stitch.region" for event in lines)
    out = capsys.readouterr().out
    assert "cache.hits" in out
    assert "vm.runs" in out


def test_profile_subcommand(source_file, capsys):
    code = obs_main(["profile", source_file])
    assert code == 0
    out = capsys.readouterr().out
    assert "simulated-cycle profile" in out
    assert "stitched" in out
    assert "f:1" in out
    assert "breakeven" in out  # dynamic mode adds the break-even table


def test_validate_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"traceEvents": [{"nope": 1}]}')
    assert obs_main(["validate", str(bad)]) == 1
    missing = tmp_path / "missing.json"
    assert obs_main(["validate", str(missing)]) == 2


def test_main_cli_trace_flag(tmp_path, source_file):
    trace_path = tmp_path / "cli.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", source_file,
         "--trace", str(trace_path), "--metrics"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "=> 174" in proc.stdout
    assert "vm.runs" in proc.stdout
    assert "wrote trace" in proc.stderr
    document = json.loads(trace_path.read_text())
    assert document["traceEvents"]


def test_export_subcommand_writes_all_formats(tmp_path, source_file,
                                              capsys):
    om = tmp_path / "metrics.prom"
    series = tmp_path / "series.json"
    trace_path = tmp_path / "trace.json"
    code = obs_main(["export", source_file, "--sample-entries", "2",
                     "--openmetrics", str(om), "--series", str(series),
                     "--trace", str(trace_path),
                     "--exclude", "stitch.host_seconds"])
    assert code == 0
    from repro.obs.export import parse_openmetrics
    parsed = parse_openmetrics(om.read_text())
    assert any(name.startswith("region_entries")
               for name, _labels, _v in parsed["samples"])
    document = json.loads(series.read_text())
    assert document["schema"] == 1 and document["series"]
    assert obs_main(["validate", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "samples over" in out


def test_export_subcommand_stdout_default(source_file, capsys):
    assert obs_main(["export", source_file]) == 0
    out = capsys.readouterr().out
    assert "# TYPE" in out and "# EOF" in out


def test_health_subcommand_fires_under_faults(tmp_path, source_file,
                                              capsys):
    json_path = tmp_path / "health.json"
    code = obs_main(["health", source_file, "--config", "faults=all:0.2@7",
                     "--expect-firing", "--json", str(json_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "health:" in out
    document = json.loads(json_path.read_text())
    assert document["status"] in ("warn", "fail")
    assert document["fired"] >= 1
    assert any(r["fired"] for r in document["rules"])


def test_health_subcommand_green_run_and_strict(source_file, capsys):
    assert obs_main(["health", source_file, "--strict"]) == 0
    assert "health: OK" in capsys.readouterr().out
    # --expect-firing on a clean run is the failure direction.
    assert obs_main(["health", source_file, "--expect-firing"]) == 1


def test_health_subcommand_custom_rules(tmp_path, source_file, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("# always fires on any run\nfail: vm.runs > 0\n")
    code = obs_main(["health", source_file, "--rules", str(rules),
                     "--strict"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_record_and_compare_cycle(tmp_path, capsys):
    assert obs_main(["record", "tiering", "--dir", str(tmp_path),
                     "--note", "first"]) == 0
    assert obs_main(["record", "tiering", "--dir", str(tmp_path)]) == 0
    trajectory = json.loads(
        (tmp_path / "BENCH_tiering.json").read_text())["trajectory"]
    assert len(trajectory) == 2 and trajectory[0]["note"] == "first"
    # Identical deterministic reruns: the gate passes exactly.
    assert obs_main(["compare", "tiering", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "tiering: OK" in out
    # A synthetic 15% cycle regression in the newest entry fails a 10%
    # gate and passes a 20% one.
    path = tmp_path / "BENCH_tiering.json"
    document = json.loads(path.read_text())
    for row in document["trajectory"][-1]["rows"].values():
        row["tiered_cycles"] = int(row["tiered_cycles"] * 1.15)
    path.write_text(json.dumps(document))
    assert obs_main(["compare", "tiering", "--dir", str(tmp_path)]) == 1
    assert "REGRESSED" in capsys.readouterr().out
    assert obs_main(["compare", "tiering", "--dir", str(tmp_path),
                     "--max-regression", "20"]) == 0


def test_compare_without_trajectories_errors(tmp_path, capsys):
    assert obs_main(["compare", "--dir", str(tmp_path)]) == 2
    assert "no trajectory files" in capsys.readouterr().err


def test_compare_missing_trajectory_is_one_line_error(tmp_path, capsys):
    """A named benchmark with no BENCH_<name>.json must fail with one
    actionable line (and with --run, before wasting time collecting a
    candidate), never a traceback."""
    assert obs_main(["compare", "stitchqueue",
                     "--dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "no trajectory file" in err
    assert "repro.obs record stitchqueue" in err
    assert obs_main(["compare", "--run", "stitchqueue",
                     "--dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "no trajectory file" in err
    assert "collecting" not in err  # failed fast, before collection


def test_compare_empty_trajectory_is_one_line_error(tmp_path, capsys):
    (tmp_path / "BENCH_stitchqueue.json").write_text(
        '{"schema": 1, "trajectory": []}\n')
    assert obs_main(["compare", "stitchqueue",
                     "--dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "trajectory is empty" in err
    assert "repro.obs record stitchqueue" in err


def test_record_and_compare_stitchqueue(tmp_path, capsys):
    """The stitchqueue collector records the async cells plus the hang
    gate, and an identical deterministic rerun gates clean."""
    assert obs_main(["record", "stitchqueue", "--dir",
                     str(tmp_path)]) == 0
    document = json.loads(
        (tmp_path / "BENCH_stitchqueue.json").read_text())
    rows = document["trajectory"][-1]["rows"]
    assert "hang gate" in rows
    assert any("async" in name for name in rows)
    assert obs_main(["compare", "--run", "stitchqueue", "--dir",
                     str(tmp_path)]) == 0
    assert "stitchqueue: OK" in capsys.readouterr().out


def test_main_cli_metrics_out(tmp_path, source_file):
    metrics_path = tmp_path / "metrics.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", source_file,
         "--metrics-out", str(metrics_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "wrote metrics" in proc.stderr
    snap = json.loads(metrics_path.read_text())
    assert snap["vm.runs"]["value"] == 1
    assert "region.entries" in snap


def test_bench_breakeven_flag(tmp_path):
    trace_path = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench", "--only", "calculator",
         "--breakeven", "--trace", str(trace_path)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "break-even, live per region" in proc.stdout
    assert "calc:1" in proc.stdout
    assert trace_path.exists()
