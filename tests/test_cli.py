"""Command-line interface tests (python -m repro)."""

import subprocess
import sys
from pathlib import Path

import pytest

import repro.__main__ as repro_main
import repro.fuzz as fuzz_main
import repro.obs.__main__ as obs_main

PROGRAM = """
int f(int c, int v) {
    dynamicRegion (c) {
        return c * 6 + v;
    }
}
int main(int x) {
    int t = 0; int i;
    for (i = 0; i < 4; i++) t += f(7, x + i);
    print_int(t);
    return t;
}
"""


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(PROGRAM)
    return str(path)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=120)


def test_runs_dynamic_by_default(source_file):
    proc = run_cli(source_file, "--args", "10")
    assert proc.returncode == 0, proc.stderr
    # 4 calls: 52,53,54,55 -> 214
    assert "214" in proc.stdout
    assert "cycles" in proc.stdout


def test_static_mode(source_file):
    proc = run_cli(source_file, "--mode", "static", "--args", "10")
    assert proc.returncode == 0
    assert "214" in proc.stdout


def test_stats_output(source_file):
    proc = run_cli(source_file, "--args", "0", "--stats")
    assert proc.returncode == 0
    assert "stitched:f:1" in proc.stdout
    assert "optimizations:" in proc.stdout


def test_dump_ir(source_file):
    proc = run_cli(source_file, "--args", "0", "--dump-ir")
    assert proc.returncode == 0
    assert "func f(" in proc.stdout
    assert "region 1" in proc.stdout


def test_dump_asm(source_file):
    proc = run_cli(source_file, "--args", "0", "--dump-asm")
    assert proc.returncode == 0
    assert "$epilogue:" in proc.stdout
    assert "ret" in proc.stdout


def test_dump_templates(source_file):
    proc = run_cli(source_file, "--args", "0", "--dump-templates")
    assert proc.returncode == 0
    assert "region 1 of f" in proc.stdout
    assert "HOLE" in proc.stdout


def test_dump_directives(source_file):
    proc = run_cli(source_file, "--args", "0", "--dump-directives")
    assert proc.returncode == 0
    assert "stitcher directives for region 1" in proc.stdout
    assert "START(" in proc.stdout
    assert "END(" in proc.stdout


def test_register_actions_flag(source_file):
    proc = run_cli(source_file, "--args", "10", "--register-actions")
    assert proc.returncode == 0
    assert "214" in proc.stdout


def test_fused_stitcher_flag(source_file):
    proc = run_cli(source_file, "--args", "10", "--fused-stitcher")
    assert proc.returncode == 0
    assert "214" in proc.stdout


def test_compile_error_reported(tmp_path):
    path = tmp_path / "bad.c"
    path.write_text("int main() { return undeclared; }")
    proc = run_cli(str(path))
    assert proc.returncode == 1
    assert "compile error" in proc.stderr


def test_malformed_number_is_a_one_line_compile_error(tmp_path):
    path = tmp_path / "bad.c"
    path.write_text("int main() { return 0x; }")
    proc = run_cli(str(path))
    assert proc.returncode == 1
    assert proc.stderr == "compile error: 1:21: malformed number '0x'\n"


def test_deep_nesting_is_a_one_line_compile_error(tmp_path):
    path = tmp_path / "deep.c"
    path.write_text("int main() { return %s1%s; }" % ("(" * 2000, ")" * 2000))
    proc = run_cli(str(path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("compile error: 1:")
    assert proc.stderr.endswith(": nesting too deep\n")


def test_missing_file():
    proc = run_cli("/nonexistent/path.c")
    assert proc.returncode == 2


# -- adaptive tiering ---------------------------------------------------------

def test_cache_line_counts_revivals():
    """A bounded cache prints its accounting line, revivals included
    (the corpus revival program: 18 of its 24 stitches revive)."""
    program = Path(__file__).parent / "corpus" / "revive_evicted_stitches.c"
    proc = run_cli(str(program), "--args", "6", "--config", "cache=lru:1",
                   "--stats")
    assert proc.returncode == 0, proc.stderr
    assert "=> 1484" in proc.stdout
    assert "23 evictions" in proc.stdout
    assert "18 re-stitches (18 revived)" in proc.stdout


def test_tier_threshold_flag(source_file):
    proc = run_cli(source_file, "--args", "10",
                   "--config", "tier=threshold:2")
    assert proc.returncode == 0, proc.stderr
    assert "214" in proc.stdout
    assert "tier[threshold:2]" in proc.stdout
    assert "cold entries" in proc.stdout


def test_tier_breakeven_flag(source_file):
    proc = run_cli(source_file, "--args", "10",
                   "--config", "tier=breakeven:16")
    assert proc.returncode == 0, proc.stderr
    assert "214" in proc.stdout
    assert "tier[breakeven:16]" in proc.stdout


def test_tier_eager_prints_no_tier_summary(source_file):
    proc = run_cli(source_file, "--args", "10")
    assert proc.returncode == 0
    assert "tier[" not in proc.stdout


def test_stitch_mode_async_flag(source_file):
    proc = run_cli(source_file, "--args", "10",
                   "--config", "stitch=async:drain=2")
    assert proc.returncode == 0, proc.stderr
    assert "214" in proc.stdout  # same value as the sync run
    assert "stitchq[async:drain=2]" in proc.stdout
    assert "enqueued" in proc.stdout


def test_stitch_mode_sync_prints_no_queue_summary(source_file):
    proc = run_cli(source_file, "--args", "10")
    assert proc.returncode == 0
    assert "stitchq[" not in proc.stdout


# -- one bad --config token per field, on every CLI ---------------------------

BAD_TOKENS = {
    "backend": "backend=nope: unknown backend 'nope'",
    "cache": "cache=lru:x: bad cache capacity in 'lru:x'",
    "faults": "faults=bogus:1: unknown fault site 'bogus'",
    "tier": "tier=sometimes: unknown tier mode 'sometimes'",
    "stitch": "stitch=sometimes: unknown stitch mode 'sometimes'",
}

#: each CLI's entry point and the arguments before its --config flag.
CLIS = {"repro": (repro_main.main, ["prog.c"]),
        "fuzz": (fuzz_main.main, ["--iters", "0"]),
        "obs": (obs_main.main, ["trace", "--workload", "calculator"])}


@pytest.mark.parametrize("field", BAD_TOKENS)
@pytest.mark.parametrize("cli", CLIS)
def test_bad_config_token_rejected(cli, field, capsys):
    """A malformed spec ends the run with one line naming --config, the
    field and the bad token, and exit status 2 -- never a traceback."""
    main, argv = CLIS[cli]
    message = BAD_TOKENS[field]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--config", message.partition(": ")[0]])
    assert exit_info.value.code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: --config " + message), line


# -- bench --seed threading (regression) --------------------------------------

def test_bench_seed_threads_to_cache_pressure_sweep(monkeypatch, capsys):
    """Regression: ``python -m repro.bench --seed`` must reach the
    cache-pressure sweep's skewed-key generator (it used to stop at
    the Table 2 workloads, leaving the sweep pinned to the historical
    stream)."""
    from types import SimpleNamespace

    import repro.bench.__main__ as bench_main
    import repro.bench.cachepressure as cp

    seen = {}

    def fake_sweep(executions, program=None, seed=None, **kwargs):
        seen["seed"] = seed
        return []

    monkeypatch.setattr(cp, "sweep", fake_sweep)
    monkeypatch.setattr(cp, "compile_pressure_program", lambda: None)
    monkeypatch.setattr(cp, "format_sweep", lambda rows: "(sweep)")
    # Skip the slow Table 2 measurements: one pre-measured dummy row.
    workload = SimpleNamespace(name="dummy", config="cfg")
    monkeypatch.setattr(bench_main, "all_workloads",
                        lambda scale, seed=None: [workload])
    monkeypatch.setattr(bench_main, "measure",
                        lambda w, **kwargs: "row")
    monkeypatch.setattr(bench_main, "format_table2", lambda rows: "t2")
    monkeypatch.setattr(bench_main, "format_table3", lambda rows: "t3")

    assert bench_main.main(["--seed", "23"]) == 0
    assert seen["seed"] == 23
    assert bench_main.main([]) == 0
    assert seen["seed"] == cp.DEFAULT_SEED
    capsys.readouterr()


def test_cachepressure_cli_seed_changes_key_stream(tmp_path):
    """Different --seed values must produce different key streams
    (observable as different bounded-cache behavior)."""
    def cell(seed):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.bench.cachepressure",
             "--executions", "60", "--cardinality", "8",
             "--capacity", "2", "--seed", str(seed)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert cell(7) != cell(23)
