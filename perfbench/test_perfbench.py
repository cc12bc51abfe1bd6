"""The benchmark's self-checks: determinism, seed sensitivity, and metric
names that match ``BENCHMARK.json``.

    python3 -m pytest perfbench -q
"""

import gc
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py")]
        + list(args), cwd=cwd, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, universal_newlines=True, timeout=170)


def last_json(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def first_round(name, seed):
    """Simulated cycles and stitched words of the first round."""
    workload = workloads.WORKLOADS[name](seed)
    workload.setup()
    results = [workload.request(i) for i in range(workload.round_size)]
    return ([r.cycles for r in results],
            [workloads.stitched_words(r) for r in results])


def test_definitions_match_benchmark_json():
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in SPEC["end_to_end"]] == \
        [(m.name, m.unit, m.better, m.bound) for m in metrics.GATED]
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in metrics.PER_LAYER]
    assert [w["name"] for w in SPEC["workloads"]] == \
        list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.fixture(scope="module")
def churn_runs():
    return [last_json(run_cli("--workload", "churn", "--seed", "5",
                              "--seconds", "0", "--trace", "0"))
            for _ in range(2)]


def test_printed_end_to_end_names_and_units(churn_runs):
    result = churn_runs[0]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= workloads.MIN_REQUESTS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_printed_per_layer_names_and_units():
    result = last_json(run_cli("--workload", "churn", "--seed", "5",
                               "--seconds", "0", "--trace", "1"))
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # churn loads the cache and the adaptive runtime, never the compiler.
    assert values["codecache.evictions"] > 0
    assert values["runtime.queue_land_ratio"] > 0
    assert values["frontend.parse_ms"] == 0


def test_same_seed_repeats_simulated_counts(churn_runs):
    first, second = (r["metrics"] for r in churn_runs)
    for name in ("sim_cycles_per_req", "stitched_words_per_req"):
        assert first[name]["value"] == second[name]["value"]


@pytest.mark.parametrize("name", ["warm", "cold"])
def test_same_seed_repeats_first_round(name):
    assert first_round(name, 7) == first_round(name, 7)


def test_seed_changes_inputs():
    assert [w.source for w, _ in workloads.Warm(1).configs] != \
        [w.source for w, _ in workloads.Warm(2).configs]
    assert workloads.Warm(1).order != workloads.Warm(2).order
    assert [w.source for w in workloads.Cold(1).variants] != \
        [w.source for w in workloads.Cold(2).variants]
    assert workloads.Churn(1).inputs != workloads.Churn(2).inputs
    # ...and the same seed gives the same inputs.
    assert [w.source for w in workloads.Cold(1).variants] == \
        [w.source for w in workloads.Cold(1).variants]


def test_reference_kernel_leaves_gc_alone():
    # Timed before every request, so it must not allocate a single object
    # the collector tracks: even a short-lived one can trigger a
    # collection that belongs to the program.  With the young generation
    # over a threshold of 1, any such allocation collects at once.
    starts = []

    def on_gc(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    reference.kernel()
    threshold = gc.get_threshold()
    gc.callbacks.append(on_gc)
    try:
        gc.collect()
        live = [[] for _ in range(3)]
        assert gc.get_count()[0] > 1
        del starts[:]
        gc.set_threshold(1)
        reference.kernel()
        gc.set_threshold(*threshold)
        assert starts == []
        gc.set_threshold(1)
        live.append(([], []))  # ...and the probe does see allocations.
        gc.set_threshold(*threshold)
        assert starts != []
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(on_gc)


def test_churn_reference_model():
    # By hand: from seed 7, r = 24 then 5, both < 32, so k = r % 2 +
    # card - 2 = 2 then 3; from seed 1, r = 42, so k = 42 % 16 = 10.
    assert workloads.churn_reference(1, 4, 7) == 0 + (1 + 3 + 5 + 7)
    assert workloads.churn_reference(2, 4, 7) == \
        16 + 1 + (1 + 4 + 7 + 10 + 13)
    assert workloads.churn_reference(1, 16, 1) == 10 * 66 + 12


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_cli("--workload", "churn", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert "correct" not in done.stdout
