"""The perf-trajectory flight recorder: record + compare benchmarks.

Each supported benchmark (``hostperf``, ``cachepressure``,
``tiering``, ``stitchqueue``) appends timestamped entries to the
``"trajectory"`` list of a ``BENCH_<name>.json`` file.  An entry is
``{"recorded_at", "rows"}`` (plus an optional ``"note"``) where
``rows`` maps a stable row name (workload or sweep cell) to its
measured metrics.  A benchmark's collector is its one measurement:
the CI gate scripts ``benchmarks/bench_hostperf.py``,
``bench_tiering.py`` and ``bench_stitchqueue.py`` gate the same rows
(the last through :mod:`repro.bench.stitchqueue`, which its collector
calls).

``compare`` gates a candidate entry -- either freshly collected
(``--run``) or the latest committed one -- against the *best* value
of each gated metric over the previous ``window`` entries
(best-of-last-5 by default), failing when the candidate regresses by
more than ``max_regression`` percent.

Gated metrics are simulated-cycle observables by default: they are
bit-deterministic, so the gate holds exactly on any machine.  Host
wall-clock metrics (``*_s`` seconds) are recorded in every entry but
only gated when ``include_host`` is set, since comparing seconds
across different machines is noise, not signal.

CLI surface: ``python -m repro.obs record|compare`` (see
``repro.obs.__main__``).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Benchmark name -> gated metrics as (metric, direction, is_host):
#: direction "lower" means smaller is better.  Non-gated row metrics
#: still ride along in every entry for inspection.
GATES: Dict[str, Tuple[Tuple[str, str, bool], ...]] = {
    "hostperf": (
        ("simulated_cycles", "lower", False),
        ("steady_run_s", "lower", True),
        ("first_run_s", "lower", True),
        ("compile_s", "lower", True),
    ),
    "cachepressure": (
        ("restitch_cycles", "lower", False),
        ("hit_rate", "higher", False),
        ("evictions", "lower", False),
    ),
    "tiering": (
        ("tiered_cycles", "lower", False),
        ("eager_cycles", "lower", False),
        ("tiered_stitches", "lower", False),
    ),
    "stitchqueue": (
        ("async_cycles", "lower", False),
        ("latency_median", "lower", False),
        ("shed", "lower", False),
        ("completed_cycles", "lower", False),
    ),
}

BENCHMARKS = tuple(sorted(GATES))

DEFAULT_WINDOW = 5
DEFAULT_MAX_REGRESSION = 10.0


class HistoryError(Exception):
    """Unknown benchmark, missing trajectory, or malformed file."""


# -- trajectory files ------------------------------------------------------

def default_dir() -> Path:
    """Where ``BENCH_<name>.json`` files live: $REPRO_BENCH_DIR, else
    the repo root (the directory holding pyproject.toml above this
    file), else the current directory."""
    env = os.environ.get("REPRO_BENCH_DIR")
    if env:
        return Path(env)
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "pyproject.toml").exists():
            return parent
    return Path.cwd()


def trajectory_path(benchmark: str,
                    directory: Optional[Path] = None) -> Path:
    if benchmark not in GATES:
        raise HistoryError("unknown benchmark %r (know: %s)"
                           % (benchmark, ", ".join(BENCHMARKS)))
    base = directory if directory is not None else default_dir()
    return Path(base) / ("BENCH_%s.json" % benchmark)


def load_document(path: Path) -> Dict[str, object]:
    if not Path(path).exists():
        return {"schema": 1}
    try:
        document = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise HistoryError("%s: not JSON (%s)" % (path, exc))
    if not isinstance(document, dict):
        raise HistoryError("%s: top level must be an object" % path)
    return document


def load_trajectory(path: Path) -> List[Dict[str, object]]:
    trajectory = load_document(path).get("trajectory", [])
    if not isinstance(trajectory, list):
        raise HistoryError("%s: trajectory must be an array" % path)
    return trajectory


def append_entry(path: Path, entry: Dict[str, object]) -> None:
    """Append one trajectory entry, preserving any sibling keys the
    file already carries (e.g. ``schema``)."""
    document = load_document(path)
    trajectory = document.setdefault("trajectory", [])
    if not isinstance(trajectory, list):
        raise HistoryError("%s: trajectory must be an array" % path)
    trajectory.append(entry)
    Path(path).write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n")


def make_entry(rows: Dict[str, Dict[str, object]],
               note: str = "") -> Dict[str, object]:
    entry: Dict[str, object] = {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "rows": rows,
    }
    if note:
        entry["note"] = note
    return entry


# -- collectors ------------------------------------------------------------

def hostperf_workloads(quick: bool = True) -> List[Tuple[str, Callable]]:
    """``(row name, workload builder)`` pairs the hostperf rows cover:
    the quick pair, then (unless ``quick``) the rest of Table 2."""
    from ..bench.workloads import (
        calculator_workload, sparse_matvec_workload, scalar_matrix_workload,
        event_dispatcher_workload, record_sorter_workload,
    )
    workloads: List[Tuple[str, Callable]] = [
        ("calculator", calculator_workload),
        ("sparse_matvec_small",
         lambda: sparse_matvec_workload(size=12, per_row=3)),
    ]
    if not quick:
        workloads += [
            ("scalar_matrix", scalar_matrix_workload),
            ("sparse_matvec_large",
             lambda: sparse_matvec_workload(size=24, per_row=5)),
            ("event_dispatcher", event_dispatcher_workload),
            ("record_sorter_1key",
             lambda: record_sorter_workload(keys=[(0, 0)])),
            ("record_sorter_2key",
             lambda: record_sorter_workload(keys=[(2, 1), (0, 2)])),
        ]
    return workloads


def _observables(result) -> Dict[str, object]:
    """The simulated observables the backend seam must preserve."""
    return {
        "value": result.value,
        "float_value": result.float_value,
        "output": list(result.output),
        "cycles": result.cycles,
        "cycles_by_owner": dict(result.cycles_by_owner),
        "instrs_by_owner": dict(result.instrs_by_owner),
        "op_counts": dict(result.op_counts),
    }


def hostperf_rows(quick: bool = True,
                  steady_runs: int = 3) -> Dict[str, Dict[str, object]]:
    """Compile/first/steady host seconds + simulated cycles for the
    Table 2 workloads (the quick pair by default).

    Every workload is measured under both execution backends: the
    historical row name carries the default ``rvm`` numbers (keeping
    the trajectory comparable across entries that predate the backend
    seam) and a ``<name>@pycode`` sibling row tracks the
    closure-composition backend.  ``steady_run_s`` is the fastest of
    ``steady_runs`` reruns of the same program.  Before any row is
    returned, each first run must give the workload's expected value,
    each rerun must repeat the first run's value and cycles, and the
    two backends' first runs must agree on every simulated observable;
    ``simulated_cycles`` is also gated, so a backend that drifts from
    the bit-identical contract trips the flight recorder as well."""
    from ..runtime.engine import compile_program

    rows: Dict[str, Dict[str, object]] = {}
    for name, builder in hostperf_workloads(quick):
        workload = builder()
        firsts = []
        for backend in ("rvm", "pycode"):
            key = name if backend == "rvm" else "%s@%s" % (name, backend)
            t0 = time.perf_counter()
            program = compile_program(workload.source, mode="dynamic",
                                      backend=backend)
            compile_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            first = program.run()
            first_run_s = time.perf_counter() - t0
            if workload.expected is not None \
                    and first.value != workload.expected:
                raise AssertionError("%s: result %d != expected %d"
                                     % (key, first.value, workload.expected))
            steady = []
            for _ in range(max(1, steady_runs)):
                t0 = time.perf_counter()
                rerun = program.run()
                steady.append(time.perf_counter() - t0)
                if (rerun.value, rerun.cycles) != (first.value, first.cycles):
                    raise AssertionError(
                        "%s: nondeterministic rerun (value %r/%r, cycles "
                        "%d/%d)" % (key, first.value, rerun.value,
                                    first.cycles, rerun.cycles))
            firsts.append(first)
            rows[key] = {
                "compile_s": round(compile_s, 6),
                "first_run_s": round(first_run_s, 6),
                "steady_run_s": round(min(steady), 6),
                "simulated_cycles": first.cycles,
            }
        if _observables(firsts[0]) != _observables(firsts[1]):
            raise AssertionError("%s: simulated observables differ "
                                 "between rvm and pycode" % name)
    return rows


#: (executions, cardinality, policy, capacity) cache-pressure cells --
#: bounded caches under enough key pressure to force evictions.
_PRESSURE_CELLS = (
    (200, 8, "lru", 4),
    (200, 16, "lru", 4),
    (200, 8, "lru", 2),
    (200, 8, "cost-aware", 4),
)


def _collect_cachepressure(**_kw) -> Dict[str, Dict[str, object]]:
    from ..bench.cachepressure import (
        DEFAULT_SEED, compile_pressure_program, run_cell,
    )
    from ..codecache import CacheConfig

    program = compile_pressure_program()
    rows: Dict[str, Dict[str, object]] = {}
    for executions, cardinality, policy, capacity in _PRESSURE_CELLS:
        config = CacheConfig(policy=policy, max_entries=capacity)
        cell = run_cell(program, executions, cardinality, config,
                        seed=DEFAULT_SEED)
        name = "n=%d card=%d %s cap=%d" % (executions, cardinality,
                                           policy, capacity)
        rows[name] = {
            "hit_rate": round(float(cell["hit_rate"]), 6),
            "stitches": cell["stitches"],
            "restitches": cell["restitches"],
            "restitch_cycles": cell["restitch_cycles"],
            "evictions": cell["evictions"],
            "compactions": cell["compactions"],
        }
    return rows


#: (executions, cardinality, seed) tiering cells on the skewed-key
#: cache-pressure program: enough reuse for the hot keys to promote,
#: enough cold tail for skipped stitches to matter.  ``None`` is the
#: program's default seed.
_TIERING_CELLS = (
    (120, 8, None),
    (160, 12, None),
    (120, 8, 23),
)


def tiering_rows(**_kw) -> Dict[str, Dict[str, object]]:
    """Eager vs ``breakeven``-tiered runs of each tiering cell on one
    compiled program, bit-identical results enforced."""
    from ..bench.cachepressure import DEFAULT_SEED, compile_pressure_program

    program = compile_pressure_program()
    rows: Dict[str, Dict[str, object]] = {}
    for executions, cardinality, seed in _TIERING_CELLS:
        seed = DEFAULT_SEED if seed is None else seed
        args = [executions, cardinality, seed]
        eager = program.run("main", list(args))
        tiered = program.run("main", list(args), tier="breakeven")
        if tiered.value != eager.value:
            raise AssertionError(
                "tiered run changed the result: %r != %r (cell %r)"
                % (tiered.value, eager.value, args))
        name = "n=%d card=%d seed=%d" % (executions, cardinality, seed)
        rows[name] = {
            "eager_cycles": eager.cycles,
            "tiered_cycles": tiered.cycles,
            "eager_stitches": len(eager.stitch_reports),
            "tiered_stitches": len(tiered.stitch_reports),
            "cold_entries": len(tiered.cold_entries),
            "promotions": sum(s["promotions"]
                              for s in tiered.tier_stats.values()),
        }
    return rows


def _collect_stitchqueue(**_kw) -> Dict[str, Dict[str, object]]:
    """The async-stitching cells plus the hang gate, straight from
    :mod:`repro.bench.stitchqueue` (the same measurement core the
    ``benchmarks/bench_stitchqueue.py`` CI gate runs).  The hang gate
    must pass before anything is recorded: a trajectory entry from a
    wedged or silently-degraded run would poison the baseline pool."""
    from ..bench.stitchqueue import check_hang, hang_gate, measure

    rows: Dict[str, Dict[str, object]] = {}
    for cell in measure():
        name = str(cell.pop("cell"))
        rows[name] = cell
    hang = hang_gate()
    problems = check_hang(hang)
    if problems:
        raise AssertionError("stitch-queue hang gate failed: "
                             + "; ".join(problems))
    rows["hang gate"] = {
        "completed_cycles": hang["completed_cycles"],
        "hung": hang["hung"],
        "expired": hang["expired"],
        "breaker_trips": hang["breaker_trips"],
    }
    return rows


_COLLECTORS: Dict[str, Callable[..., Dict[str, Dict[str, object]]]] = {
    "hostperf": hostperf_rows,
    "cachepressure": _collect_cachepressure,
    "tiering": tiering_rows,
    "stitchqueue": _collect_stitchqueue,
}


def collect(benchmark: str, quick: bool = True) -> Dict[str, Dict[str, object]]:
    """Run ``benchmark`` once and return its trajectory rows."""
    if benchmark not in _COLLECTORS:
        raise HistoryError("unknown benchmark %r (know: %s)"
                           % (benchmark, ", ".join(BENCHMARKS)))
    return _COLLECTORS[benchmark](quick=quick)


def record(benchmark: str, directory: Optional[Path] = None,
           quick: bool = True, note: str = "") -> Path:
    """Collect one entry and append it to the trajectory file."""
    rows = collect(benchmark, quick=quick)
    path = trajectory_path(benchmark, directory)
    append_entry(path, make_entry(rows, note=note))
    return path


# -- comparison ------------------------------------------------------------

@dataclass
class MetricDelta:
    row: str
    metric: str
    direction: str
    host: bool
    best: float
    candidate: float
    delta_pct: float          # positive == worse
    gated: bool
    regressed: bool

    def to_dict(self) -> Dict[str, object]:
        return {"row": self.row, "metric": self.metric,
                "direction": self.direction, "host": self.host,
                "best": self.best, "candidate": self.candidate,
                "delta_pct": round(self.delta_pct, 3),
                "gated": self.gated, "regressed": self.regressed}


@dataclass
class Comparison:
    benchmark: str
    window: int
    max_regression: float
    baseline_entries: int
    deltas: List[MetricDelta] = field(default_factory=list)
    note: str = ""

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> Dict[str, object]:
        return {"benchmark": self.benchmark, "window": self.window,
                "max_regression_pct": self.max_regression,
                "baseline_entries": self.baseline_entries,
                "ok": self.ok, "note": self.note,
                "deltas": [d.to_dict() for d in self.deltas]}


def require_trajectory(benchmark: str,
                       directory: Optional[Path] = None) -> Path:
    """The benchmark's trajectory path, or a one-line
    :class:`HistoryError` telling the user how to create it when the
    file is missing or holds no entries yet."""
    path = trajectory_path(benchmark, directory)
    if not Path(path).exists():
        raise HistoryError(
            "%s: no trajectory file -- record a baseline first with "
            "`python -m repro.obs record %s`" % (path, benchmark))
    if not load_trajectory(path):
        raise HistoryError(
            "%s: trajectory is empty -- record a baseline first with "
            "`python -m repro.obs record %s`" % (path, benchmark))
    return path


def compare(benchmark: str,
            directory: Optional[Path] = None,
            candidate_rows: Optional[Dict[str, Dict[str, object]]] = None,
            window: int = DEFAULT_WINDOW,
            max_regression: float = DEFAULT_MAX_REGRESSION,
            include_host: bool = False) -> Comparison:
    """Gate a candidate against best-of-last-``window`` entries.

    Without ``candidate_rows`` the latest committed entry is the
    candidate and the entries before it are the baseline pool; with
    fresh rows (``record --run``-style), every committed entry is
    eligible baseline.
    """
    path = require_trajectory(benchmark, directory)
    trajectory = load_trajectory(path)
    if candidate_rows is None:
        candidate_rows = trajectory[-1].get("rows", {})
        pool = trajectory[:-1]
    else:
        pool = trajectory
    pool = pool[-window:]

    result = Comparison(benchmark=benchmark, window=window,
                        max_regression=max_regression,
                        baseline_entries=len(pool))
    if not pool:
        result.note = ("no baseline entries yet (trajectory has %d "
                       "entries); nothing to gate" % len(trajectory))
        return result

    for metric, direction, host in GATES[benchmark]:
        gated = not host or include_host
        for row_name in sorted(candidate_rows):
            row = candidate_rows[row_name]
            if metric not in row:
                continue
            baseline_values = [
                float(entry["rows"][row_name][metric])
                for entry in pool
                if row_name in entry.get("rows", {})
                and metric in entry["rows"][row_name]]
            if not baseline_values:
                continue
            best = (min(baseline_values) if direction == "lower"
                    else max(baseline_values))
            candidate = float(row[metric])
            if best == 0:
                delta_pct = 0.0 if candidate == 0 else float("inf")
            elif direction == "lower":
                delta_pct = (candidate - best) / best * 100.0
            else:
                delta_pct = (best - candidate) / best * 100.0
            regressed = gated and delta_pct > max_regression
            result.deltas.append(MetricDelta(
                row=row_name, metric=metric, direction=direction,
                host=host, best=best, candidate=candidate,
                delta_pct=delta_pct, gated=gated, regressed=regressed))
    return result


def format_comparison(comparison: Comparison) -> str:
    lines = ["%s: %s (gate %.1f%%, best-of-last-%d, %d baseline entries)"
             % (comparison.benchmark,
                "OK" if comparison.ok else "REGRESSED",
                comparison.max_regression, comparison.window,
                comparison.baseline_entries)]
    if comparison.note:
        lines.append("  " + comparison.note)
    for delta in comparison.deltas:
        marker = "!!" if delta.regressed else \
            ("--" if not delta.gated else "ok")
        lines.append(
            "  [%s] %-28s %-18s best=%-12g now=%-12g %+.2f%%"
            % (marker, delta.row, delta.metric, delta.best,
               delta.candidate, delta.delta_pct))
    return "\n".join(lines)
