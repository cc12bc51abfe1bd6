"""Overhead gates for the observability layer (disabled + sampling).

The obs hooks (repro.obs) ship disabled; their cost while disabled is
one attribute/global load and branch per hook site, plus the region
runtime's (deliberately unconditional) entry/cache-hit accounting.
This script measures that cost **in-process on one machine** -- no
cross-machine noise -- by timing steady-state runs of the quick
hostperf workloads (``repro.obs.history.hostperf_workloads``) three
ways:

* **shipped**  -- the code as committed (observability present, off);
* **bare**     -- the same run with the region runtime's hot hook
  monkeypatched back to a guard-free, accounting-free body (the
  pre-observability fast path);
* **sampling** -- shipped hooks with the metrics registry enabled and
  a :class:`repro.obs.timeseries.TimeSeriesSampler` installed at its
  default cadence (the ``obs export`` / ``--metrics-out`` path).

Each round runs the three variants back to back, and a round's
relative differences ``(shipped - bare) / bare`` and ``(sampling -
bare) / bare`` are its paired overheads.  The disabled-path and
sampling-path overheads are the medians of those paired overheads over
all rounds: pairing cancels the host's drift between rounds, and the
median ignores the rounds a neighbour's load landed on.  CI runs this
with ``--gate 2 --sampling-gate 5`` and fails if shipped is more than
2% slower than bare, or sampling more than 5% (the observability
budget: free when off and cheap when sampling).

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py \
        --runs 400 --gate 2 --sampling-gate 5
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from statistics import median
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
if not any(Path(p).resolve() == REPO_ROOT / "src"
           for p in sys.path if p):
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.codecache import CacheKey, region_key  # noqa: E402
from repro.machine.isa import CPOOL  # noqa: E402
from repro.obs import timeseries as obs_ts  # noqa: E402
from repro.obs.history import hostperf_workloads  # noqa: E402
from repro.obs.metrics import registry as obs_registry  # noqa: E402
from repro.runtime.engine import _RegionRuntime, compile_program  # noqa: E402


def _bare_lookup(self, vm, instr):
    """_RegionRuntime.lookup without obs guards or entry accounting
    (the pre-observability body, for A/B timing only).  Every
    ``Program.run`` builds a fresh ``CodeCache``, so each run's first
    entry of each key misses: there this returns 0 and the glue falls
    through to the real ``region_stitch`` path, which logs the entry
    as in the shipped variant.  Only hits take the bare path."""
    func, region_id = instr.extra
    region = self._regions[(func, region_id)]
    key = CacheKey(func, region_id,
                   region_key(vm.regs, region.key_count))
    cached = self.cache.lookup(key)
    if cached is None:
        return 0
    vm.regs[CPOOL] = cached.pool_base
    return cached.entry_pc


def measure(runs: int) -> Dict[str, Dict[str, float]]:
    rows: Dict[str, Dict[str, float]] = {}
    shipped_lookup = _RegionRuntime.lookup
    for name, builder in hostperf_workloads(quick=True):
        workload = builder()
        program = compile_program(workload.source, mode="dynamic")
        program.run()  # warm: build VM, load, first stitch
        # Strictly alternate shipped/bare/sampling runs and compare
        # each round's runs with each other, so CPU frequency drift
        # hits every variant equally; sequential blocks here showed
        # phantom multi-percent "overheads".
        shipped: List[float] = []
        bare: List[float] = []
        sampling: List[float] = []
        try:
            for _ in range(runs):
                _RegionRuntime.lookup = shipped_lookup
                t0 = time.perf_counter()
                program.run()
                shipped.append(time.perf_counter() - t0)
                _RegionRuntime.lookup = _bare_lookup
                t0 = time.perf_counter()
                program.run()
                bare.append(time.perf_counter() - t0)
                _RegionRuntime.lookup = shipped_lookup
                obs_registry.enable()
                obs_ts.install(obs_ts.TimeSeriesSampler())
                t0 = time.perf_counter()
                program.run()
                sampling.append(time.perf_counter() - t0)
                obs_ts.install(None)
                obs_registry.reset()
                obs_registry.disable()
        finally:
            _RegionRuntime.lookup = shipped_lookup
            obs_ts.install(None)
            obs_registry.disable()
        overhead = median((s - b) / b for s, b in zip(shipped, bare)) * 100
        s_overhead = median(
            (s - b) / b for s, b in zip(sampling, bare)) * 100
        rows[name] = {
            "shipped_s": round(median(shipped), 6),
            "bare_s": round(median(bare), 6),
            "sampling_s": round(median(sampling), 6),
            "overhead_pct": round(overhead, 3),
            "sampling_overhead_pct": round(s_overhead, 3),
        }
        print("%-22s shipped %8.4fs  bare %8.4fs  sampling %8.4fs  "
              "overhead %+6.2f%%  sampling %+6.2f%%"
              % (name, median(shipped), median(bare), median(sampling),
                 overhead, s_overhead))
    return rows


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=25,
                        help="interleaved rounds, one run of each "
                             "variant a round (default 25)")
    parser.add_argument("--gate", type=float, default=None, metavar="PCT",
                        help="exit 1 if any workload's disabled-path "
                             "overhead exceeds PCT percent")
    parser.add_argument("--sampling-gate", type=float, default=None,
                        metavar="PCT",
                        help="exit 1 if any workload's sampling-path "
                             "overhead exceeds PCT percent")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the rows to this path")
    args = parser.parse_args(argv)

    rows = measure(max(1, args.runs))
    worst = max(row["overhead_pct"] for row in rows.values())
    worst_sampling = max(row["sampling_overhead_pct"]
                         for row in rows.values())
    print("worst disabled-path overhead: %+.2f%%" % worst)
    print("worst sampling-path overhead: %+.2f%%" % worst_sampling)

    if args.json:
        args.json.write_text(json.dumps(rows, indent=2, sort_keys=True)
                             + "\n")
    status = 0
    if args.gate is not None and worst > args.gate:
        print("FAIL: disabled overhead %.2f%% exceeds gate %.2f%%"
              % (worst, args.gate), file=sys.stderr)
        status = 1
    if args.sampling_gate is not None and worst_sampling > args.sampling_gate:
        print("FAIL: sampling overhead %.2f%% exceeds gate %.2f%%"
              % (worst_sampling, args.sampling_gate), file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
