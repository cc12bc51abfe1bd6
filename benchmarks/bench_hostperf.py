"""Host-speedup gate: pycode must run VM-bound workloads >=5x faster.

Unlike the cycle-accurate Table 2/3 benches (which measure *simulated*
cycles), this script gates how long the host takes to run the
reproduction itself.  It reads the flight recorder's hostperf rows
(:func:`repro.obs.history.hostperf_rows`, the measurement behind
``python -m repro.obs record|compare hostperf``): compile time, first
run and best-of-``--runs`` steady-state reruns of every Table 2
workload under both backends, after that measurement has checked each
workload's expected value, rerun determinism and bit-identical
simulated observables across backends.  It writes no file; the host
trajectory lives in ``BENCH_hostperf.json`` via ``repro.obs record``.

The gate: every **VM-bound** workload must run at least 5x faster
steady-state under pycode than under rvm.  VM-bound is defined
objectively: the share of rvm steady-state host time spent inside
runtime services (``VM._call_rt``: region lookup, stitching,
allocation, printing) is below 10%, read from the fastest of at least
5 reruns in both modes.  Runtime-service host cost is a
backend-independent floor -- a workload that spends a third of its
wall clock there can never reach 5x end-to-end no matter how fast
stitched code executes -- so the gate applies where the backend
actually runs the show.

Usage::

    PYTHONPATH=src python benchmarks/bench_hostperf.py           # full
    PYTHONPATH=src python benchmarks/bench_hostperf.py --quick   # smoke
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Callable, List

REPO_ROOT = Path(__file__).resolve().parent.parent
# An explicit PYTHONPATH names the tree to measure; without one, this
# checkout's src/ is measured.
if not os.environ.get("PYTHONPATH"):
    sys.path.insert(0, str(REPO_ROOT / "src"))

import repro  # noqa: E402
from repro.machine.vm import VM  # noqa: E402
from repro.obs.history import hostperf_rows, hostperf_workloads  # noqa: E402
from repro.runtime.engine import compile_program  # noqa: E402

#: Minimum steady-state pycode speedup over rvm on a VM-bound workload.
GATE_SPEEDUP = 5.0
#: A workload is VM-bound when rvm spends less than this fraction of
#: its steady-state host time in runtime services.
VM_BOUND_RT_SHARE = 0.10
#: The share is read from the fastest of at least this many reruns
#: (``--runs`` counts the timed reruns): one rerun's share can land on
#: either side of the line.
SHARE_RUNS = 5


def rvm_rt_share(builder: Callable, steady_runs: int) -> float:
    """Fraction of rvm steady-state host time inside runtime services.

    Wraps ``VM._call_rt`` with a timing accumulator (each run binds
    ``vm._call_rt`` into the VM's runtime-call slot when it starts, so
    every run made under the wrap calls it), then takes the share from
    the fastest of ``steady_runs`` timed reruns.  The instrumented
    program is thrown away -- reported steady times always come from
    unpatched runs."""
    acc = [0.0]
    original = VM._call_rt

    def timed(self, instr):
        t0 = time.perf_counter()
        result = original(self, instr)
        acc[0] += time.perf_counter() - t0
        return result

    VM._call_rt = timed
    try:
        workload = builder()
        program = compile_program(workload.source, mode="dynamic",
                                  backend="rvm")
        program.run()  # warm: build + stitch
        best_total, best_rt = float("inf"), 0.0
        for _ in range(max(1, steady_runs)):
            rt0 = acc[0]
            t0 = time.perf_counter()
            program.run()
            total = time.perf_counter() - t0
            if total < best_total:
                best_total, best_rt = total, acc[0] - rt0
    finally:
        VM._call_rt = original
    return best_rt / best_total if best_total > 0 else 0.0


def main(argv: List[str] = None) -> int:
    print("repro: %s" % Path(repro.__file__).resolve().parent)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: two workloads, one timed "
                             "steady run")
    parser.add_argument("--runs", type=int, default=3,
                        help="timed steady-state repetitions (best-of)")
    args = parser.parse_args(argv)

    steady_runs = 1 if args.quick else max(1, args.runs)
    rows = hostperf_rows(quick=args.quick, steady_runs=steady_runs)
    failures: List[str] = []
    for name, builder in hostperf_workloads(args.quick):
        rvm, pycode = rows[name], rows[name + "@pycode"]
        share = rvm_rt_share(builder, max(SHARE_RUNS, steady_runs))
        speedup = (float(rvm["steady_run_s"])
                   / max(1e-12, float(pycode["steady_run_s"])))
        vm_bound = share < VM_BOUND_RT_SHARE
        verdict = ""
        if vm_bound:
            if speedup >= GATE_SPEEDUP:
                verdict = "  GATE PASS (>= %.1fx)" % GATE_SPEEDUP
            else:
                verdict = "  GATE FAIL (< %.1fx)" % GATE_SPEEDUP
                failures.append(
                    "%s: VM-bound (rt share %.1f%%) but only %.2fx"
                    % (name, share * 100, speedup))
        print("%-22s rvm %7.4fs  pycode %7.4fs  %6.2fx  rt-share %5.1f%%"
              " %s%s"
              % (name, rvm["steady_run_s"], pycode["steady_run_s"],
                 speedup, share * 100,
                 "VM-bound" if vm_bound else "rt-bound", verdict))
    for failure in failures:
        print("GATE FAILURE: %s" % failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
