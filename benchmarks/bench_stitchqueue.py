"""Stitch-queue gates: async latency economics and the hang gate.

Two standing claims about asynchronous stitching get pinned here, both
in bit-deterministic simulated cycles (no host timing):

* **Latency economics** -- on the skewed-key cache-pressure storm
  (two hot keys take half the entries, a uniform tail the rest), the
  async queue must land every hot-key stitch, keep the shed rate
  bounded, keep the entries-to-land latency within the configured
  drain cadence, and return results bit-identical to the synchronous
  baseline while staying within ``--gate`` percent of its cycles.

* **The hang gate** -- a region whose every stitch hangs
  (``stitch.hang[<func>]:1.0``) must never wedge the run: the
  watchdog expires the hung jobs on the simulated-cycle deadline, the
  region breaker trips that region down to the fallback tier, the
  *other* region still lands its stitches, and the program result
  stays bit-identical to the fault-free synchronous run.

The measurement core lives in :mod:`repro.bench.stitchqueue`, shared
with the ``stitchqueue`` flight-recorder collector
(``python -m repro.obs record stitchqueue``).

Usage::

    PYTHONPATH=src python benchmarks/bench_stitchqueue.py
    PYTHONPATH=src python benchmarks/bench_stitchqueue.py --gate 15
    PYTHONPATH=src python benchmarks/bench_stitchqueue.py --hang-only
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
# An explicit PYTHONPATH names the tree to measure; without one, this
# checkout's src/ is measured.
if not os.environ.get("PYTHONPATH"):
    sys.path.insert(0, str(REPO_ROOT / "src"))

import repro  # noqa: E402
from repro.bench.stitchqueue import (  # noqa: E402
    check_hang, hang_gate, measure,
)


def main(argv: List[str] = None) -> int:
    print("repro: %s" % Path(repro.__file__).resolve().parent)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gate", type=float, default=15.0,
                        metavar="PCT",
                        help="max allowed total-cycle overhead of the "
                             "async queue vs sync stitching, percent "
                             "(default 15)")
    parser.add_argument("--shed-gate", type=float, default=0.5,
                        metavar="RATE",
                        help="max allowed shed fraction of enqueued "
                             "jobs (default 0.5)")
    parser.add_argument("--hang-only", action="store_true",
                        help="run only the hung-job-never-wedges gate")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the rows to this path")
    args = parser.parse_args(argv)

    failures = 0
    rows: List[Dict[str, object]] = []
    if not args.hang_only:
        rows = measure()
        print("%-40s %12s %12s %8s %5s %5s %5s %6s %13s"
              % ("cell", "sync cyc", "async cyc", "delta", "enq",
                 "land", "shed", "late", "lat min/med/max"))
        for row in rows:
            print("%-40s %12d %12d %+7.2f%% %5d %5d %5d %6d %4d/%d/%d"
                  % (row["cell"], row["sync_cycles"],
                     row["async_cycles"], row["delta_pct"],
                     row["enqueued"], row["landed"], row["shed"],
                     row["expired"], row["latency_min"],
                     row["latency_median"], row["latency_max"]))
            if row["delta_pct"] > args.gate:
                print("FAIL %s: async overhead %.2f%% exceeds gate "
                      "%.2f%%" % (row["cell"], row["delta_pct"],
                                  args.gate), file=sys.stderr)
                failures += 1
            if row["shed_rate"] > args.shed_gate:
                print("FAIL %s: shed rate %.2f exceeds gate %.2f"
                      % (row["cell"], row["shed_rate"],
                         args.shed_gate), file=sys.stderr)
                failures += 1
            if row["landed"] == 0:
                print("FAIL %s: no stitch ever landed"
                      % row["cell"], file=sys.stderr)
                failures += 1

    hang = hang_gate()
    print()
    print("hang gate: value_ok=%s hung=%d expired=%d breaker_trips=%d "
          "landed=%s (completed in %d cycles)"
          % (hang["value_ok"], hang["hung"], hang["expired"],
             hang["breaker_trips"], ",".join(hang["landed_funcs"]),
             hang["completed_cycles"]))
    for problem in check_hang(hang):
        print("FAIL hang gate: %s" % problem, file=sys.stderr)
        failures += 1

    if args.json:
        args.json.write_text(json.dumps(
            {"cells": rows, "hang": hang}, indent=2, sort_keys=True)
            + "\n")
    if not failures:
        print("stitch-queue gates: OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
