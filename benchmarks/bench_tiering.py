"""Tiering economics gate: breakeven must not lose to eager.

The adaptive ``breakeven`` tier exists to *skip* stitches that never
amortize; the risk it introduces is paying so many cold (fallback-
tier) executions that it loses the cycles it saved on stitching.  This
script pins both sides of that bargain on the skewed-key cache-
pressure workload (two hot keys take half the entries, a uniform tail
takes the rest -- exactly the reuse profile the paper's Section 5
economics describe):

* **strictly fewer stitches** -- the breakeven run must stitch fewer
  region versions than eager (the cold tail stays on the fallback
  tier), and
* **no cycle regression beyond the gate** -- the breakeven run's total
  simulated cycles must stay within ``--gate`` percent of the eager
  run (default 2%), with bit-identical program results.

Both runs share one compiled program and deterministic key streams
(the generator seed is threaded through ``main(n, card, seed)``), so
the comparison is exact and reproducible -- no host timing involved.
The cells and their measurement are the flight recorder's tiering
rows (:func:`repro.obs.history.tiering_rows`, behind
``python -m repro.obs record|compare tiering``); this script gates
them.

Usage::

    PYTHONPATH=src python benchmarks/bench_tiering.py
    PYTHONPATH=src python benchmarks/bench_tiering.py --gate 2
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parent.parent
# An explicit PYTHONPATH names the tree to measure; without one, this
# checkout's src/ is measured.
if not os.environ.get("PYTHONPATH"):
    sys.path.insert(0, str(REPO_ROOT / "src"))

import repro  # noqa: E402
from repro.obs.history import tiering_rows  # noqa: E402


def main(argv: List[str] = None) -> int:
    print("repro: %s" % Path(repro.__file__).resolve().parent)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gate", type=float, default=2.0, metavar="PCT",
                        help="max allowed total-cycle regression vs "
                             "eager, percent (default 2)")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the rows to this path")
    args = parser.parse_args(argv)

    rows = []
    for name, row in tiering_rows().items():
        delta_pct = ((row["tiered_cycles"] - row["eager_cycles"])
                     / row["eager_cycles"] * 100.0)
        rows.append(dict(row, cell=name, delta_pct=round(delta_pct, 3)))
    print("%-24s %14s %14s %8s %9s %9s %6s %6s"
          % ("cell", "eager cyc", "tiered cyc", "delta", "stitches",
             "(eager)", "cold", "promo"))
    for row in rows:
        print("%-24s %14d %14d %+7.2f%% %9d %9d %6d %6d"
              % (row["cell"], row["eager_cycles"], row["tiered_cycles"],
                 row["delta_pct"], row["tiered_stitches"],
                 row["eager_stitches"], row["cold_entries"],
                 row["promotions"]))

    if args.json:
        args.json.write_text(json.dumps(rows, indent=2, sort_keys=True)
                             + "\n")
    failures = 0
    for row in rows:
        if row["tiered_stitches"] >= row["eager_stitches"]:
            print("FAIL %s: tiered stitched %d regions, eager %d "
                  "(expected strictly fewer)"
                  % (row["cell"], row["tiered_stitches"],
                     row["eager_stitches"]), file=sys.stderr)
            failures += 1
        if row["delta_pct"] > args.gate:
            print("FAIL %s: cycle regression %.2f%% exceeds gate %.2f%%"
                  % (row["cell"], row["delta_pct"], args.gate),
                  file=sys.stderr)
            failures += 1
    worst = max(row["delta_pct"] for row in rows)
    print("worst cycle delta vs eager: %+.2f%% (gate %.2f%%)"
          % (worst, args.gate))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
