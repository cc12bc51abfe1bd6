#!/usr/bin/env python
"""Numeric kernels: keyed scalar multiply and sparse mat-vec.

Two of the paper's numeric benchmarks:

* **scalar-matrix multiply** uses a *keyed* dynamic region --
  ``dynamicRegion key(s) (s, n)`` -- so each scalar value gets its own
  compiled kernel, cached and reused; multiplications are
  strength-reduced per value (x*8 becomes a shift, x*12 a shift+add).

* **sparse matrix-vector multiply** treats the CSR structure *and*
  values as run-time constants: both loops fully unroll, column
  indices become address immediates, and the row-pointer/index loads
  vanish into set-up code.

Run:  python examples/matrix_kernels.py [--seed N]

With ``--seed`` the sparse-matrix structure and the choice of keyed
kernels inspected derive from one ``random.Random(seed)`` stream;
without it the historical fixed data is used.
"""

import argparse
import random

from repro import compile_program
from repro.bench.harness import measure
from repro.obs import observing
from repro.bench.workloads import (
    scalar_matrix_workload, sparse_matvec_workload,
)


def show(name, row):
    region = row.region
    print("%s:" % name)
    print("  config:               %s" % row.workload.config)
    print("  static cycles/exec:   %.0f" % region.static_per_exec)
    print("  dynamic cycles/exec:  %.0f" % region.dynamic_per_exec)
    print("  asymptotic speedup:   %.2fx" % region.speedup)
    print("  one-time overhead:    %d cycles" % region.overhead_cycles)
    print("  breakeven:            %s executions" % region.breakeven_runs)
    fired = [k for k, v in row.optimizations.items() if v]
    print("  optimizations:        %s" % ", ".join(fired))
    print()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=None,
                        help="derive the sparse-matrix data and the "
                             "keyed-kernel sample from this seed "
                             "(default: the fixed historical data)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a Chrome trace of the demo to PATH")
    parser.add_argument("--metrics", action="store_true",
                        help="print the obs metrics snapshot to stderr")
    args = parser.parse_args()
    rng = random.Random(args.seed) if args.seed is not None else None
    print(__doc__)

    with observing(args.trace, args.metrics):
        scalar = scalar_matrix_workload(rows=16, cols=25, scalars=16)
        show("scalar-matrix multiply", measure(scalar))

        # Peek at the per-key specialization.
        program = compile_program(scalar.source, mode="dynamic")
        result = program.run()
        reports = result.stitch_reports
        if rng is not None:
            sample = sorted(rng.sample(range(len(reports)),
                                       min(8, len(reports))))
            reports = [reports[i] for i in sample]
        print("per-scalar strength reduction (one stitched kernel per "
              "key):")
        for report in reports[:8]:
            events = ", ".join("%s" % k for k in report.peepholes) \
                or "generic mulq"
            print("  s = %-3s -> %s" % (report.key[0], events))
        print()

        sparse_seed = rng.randrange(1 << 30) if rng is not None else 1996
        sparse = sparse_matvec_workload(size=20, per_row=4, reps=5,
                                        seed=sparse_seed)
        row = measure(sparse)
        show("sparse matrix-vector multiply", row)
        report = row.dynamic_result.stitch_reports[0]
        outer = report.loop_iterations.get(1, 0)
        sparse_program = compile_program(sparse.source, mode="dynamic")
        template_size = sparse_program.template_size("spmv", 1)
        print("unrolling: outer loop %d rows, %d template instructions "
              "-> %d stitched"
              % (outer - 1, template_size, report.instrs_emitted))


if __name__ == "__main__":
    main()
