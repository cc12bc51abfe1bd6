"""The cache-pressure benchmark: key cardinality vs cache capacity.

The paper's workloads never stress the code cache -- each region sees
a handful of keys and every version stays resident.  This workload
does the opposite: a keyed region whose stitched size *varies by key*
(the key bounds an unrolled loop) is driven by a pseudo-random key
sequence drawn from a configurable cardinality, under a bounded cache.
Sweeping cardinality against capacity exposes the cache-policy
economics the paper leaves implicit: the hit rate you give up and the
re-stitch cycles you pay for every entry of capacity you take away.

Variable entry sizes also make the free list fragment (a small freed
block cannot hold a big re-stitch), which is what drives the
compaction pass -- the CI smoke job uses this workload at a tiny
capacity to prove evictions and at least one compaction happen and
that results stay bit-identical to the unbounded run.

Run standalone::

    python -m repro.bench.cachepressure
    python -m repro.bench.cachepressure --policy lru --capacity 2 \\
        --executions 120 --cardinality 8 --trace pressure.json
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from ..codecache import CacheConfig
from ..errors import ArenaExhausted
from ..obs import trace as obs_trace
from ..runtime.engine import Program, compile_program

#: The key bounds an unrolled loop, so versions differ in size --
#: small keys stitch small entries, large keys big ones.  The key
#: sequence is skewed (half the entries go to two hot keys, half are
#: uniform over the full cardinality): a pure cyclic sequence is LRU's
#: pathological worst case (0% hits at any capacity below the
#: cardinality), which would flatten the sweep's hit-rate gradient.
#: The generator's PRNG state starts at ``seed`` so sweeps (and the
#: tiering bench) can draw deterministic, *distinct* key streams;
#: :data:`DEFAULT_SEED` reproduces the historical stream exactly.
SOURCE = """
int region(int k, int v) {
    int t = v;
    dynamicRegion key(k) (k) {
        int i;
        unrolled for (i = 0; i < k + 2; i++) t += i * k + 1;
        return t;
    }
}

int main(int n, int card, int seed) {
    int r = seed;
    int k = 0;
    int t = 0;
    int i;
    for (i = 0; i < n; i++) {
        r = (r * 29 + 13) % 64;
        if (r < 32) {
            k = r % 2 + card - 2;
        } else {
            k = r % card;
        }
        t = t + region(k, i);
    }
    return t;
}
"""

#: The historical hardcoded PRNG start (``int r = 7``).
DEFAULT_SEED = 7


def compile_pressure_program() -> Program:
    return compile_program(SOURCE, mode="dynamic")


def run_cell(program: Program, executions: int, cardinality: int,
             config: CacheConfig, seed: int = DEFAULT_SEED
             ) -> Dict[str, object]:
    """One sweep cell: run the key sequence under one cache config."""
    result = program.run("main", [executions, cardinality, seed],
                         cache=config)
    stats = result.cache_stats
    seen: set = set()
    restitch_cycles = 0
    for report in result.stitch_reports:
        if report.key in seen:
            restitch_cycles += report.cycles
        seen.add(report.key)
    entries = stats.hits + stats.misses
    return {
        "policy": config.describe(),
        "cardinality": cardinality,
        "capacity": config.max_entries,
        "value": result.value,
        "entries": entries,
        "hit_rate": stats.hits / entries if entries else 0.0,
        "stitches": len(result.stitch_reports),
        "restitches": stats.restitches,
        "restitch_cycles": restitch_cycles,
        "evictions": stats.evictions,
        "compactions": stats.compactions,
        "live_entries": stats.live_entries,
        "live_code_words": stats.live_code_words,
    }


def sweep(executions: int = 200,
          cardinalities: tuple = (4, 8, 16),
          capacities: tuple = (None, 8, 4, 2),
          policy: str = "lru",
          program: Optional[Program] = None,
          seed: int = DEFAULT_SEED) -> List[Dict[str, object]]:
    """The full sweep; ``None`` capacity means the unbounded baseline.
    Every bounded cell is checked bit-identical to its baseline.
    ``seed`` starts the skewed-key generator (default: the historical
    stream)."""
    program = program or compile_pressure_program()
    rows: List[Dict[str, object]] = []
    baselines: Dict[int, object] = {}
    for cardinality in cardinalities:
        for capacity in capacities:
            config = (CacheConfig() if capacity is None
                      else CacheConfig(policy=policy,
                                       max_entries=capacity))
            row = run_cell(program, executions, cardinality, config,
                           seed=seed)
            if capacity is None:
                baselines[cardinality] = row["value"]
            elif row["value"] != baselines.get(cardinality):
                raise AssertionError(
                    "cache pressure cell card=%d cap=%s changed the "
                    "result: %r != %r" % (cardinality, capacity,
                                          row["value"],
                                          baselines.get(cardinality)))
            rows.append(row)
    return rows


def format_sweep(rows: List[Dict[str, object]]) -> str:
    """The report printed after Table 3."""
    lines = [
        "Cache pressure: hit rate / re-stitch cycles vs capacity "
        "(keyed region, variable-size versions)",
        "",
        "%-10s %-18s %9s %9s %9s %12s %7s %9s"
        % ("keys", "cache", "entries", "hit rate", "stitches",
           "restitch cyc", "evicted", "compacted"),
    ]
    for row in rows:
        lines.append(
            "%-10d %-18s %9d %8.1f%% %9d %12d %7d %9d"
            % (row["cardinality"], row["policy"], row["entries"],
               100.0 * row["hit_rate"], row["stitches"],
               row["restitch_cycles"], row["evictions"],
               row["compactions"]))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.cachepressure",
        description="Cache-pressure workload: keyed region under a "
                    "bounded code cache (the CI eviction/compaction "
                    "smoke).")
    parser.add_argument("--executions", type=int, default=120)
    parser.add_argument("--cardinality", type=int, default=8)
    parser.add_argument("--policy", default="lru",
                        choices=["lru", "cost-aware"])
    parser.add_argument("--capacity", type=int, default=2,
                        help="max live entries (default 2)")
    parser.add_argument("--words", type=int, default=None,
                        help="max live code words (optional)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="skewed-key generator seed (default %d, "
                             "the historical stream)" % DEFAULT_SEED)
    parser.add_argument("--sweep", action="store_true",
                        help="run the full cardinality x capacity sweep "
                             "instead of one cell")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a Chrome trace (cache.evict / "
                             "cache.compact instants included)")
    parser.add_argument("--require-evictions", action="store_true",
                        help="exit non-zero unless the run evicted and "
                             "compacted at least once (CI smoke gate)")
    args = parser.parse_args(argv)

    tracer = obs_trace.Tracer() if args.trace else None
    if tracer is not None:
        obs_trace.install(tracer)
    try:
        program = compile_pressure_program()
        if args.sweep:
            rows = sweep(executions=args.executions, policy=args.policy,
                         program=program, seed=args.seed)
            print(format_sweep(rows))
            evictions = sum(int(r["evictions"]) for r in rows)
            compactions = sum(int(r["compactions"]) for r in rows)
        else:
            baseline = run_cell(program, args.executions,
                                args.cardinality, CacheConfig(),
                                seed=args.seed)
            cell = run_cell(program, args.executions, args.cardinality,
                            CacheConfig(policy=args.policy,
                                        max_entries=args.capacity,
                                        max_words=args.words),
                            seed=args.seed)
            if cell["value"] != baseline["value"]:
                print("FAIL: bounded run changed the program result: "
                      "%r != %r" % (cell["value"], baseline["value"]),
                      file=sys.stderr)
                return 1
            print(format_sweep([baseline, cell]))
            print()
            print("result %r identical to the unbounded baseline"
                  % cell["value"])
            evictions = int(cell["evictions"])
            compactions = int(cell["compactions"])
    except ArenaExhausted as exc:
        # A capacity/workload combination that outgrows the arena is a
        # configuration problem, not a crash: report what was asked for
        # and what was left, then fail the run cleanly.
        print("FAIL: code arena exhausted under this workload: %s" % exc,
              file=sys.stderr)
        print("      (shrink --executions/--cardinality or raise the "
              "capacity)", file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            obs_trace.install(None)
            tracer.write_chrome(args.trace)
            print("wrote trace: %s (%d events)"
                  % (args.trace, len(tracer.events)), file=sys.stderr)
    if args.require_evictions and (evictions == 0 or compactions == 0):
        print("FAIL: expected eviction+compaction pressure, got "
              "%d evictions, %d compactions" % (evictions, compactions),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
