"""Stitch-queue measurement core: the async storm and the hang gate.

Shared by ``benchmarks/bench_stitchqueue.py`` (the CI gate script)
and the flight recorder's ``stitchqueue`` collector
(:mod:`repro.obs.history`), so the trajectory file and the gate
script measure exactly the same cells.

Everything here is bit-deterministic simulated cycles -- the async
queue drains on logical clocks (region entries / simulated cycles),
so two runs of a cell produce identical numbers on any machine.
"""

from __future__ import annotations

from typing import Dict, List

from ..runtime.engine import compile_program
from .cachepressure import DEFAULT_SEED, compile_pressure_program

#: (executions, cardinality, seed, stitch spec) cells: the same skewed
#: key streams the cache/tiering benches use, under queue configs that
#: exercise the drain cadence and (at depth 2) the shed path.
CELLS = [
    (120, 8, DEFAULT_SEED, "async"),
    (120, 8, DEFAULT_SEED, "async:drain=2,depth=2"),
    (160, 12, DEFAULT_SEED, "async:drain=8,batch=2"),
]

#: Two independent keyed regions: the hang gate scopes
#: ``stitch.hang`` to ``rega`` and demands ``regb`` keeps landing.
TWO_REGION_SOURCE = """
int rega(int k, int v) {
    int t = v;
    dynamicRegion key(k) (k) { int r = t * 3 + k * 5; return r; }
}

int regb(int k, int v) {
    int t = v;
    dynamicRegion key(k) (k) { int r = t * 7 + k * 2; return r; }
}

int main(int n) {
    int t = 0;
    int i;
    for (i = 0; i < n; i++) {
        t = t + rega(i % 3, i) + regb(i % 4, i);
    }
    return t;
}
"""


def measure() -> List[Dict[str, object]]:
    """The latency-economics cells: async vs sync on one compiled
    program, bit-identical results enforced."""
    program = compile_pressure_program()
    rows: List[Dict[str, object]] = []
    for executions, cardinality, seed, spec in CELLS:
        args = [executions, cardinality, seed]
        sync = program.run("main", list(args))
        run = program.run("main", list(args), stitch=spec)
        if run.value != sync.value:
            raise AssertionError(
                "async run changed the result: %r != %r (cell %r %s)"
                % (run.value, sync.value, args, spec))
        qs = run.queue_stats
        assert qs is not None, "async run recorded no queue stats"
        lats = sorted(qs.land_latencies)
        delta_pct = (run.cycles - sync.cycles) / sync.cycles * 100.0
        rows.append({
            "cell": "n=%d card=%d seed=%d %s"
                    % (executions, cardinality, seed, spec),
            "sync_cycles": sync.cycles,
            "async_cycles": run.cycles,
            "delta_pct": round(delta_pct, 3),
            "enqueued": qs.enqueued,
            "landed": qs.landed,
            "shed": qs.shed,
            "shed_rate": round(qs.shed / qs.enqueued, 6)
                         if qs.enqueued else 0.0,
            "expired": qs.expired,
            "cancelled": qs.total_cancelled,
            "queued_entries": len(run.queued_entries),
            "latency_min": lats[0] if lats else 0,
            "latency_median": lats[len(lats) // 2] if lats else 0,
            "latency_max": lats[-1] if lats else 0,
        })
    return rows


def hang_gate(deadline: int = 5_000,
              executions: int = 60) -> Dict[str, object]:
    """Chaos cell: every ``rega`` stitch hangs; the run must complete
    with the correct value while ``regb`` still lands.

    The deadline is tuned against the drain cadence: long enough for
    healthy ``regb`` jobs to land (batch=2 promotes two jobs per
    drain), short enough that hung ``rega`` jobs expire well inside
    the run so the watchdog and breaker observably fire."""
    program = compile_program(TWO_REGION_SOURCE, mode="dynamic")
    baseline = program.run("main", [executions])
    run = program.run(
        "main", [executions],
        faults="stitch.hang[rega]:1.0",
        stitch="async:drain=2,batch=2,deadline=%d" % deadline)
    qs = run.queue_stats
    assert qs is not None
    landed_funcs = sorted({r.func_name for r in run.stitch_reports})
    breaker_trips = sum(s["trips"]
                        for s in run.breaker_stats.values())
    return {
        "value_ok": run.value == baseline.value,
        "completed_cycles": run.cycles,
        "hung": qs.hung,
        "expired": qs.expired,
        "cancelled": qs.total_cancelled,
        "pending": qs.pending,
        "breaker_trips": breaker_trips,
        "landed_funcs": landed_funcs,
        "hang_faults": run.fault_counts.get("stitch.hang", 0),
    }


def check_hang(row: Dict[str, object]) -> List[str]:
    """The hang gate's failure conditions (empty = pass)."""
    failures = []
    if not row["value_ok"]:
        failures.append("hung region changed the program result")
    if row["hang_faults"] == 0 or row["hung"] != row["hang_faults"]:
        failures.append("expected every rega stitch to hang (faults=%s "
                        "hung=%s)" % (row["hang_faults"], row["hung"]))
    if row["expired"] == 0:
        failures.append("watchdog never expired a hung job")
    if row["breaker_trips"] == 0:
        failures.append("breaker never tripped on the hung region")
    if "regb" not in row["landed_funcs"]:
        failures.append("healthy region regb landed no stitches")
    if "rega" in row["landed_funcs"]:
        failures.append("hung region rega landed a stitch")
    return failures
