"""Observer-effect parity: tracing/metrics never change the simulation.

The whole observability layer is host-side: every simulated observable
-- final value, total cycles, per-owner cycle/instruction accounting,
opcode histogram, stitch reports, region-entry counts, the runtime
event log -- must be bit-identical between a run with tracing+metrics
fully on and a run with both off.  If a hook ever leaks into the cost
model (say, by charging a cycle for a trace event), this is the test
that catches it.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bench.workloads import (
    calculator_workload, event_dispatcher_workload, sparse_matvec_workload,
)
from repro.obs import metrics, trace
from repro.runtime.engine import compile_program

CASES = {
    "calculator": lambda: calculator_workload(xs=3, ys=3),
    "sparse_matvec": lambda: sparse_matvec_workload(size=8, per_row=3,
                                                    reps=2),
    "event_dispatcher": lambda: event_dispatcher_workload(nguards=6,
                                                          events=30),
}


def observables(result):
    return {
        "value": result.value,
        "cycles": result.cycles,
        "output": list(result.output),
        "cycles_by_owner": dict(result.cycles_by_owner),
        "instrs_by_owner": dict(result.instrs_by_owner),
        "op_counts": dict(result.op_counts),
        "region_entries": dict(result.region_entries),
        "cache_hits": list(result.cache_hits),
        "stitch_reports": [dataclasses.asdict(report)
                           for report in result.stitch_reports],
        "events": list(result.events),
    }


@pytest.mark.parametrize("mode", ["dynamic", "static"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_tracing_and_metrics_do_not_perturb_simulation(name, mode):
    source = CASES[name]().source

    plain = observables(compile_program(source, mode=mode).run())

    tracer = trace.Tracer()
    metrics.registry.enable()
    try:
        with trace.tracing(tracer):
            observed = observables(
                compile_program(source, mode=mode).run())
    finally:
        metrics.registry.disable()
        metrics.registry.reset()

    assert observed == plain
    if mode == "dynamic":
        assert tracer.events, "tracer recorded nothing in dynamic mode"
    assert trace.validate_events(tracer.events) == []


def test_sampler_and_exporters_do_not_perturb_simulation():
    """The full telemetry stack -- labeled metrics, the time-series
    sampler on both logical clocks, counter-track tracing, and both
    exporters -- must leave every simulated observable bit-identical."""
    from repro.obs import export, timeseries

    source = CASES["sparse_matvec"]().source
    plain = observables(compile_program(source, mode="dynamic").run())

    tracer = trace.Tracer()
    sampler = timeseries.TimeSeriesSampler(every_entries=2,
                                           every_cycles=5_000, capacity=16)
    metrics.registry.clear()
    metrics.registry.enable()
    try:
        with trace.tracing(tracer), timeseries.sampling(sampler):
            observed = observables(
                compile_program(source, mode="dynamic").run())
        snap = metrics.registry.snapshot()
    finally:
        metrics.registry.disable()
        metrics.registry.clear()

    assert observed == plain
    assert sampler.samples > 0, "sampler never fired"
    document = export.series_document(sampler, snapshot=snap)
    assert document["series"], "no series recorded"
    export.parse_openmetrics(export.to_openmetrics(snap))
    assert any(event["ph"] == "C" for event in tracer.events), \
        "no Perfetto counter tracks in the trace"
    assert trace.validate_events(tracer.events) == []


def test_rerun_parity_with_tracing_toggled_between_runs():
    """Toggling observability *between* runs of one Program must not
    change the second run either (reset_for_rerun path)."""
    source = CASES["sparse_matvec"]().source
    program = compile_program(source, mode="dynamic")
    first = observables(program.run())
    tracer = trace.Tracer()
    with trace.tracing(tracer):
        second = observables(program.run())
    assert second == first
