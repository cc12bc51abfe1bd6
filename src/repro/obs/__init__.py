"""Observability for the dynamic-compilation pipeline.

Three layers, all zero-dependency and all disabled (free) by default:

* :mod:`repro.obs.metrics` -- a process-wide registry of counters,
  gauges and histograms with a no-op fast path while disabled;
* :mod:`repro.obs.trace` -- a structured event tracer (spans +
  instants) emitting JSONL and Chrome trace-event JSON, loadable in
  Perfetto / speedscope, with hook sites across frontend, optimizer,
  analyses, splitter, codegen and stitcher;
* :mod:`repro.obs.sink` -- the one table from a run's entry and event
  records to its metrics and trace instants;
* :mod:`repro.obs.timeseries` -- a deterministic sampler snapshotting
  every instrument into fixed-capacity ring buffers on logical clocks
  (region entries / simulated cycles), deriving rates and ratios;
* :mod:`repro.obs.export` -- OpenMetrics text exposition, JSON series
  dumps, and Perfetto counter tracks in the Chrome trace stream;
* :mod:`repro.obs.health` -- declarative rules over metric values
  producing a structured :class:`HealthReport`;
* :mod:`repro.obs.history` -- the perf-trajectory flight recorder
  (``BENCH_<name>.json`` entries + best-of-last-N regression gates);
* :mod:`repro.obs.profiler` / :mod:`repro.obs.breakeven` -- post-run
  views over the VM's per-owner counter cells: simulated-cycle
  profiles and the paper's Table 2 break-even economics per region.

CLI: ``python -m repro.obs report`` (break-even tables over the bench
workloads), ``python -m repro.obs trace`` (run a program or workload
with tracing and dump the trace), ``python -m repro.obs validate``
(schema-check a trace file -- what CI's trace-smoke job runs),
``python -m repro.obs export`` (OpenMetrics / JSON series dumps),
``python -m repro.obs health`` (rule evaluation over a run), and
``python -m repro.obs record`` / ``compare`` (perf trajectory).

Contract: enabling any of it never changes simulated observables
(cycles, stitch reports, output); tests/test_obs_parity.py pins this.

This module re-exports only the hook-side surface (metrics registry,
tracer install/span helpers) so that importing it from the hot paths
cannot create an import cycle with the runtime engine; the reporting
layers (:mod:`~repro.obs.breakeven`, :mod:`~repro.obs.profiler`)
import the engine and must be imported directly.
"""

import json
import sys
from contextlib import contextmanager

from .metrics import MetricsRegistry, format_snapshot, registry
from .timeseries import TimeSeriesSampler, sampling
from .trace import (
    Tracer, current, install, instant, span, tracing, validate_events,
)


def enable_metrics() -> None:
    """Turn on the process-wide metrics registry."""
    registry.enable()


def disable_metrics() -> None:
    registry.disable()


def report_metrics(show: bool, path=None) -> None:
    """The ``--metrics`` / ``--metrics-out`` flags: print the registry
    snapshot to stdout and/or write it to ``path`` as JSON."""
    snap = registry.snapshot()
    if show:
        print()
        print(format_snapshot(snap))
    if path:
        with open(path, "w") as handle:
            json.dump(snap, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote metrics: %s" % path, file=sys.stderr)


@contextmanager
def observing(trace_path=None, metrics=False, out=None):
    """Turn on tracing and/or metrics for the duration of the block.

    A one-stop front door for scripts and the example programs: when
    ``trace_path`` is given, a Chrome trace of everything inside the
    block is written there at exit; when ``metrics`` is true, the
    registry snapshot is printed (to ``out``, default stderr) at exit.
    With neither, this is a no-op context.
    """
    out = out if out is not None else sys.stderr
    tracer = Tracer() if trace_path else None
    if tracer is not None:
        install(tracer)
    if metrics:
        registry.enable()
    try:
        yield tracer
    finally:
        if tracer is not None:
            install(None)
            tracer.write_chrome(trace_path)
            print("wrote trace: %s (%d events, %d dropped)"
                  % (trace_path, len(tracer.events), tracer.dropped),
                  file=out)
        if metrics:
            print(format_snapshot(registry.snapshot()), file=out)
            registry.disable()


__all__ = [
    "MetricsRegistry",
    "TimeSeriesSampler",
    "Tracer",
    "current",
    "disable_metrics",
    "enable_metrics",
    "format_snapshot",
    "install",
    "instant",
    "observing",
    "registry",
    "report_metrics",
    "sampling",
    "span",
    "tracing",
    "validate_events",
]
