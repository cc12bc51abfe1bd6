"""Metric definitions: names, units, and what each layer metric should move.

End-to-end metrics are measured with tracing off; their host times are
normalized by the reference kernel (``reference.py``).  Per-layer metrics
come from a separate traced run (``--trace 1``, see ``tracer.py``) and
are raw host times.  Every per-layer time is self time per timed request
with GC pauses excluded; every count is per timed request; every ratio
names its base, and reads 0 when its base is 0.

This file is the map later performance work cites: for each per-layer
metric, the end-to-end metric it should move, the workloads that load its
layer heavily, and the workloads that leave it light (where a change to
the layer should show no change).  ``BENCHMARK.json`` lists the same
names, units and directions; ``test_perfbench.py`` checks that they agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    meaning: str
    #: share of the parent's median by which the metric may worsen; None
    #: for a metric printed but not gated (see ``error_rate``).
    bound: Optional[float]


@dataclass(frozen=True)
class Layer:
    """A per-layer metric; the name's prefix is the package under
    ``src/repro`` that it measures."""

    name: str
    unit: str
    better: str
    #: computes the value from a ``tracer.Profile``.
    value: Callable
    moves: str
    heavy: str
    light: str


END_TO_END = [
    EndToEnd("setup_s", "s", "lower",
             "seconds from process start to the first timed request, "
             "normalized; median of 3 fresh processes", 0.25),
    EndToEnd("req_per_s", "1/s", "higher",
             "timed requests completed / their normalized host seconds",
             0.25),
    EndToEnd("req_p50_ms", "ms", "lower",
             "median normalized host latency of one request", 0.25),
    EndToEnd("req_p90_ms", "ms", "lower",
             "90th percentile of normalized request latency (>=100 "
             "requests a run)", 0.25),
    EndToEnd("sim_cycles_per_req", "cycles", "lower",
             "simulated RVM cycles per request over the first whole "
             "cycles of the schedule; repeats exactly for a seed", 0.1),
    EndToEnd("stitched_words_per_req", "words", "lower",
             "instructions the stitcher emits per request over the same "
             "requests; repeats exactly for a seed", 0.1),
    EndToEnd("peak_rss_mb", "MB", "lower",
             "peak resident memory of the workload's process", 0.2),
    # Always 0 on a correct build, so it cannot be gated as a share of
    # its median: the result line carries it as ``failed``/``attempted``.
    EndToEnd("error_rate", "ratio", "lower",
             "failed requests / attempted requests", None),
]

GATED = [m for m in END_TO_END if m.bound is not None]

_COMPILE = "req_p50_ms, req_per_s on cold; only setup_s elsewhere"


PER_LAYER = [
    Layer("frontend.parse_ms", "ms", "lower",
          lambda p: p.ms("parse"), _COMPILE, "cold", "warm, churn"),
    Layer("frontend.typecheck_ms", "ms", "lower",
          lambda p: p.ms("check"), _COMPILE, "cold", "warm, churn"),
    Layer("ir.build_ms", "ms", "lower",
          lambda p: p.ms("build_module"), _COMPILE, "cold", "warm, churn"),
    Layer("ir.ssa_ms", "ms", "lower",
          lambda p: p.ms("to_ssa", "from_ssa"), _COMPILE, "cold",
          "warm, churn"),
    Layer("opt.optimize_ms", "ms", "lower",
          lambda p: p.ms("optimize"), _COMPILE, "cold", "warm, churn"),
    Layer("opt.rewrites", "count", "higher",
          lambda p: p.per_request("opt.rewrites"), _COMPILE, "cold",
          "warm, churn"),
    Layer("dynamic.split_ms", "ms", "lower",
          lambda p: p.ms("split_module"), _COMPILE, "cold", "warm, churn"),
    Layer("codegen.lower_ms", "ms", "lower",
          lambda p: p.ms("lower_module"), _COMPILE, "cold", "warm, churn"),
    Layer("codegen.static_words", "words", "lower",
          lambda p: p.per_request("codegen.static_words"), _COMPILE,
          "cold", "warm, churn"),
    Layer("engine.compile_ms", "ms", "lower",
          lambda p: p.inclusive_ms("compile_program"), _COMPILE, "cold",
          "warm, churn"),
    Layer("engine.run_self_ms", "ms", "lower",
          lambda p: p.ms("Program.run"), "req_per_s", "all", "none"),
    Layer("machine.vm_init_ms", "ms", "lower",
          lambda p: p.ms("VM.__init__"), "req_p50_ms on cold, req_per_s",
          "cold", "warm, churn"),
    Layer("machine.load_ms", "ms", "lower",
          lambda p: p.ms("load_program"), "req_p50_ms on cold, req_per_s",
          "cold", "warm, churn"),
    Layer("machine.reset_ms", "ms", "lower",
          lambda p: p.ms("VM.reset_for_rerun"), "req_per_s",
          "warm, churn", "cold"),
    Layer("machine.gc_pause_ms", "ms", "lower",
          lambda p: p.gc_ms(), "req_p90_ms, req_per_s, peak_rss_mb",
          "cold, warm", "churn"),
    Layer("machine.gc_full_collections", "count", "lower",
          lambda p: p.per_request("gc.full"),
          "req_p90_ms, req_per_s, peak_rss_mb", "cold, warm", "churn"),
    Layer("backends.rvm.execute_self_ms", "ms", "lower",
          lambda p: p.ms("ExecutionBackend.execute:rvm"),
          "req_per_s, req_p50_ms", "warm", "cold"),
    Layer("backends.pycode.execute_self_ms", "ms", "lower",
          lambda p: p.ms("ExecutionBackend.execute:pycode"),
          "req_per_s, req_p50_ms", "warm", "cold"),
    Layer("backends.rvm.sim_minstr_per_s", "Minstr/s", "higher",
          lambda p: p.minstr_per_s("rvm"),
          "req_per_s, req_p50_ms", "warm", "cold"),
    Layer("backends.pycode.sim_minstr_per_s", "Minstr/s", "higher",
          lambda p: p.minstr_per_s("pycode"),
          "req_per_s, req_p50_ms", "warm", "cold"),
    Layer("backends.pycode.prepare_ms", "ms", "lower",
          lambda p: p.ms("PycodeBackend.prepare_vm"),
          "req_p50_ms on cold", "cold", "warm"),
    Layer("backends.pycode.entry_compile_ms", "ms", "lower",
          lambda p: p.ms("PycodeBackend.entry_installed",
                         "PycodeBackend.block_installed"),
          "req_per_s on warm", "warm", "cold"),
    Layer("backends.pycode.factory_hit_ratio", "ratio", "higher",
          lambda p: p.ratio("pycode.factory_hits", "pycode.segments"),
          "req_p50_ms on cold", "cold", "warm"),
    Layer("dynamic.stitch_ms", "ms", "lower",
          lambda p: p.ms("stitch_entry"), "req_per_s", "warm, churn",
          "cold"),
    Layer("dynamic.stitches", "count", "lower",
          lambda p: p.per_request("stitch.ok"), "req_per_s", "warm, churn",
          "cold"),
    Layer("dynamic.stitch_us_per_word", "us/word", "lower",
          lambda p: 1e6 * p.ratio_s("stitch_entry", "stitch.words"),
          "req_per_s", "warm, churn", "cold"),
    Layer("dynamic.repeat_stitch_ratio", "ratio", "lower",
          lambda p: p.ratio("stitch.repeats", "stitch.ok"),
          "req_per_s", "warm, churn", "cold"),
    Layer("dynamic.stitch_failures", "count", "lower",
          lambda p: p.per_request("stitch_entry.errors")
          + p.per_request("CodeCache.insert.errors"), "error_rate",
          "none", "all"),
    Layer("codecache.lookups", "count", "lower",
          lambda p: p.per_request("cache.lookups"), "req_per_s on warm",
          "warm, churn", "cold"),
    Layer("codecache.lookup_us", "us", "lower",
          lambda p: p.us("CodeCache.lookup"), "req_per_s on warm",
          "warm, churn", "cold"),
    Layer("codecache.hit_ratio", "ratio", "higher",
          lambda p: p.ratio("cache.hits", "cache.lookups"),
          "req_per_s", "warm, churn", "cold"),
    Layer("codecache.insert_ms", "ms", "lower",
          lambda p: p.ms("CodeCache.insert"), "req_per_s",
          "warm, churn", "cold"),
    Layer("codecache.evictions", "count", "lower",
          lambda p: p.per_request("cache.evictions"),
          "req_per_s, req_p90_ms on churn", "churn", "warm, cold"),
    Layer("codecache.compactions", "count", "lower",
          lambda p: p.per_request("cache.compactions"),
          "req_per_s, req_p90_ms on churn", "churn", "warm, cold"),
    Layer("codecache.compact_ms", "ms", "lower",
          lambda p: p.ms("CodeCache.compact"),
          "req_per_s, req_p90_ms on churn", "churn", "warm, cold"),
    Layer("runtime.lookup_self_us", "us", "lower",
          lambda p: p.us("_RegionRuntime.lookup"), "req_p50_ms on churn",
          "churn", "warm, cold"),
    Layer("runtime.stitch_self_us", "us", "lower",
          lambda p: p.us("_RegionRuntime.stitch"), "req_p50_ms on churn",
          "churn", "warm, cold"),
    Layer("runtime.fallback_build_ms", "ms", "lower",
          lambda p: p.ms("build_fallback"), "req_p50_ms on churn",
          "churn", "warm, cold"),
    Layer("runtime.fallback_entry_ratio", "ratio", "lower",
          lambda p: p.ratio("rt.fallback_entries", "rt.region_entries"),
          "req_p50_ms, sim_cycles_per_req on churn", "churn",
          "warm, cold (must stay 0)"),
    Layer("runtime.tier_decide_us", "us", "lower",
          lambda p: p.us("TierController.decide"), "req_p50_ms on churn",
          "churn", "warm, cold"),
    Layer("runtime.queue_tick_us", "us", "lower",
          lambda p: p.us("StitchQueue.on_entry"), "req_p50_ms on churn",
          "churn", "warm, cold"),
    Layer("runtime.queue_land_ratio", "ratio", "higher",
          lambda p: p.ratio("queue.landed", "queue.enqueued"),
          "sim_cycles_per_req on churn", "churn", "warm, cold"),
    Layer("runtime.queue_wait_entries_p50", "entries", "lower",
          lambda p: p.queue_wait_p50(), "sim_cycles_per_req on churn",
          "churn", "warm, cold"),
    # The trace's own accounting: layer self times + GC pauses +
    # unattributed time = traced wall time per request.
    Layer("trace.wall_ms", "ms", "lower",
          lambda p: p.wall_ms(), "req_per_s", "all", "none"),
    Layer("trace.unattributed_ms", "ms", "lower",
          lambda p: p.ms("request"), "req_per_s", "all", "none"),
    Layer("trace.overhead_ratio", "ratio", "lower",
          lambda p: p.overhead_ratio(), "none (tracing cost)", "all",
          "none"),
]
