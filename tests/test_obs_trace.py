"""Tracer semantics and trace-event schema validity (repro.obs.trace).

Covers the event buffer (spans, instants, ring mode, drop counting),
the module-level install/span helpers' disabled path, both
serializations round-tripping through :func:`load_trace`, and -- the CI
contract -- that a real compile+run under tracing emits only
schema-valid events with spans for every pipeline stage.
"""

from __future__ import annotations

import json

from repro.obs import trace
from repro.runtime.engine import compile_program

SOURCE = """
int kernel(int *xs, int n, int q) {
    int total = 0;
    dynamicRegion (n, q) {
        int i;
        unrolled for (i = 0; i < n; i++) {
            if (q > 2) total += xs dynamic[ i ] * q;
            else total += xs dynamic[ i ];
        }
    }
    return total;
}

int main() {
    int xs[6];
    int i;
    for (i = 0; i < 6; i++) xs[i] = i + 1;
    int sum = 0;
    for (i = 0; i < 40; i++) sum += kernel(xs, 6, 3);
    return sum;
}
"""


def test_span_records_complete_event_with_mutable_args():
    tracer = trace.Tracer()
    with tracer.span("opt.fold", "opt", func="f") as args:
        args["rewrites"] = 3
    (event,) = tracer.events
    assert event["ph"] == "X"
    assert event["name"] == "opt.fold"
    assert event["cat"] == "opt"
    assert event["args"] == {"func": "f", "rewrites": 3}
    assert event["dur"] >= 0
    assert trace.validate_events([event]) == []


def test_instant_event_schema():
    tracer = trace.Tracer()
    tracer.instant("cache.hit", "runtime", region="f:1")
    (event,) = tracer.events
    assert event["ph"] == "i"
    assert event["s"] == "t"
    assert trace.validate_events([event]) == []


def test_span_recorded_even_when_body_raises():
    tracer = trace.Tracer()
    try:
        with tracer.span("stage", "opt"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert len(tracer.events) == 1


def test_non_ring_drops_and_counts_when_full():
    tracer = trace.Tracer(max_events=2)
    for i in range(5):
        tracer.instant("e%d" % i, "vm")
    assert [e["name"] for e in tracer.events] == ["e0", "e1"]
    assert tracer.dropped == 3


def test_ring_keeps_newest():
    tracer = trace.Tracer(max_events=3, ring=True)
    for i in range(10):
        tracer.instant("e%d" % i, "vm")
    assert [e["name"] for e in tracer.events] == ["e7", "e8", "e9"]
    assert tracer.dropped == 0
    assert tracer.tail(2)[-1]["name"] == "e9"


def test_module_helpers_noop_without_installed_tracer():
    assert trace.current() is None
    # Must not raise, must not record anywhere.
    with trace.span("x", "opt") as args:
        assert args is None
    trace.instant("y", "opt")


def test_tracing_contextmanager_restores_previous():
    outer = trace.Tracer()
    inner = trace.Tracer()
    with trace.tracing(outer):
        assert trace.current() is outer
        with trace.tracing(inner):
            trace.instant("only-inner", "vm")
            assert trace.current() is inner
        assert trace.current() is outer
    assert trace.current() is None
    assert [e["name"] for e in inner.events] == ["only-inner"]
    assert outer.events == []


def test_validate_rejects_malformed_events():
    bad = [
        {"name": "", "cat": "opt", "ph": "X", "ts": 0, "dur": 1,
         "pid": 0, "tid": 0, "args": {}},            # empty name
        {"name": "a", "cat": "nope", "ph": "X", "ts": 0, "dur": 1,
         "pid": 0, "tid": 0, "args": {}},            # unknown category
        {"name": "a", "cat": "opt", "ph": "Z", "ts": 0,
         "pid": 0, "tid": 0, "args": {}},            # bad phase
        {"name": "a", "cat": "opt", "ph": "X", "ts": -1, "dur": 1,
         "pid": 0, "tid": 0, "args": {}},            # negative ts
        {"name": "a", "cat": "opt", "ph": "X", "ts": 0,
         "pid": 0, "tid": 0, "args": {}},            # X without dur
        {"name": "a", "cat": "opt", "ph": "i", "ts": 0,
         "pid": 0, "tid": 0, "args": {}},            # instant w/o scope
        {"name": "a", "cat": "opt", "ph": "X", "ts": 0, "dur": 1,
         "pid": 0, "tid": 0, "args": []},            # args not a dict
    ]
    errors = trace.validate_events(bad)
    assert len(errors) == len(bad)


def test_chrome_and_jsonl_roundtrip(tmp_path):
    tracer = trace.Tracer()
    with tracer.span("stage", "codegen", n=1):
        tracer.instant("mark", "codegen")
    chrome_path = tmp_path / "trace.json"
    jsonl_path = tmp_path / "trace.jsonl"
    tracer.write_chrome(str(chrome_path))
    tracer.write_jsonl(str(jsonl_path))

    document = json.loads(chrome_path.read_text())
    assert trace.validate_chrome(document) == []
    assert document["traceEvents"] == list(tracer.events)

    for path in (chrome_path, jsonl_path):
        events = trace.load_trace(str(path))
        assert events == list(tracer.events)
        assert trace.validate_events(events) == []

    assert tracer.dumps_jsonl().count("\n") == 2
    line = trace.dumps_event(tracer.events[0])
    assert json.loads(line) == tracer.events[0]


def test_real_pipeline_trace_is_schema_valid_and_covers_stages():
    tracer = trace.Tracer()
    with trace.tracing(tracer):
        program = compile_program(SOURCE, mode="dynamic")
        result = program.run()
    assert result.value == 40 * 63
    assert trace.validate_events(tracer.events) == []
    names = {event["name"] for event in tracer.events}
    for expected in ("frontend.parse", "frontend.typecheck", "ir.build",
                     "opt.fold", "opt.dce", "analysis.rtconst",
                     "split.module", "split.region", "codegen.lower",
                     "stitch.region", "vm.run", "cache.hit",
                     "cache.miss"):
        assert expected in names, "missing %s in %s" % (expected,
                                                        sorted(names))
    # The stitch span carries the report's facts.
    (stitch,) = tracer.by_name("stitch.region")
    assert stitch["args"]["instrs_emitted"] > 0
    assert stitch["args"]["stitcher_cycles"] > 0
    # One cold lookup (miss), then cache hits for the remaining calls.
    assert len(tracer.by_name("cache.miss")) == 1
    assert len(tracer.by_name("cache.hit")) == 39
    # Opt spans carry IR size deltas.
    fold = tracer.by_name("opt.fold")[0]
    assert fold["args"]["instrs_before"] >= fold["args"]["instrs_after"]


def test_async_run_trace_is_schema_valid(tmp_path):
    """An async run's queue instants -- here an admission, a landing
    and a cancellation (a colder job shed to admit a hotter one) --
    carry a valid category, so the written trace validates."""
    from repro.bench.cachepressure import compile_pressure_program

    tracer = trace.Tracer()
    program = compile_pressure_program()
    with trace.tracing(tracer):
        result = program.run("main", [40, 8, 7],
                             stitch="async:drain=4,depth=1")
    names = {event["name"] for event in tracer.events}
    assert {"stitch.enqueue", "stitch.land", "stitch.cancel"} <= names
    assert result.queue_stats.cancelled == {"shed": 1}
    path = tmp_path / "async.json"
    tracer.write_chrome(str(path))
    assert trace.validate_events(trace.load_trace(str(path))) == []
