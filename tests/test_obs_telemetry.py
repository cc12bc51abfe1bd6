"""Continuous-telemetry tests: labels, sampler, exporters, health,
and the perf-trajectory flight recorder.

Covers the label semantics of repro.obs.metrics (children aggregate
into the parent for counters/histograms, gauges stay independent), the
deterministic time-series sampler (logical clocks only), the
OpenMetrics/JSON/Perfetto exporters (with a golden exposition for the
small sparse-matvec workload), the declarative health-rule engine
(trigger under seeded faults, silence on clean runs), and the
record/compare trajectory gate (synthetic 15% regression must fail a
10% gate and pass a 20% one).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs import export, health, history, metrics, timeseries, trace
from repro.obs.metrics import MetricError, MetricsRegistry, format_snapshot

GOLDEN_OPENMETRICS = Path(__file__).parent / "golden_openmetrics.prom"


@pytest.fixture
def reg():
    registry = MetricsRegistry()
    registry.enable()
    return registry


# -- labeled instruments ---------------------------------------------------

def test_counter_children_aggregate_into_parent(reg):
    counter = reg.counter("cache.hits")
    counter.labels(region="f:1").inc(3)
    counter.labels(region="g:2").inc(2)
    counter.inc()  # unlabeled: parent only
    assert counter.value == 6  # parent is the all-series total
    assert counter.labels(region="f:1").value == 3
    assert counter.labels(region="g:2").value == 2
    # labels() with no kwargs is the unlabeled API: the parent itself.
    assert counter.labels() is counter
    # label order never matters: one child per frozen label *set*.
    two = reg.counter("multi")
    assert two.labels(a="1", b="2") is two.labels(b="2", a="1")


def test_labels_on_a_child_raises(reg):
    child = reg.counter("c").labels(region="f:1")
    with pytest.raises(MetricError):
        child.labels(region="f:1")


def test_gauge_children_are_independent(reg):
    gauge = reg.gauge("cache.entries")
    gauge.set(10)
    gauge.labels(policy="lru").set(4)
    assert gauge.value == 10  # a gauge parent is not a sum
    assert gauge.labels(policy="lru").value == 4


def test_histogram_children_aggregate_into_parent(reg):
    histogram = reg.histogram("stitch.cycles", buckets=(10, 100))
    histogram.labels(region="f:1").observe(5)
    histogram.labels(region="g:2").observe(50)
    assert histogram.count == 2 and histogram.sum == 55
    assert histogram.labels(region="f:1").count == 1
    assert histogram.bucket_counts == [1, 1, 0]


def test_reset_zeroes_children_and_keeps_identity(reg):
    counter = reg.counter("c")
    child = counter.labels(region="f:1")
    child.inc(5)
    reg.reset()
    assert counter.value == 0 and child.value == 0
    assert counter.labels(region="f:1") is child  # memoizable across reset


def test_histogram_underflow_bucket_for_zero_and_negative(reg):
    histogram = reg.histogram("h")  # DEFAULT_BUCKETS: leading 0 bound
    histogram.observe(0)
    histogram.observe(-3)
    histogram.observe(1)
    snap = reg.snapshot()["h"]
    assert snap["buckets"]["le_0"] == 2
    assert snap["buckets"]["le_1"] == 1
    assert snap["min"] == -3


def test_snapshot_series_and_format_are_sorted(reg):
    counter = reg.counter("c")
    counter.labels(region="z").inc(1)
    counter.labels(region="a").inc(2)
    counter.labels(policy="lru", region="m").inc(4)
    snap = reg.snapshot()
    series = snap["c"]["series"]
    rendered = [s["labels"] for s in series]
    assert rendered == sorted(rendered, key=lambda d: sorted(d.items()))
    text = format_snapshot(snap)
    a_line = text.index('c{region="a"}')
    z_line = text.index('c{region="z"}')
    assert a_line < z_line
    # snapshots with no children carry no "series" key (back-compat).
    reg.counter("plain").inc()
    assert "series" not in reg.snapshot()["plain"]


# -- the deterministic sampler ---------------------------------------------

class _FakeVM:
    def __init__(self):
        self.cycles = 0


def test_sampler_fires_on_entry_clock():
    registry = MetricsRegistry()
    registry.enable()
    counter = registry.counter("cache.hits")
    sampler = timeseries.TimeSeriesSampler(every_entries=4, capacity=8,
                                           registry=registry)
    vm = _FakeVM()
    for step in range(12):
        counter.inc()
        vm.cycles += 100
        sampler.on_entry(vm)
    assert sampler.samples == 3  # entries 4, 8, 12
    series = sampler.series()
    points = next(s for s in series
                  if s["name"] == "cache.hits")["points"]
    assert points == [[4, 400, 4], [8, 800, 8], [12, 1200, 12]]


def test_sampler_cycle_clock_and_ring_capacity():
    registry = MetricsRegistry()
    registry.enable()
    registry.counter("c").inc()
    sampler = timeseries.TimeSeriesSampler(every_entries=None,
                                           every_cycles=1000, capacity=2,
                                           registry=registry)
    vm = _FakeVM()
    for _ in range(10):
        vm.cycles += 600
        sampler.on_entry(vm)
    assert sampler.samples > 2
    points = sampler.series()[0]["points"]
    assert len(points) == 2  # ring keeps only the newest `capacity`


def test_sampler_requires_a_clock_and_capacity():
    with pytest.raises(ValueError):
        timeseries.TimeSeriesSampler(every_entries=None, every_cycles=None)
    with pytest.raises(ValueError):
        timeseries.TimeSeriesSampler(capacity=1)


def test_sampler_derived_ratios_and_rates():
    registry = MetricsRegistry()
    registry.enable()
    hits = registry.counter("cache.hits")
    misses = registry.counter("cache.misses")
    entries = registry.counter("region.entries")
    promotions = registry.counter("tier.promotions")
    evictions = registry.counter("cache.evictions")
    sampler = timeseries.TimeSeriesSampler(every_entries=100,
                                           registry=registry)
    sampler.sample(0)
    hits.inc(9)
    misses.inc(1)
    entries.inc(10)
    promotions.inc(5)
    evictions.inc(2)
    sampler.entries = 10
    sampler.sample(1000)
    derived = {d["name"]: d["points"] for d in sampler.derived()}
    assert derived["cache.hit_ratio"] == [[10, 1000, 0.9]]
    assert derived["tier.promotion_rate"] == [[10, 1000, 0.5]]
    assert derived["cache.evictions_per_kcycle"] == [[10, 1000, 2.0]]
    document = sampler.to_json()
    json.dumps(document)
    assert document["schema"] == 1
    assert document["clock"] == {"entries": 10, "cycles": 1000}


def test_sampler_emits_perfetto_counter_tracks():
    registry = MetricsRegistry()
    registry.enable()
    registry.counter("cache.hits").labels(region="f:1").inc(3)
    sampler = timeseries.TimeSeriesSampler(registry=registry)
    tracer = trace.Tracer()
    with trace.tracing(tracer):
        sampler.sample(500)
    counters = [e for e in tracer.events if e["ph"] == "C"]
    assert counters, "no counter-track events emitted"
    names = {e["name"] for e in counters}
    assert "cache.hits" in names
    assert 'cache.hits{region="f:1"}' in names
    assert all(e["cat"] == "telemetry" for e in counters)
    assert trace.validate_events(tracer.events) == []


# -- exporters -------------------------------------------------------------

def _run_small_spmv_snapshot():
    from repro.bench.workloads import sparse_matvec_workload
    from repro.runtime.engine import compile_program
    metrics.registry.clear()
    metrics.registry.enable()
    try:
        compile_program(sparse_matvec_workload(size=12, per_row=3).source,
                        mode="dynamic").run()
    finally:
        metrics.registry.disable()
    snap = metrics.registry.snapshot()
    metrics.registry.clear()
    return snap


def test_openmetrics_golden_sparse_matvec_small():
    snap = _run_small_spmv_snapshot()
    text = export.to_openmetrics(snap, exclude=("stitch.host_seconds",))
    assert text == GOLDEN_OPENMETRICS.read_text()


def test_openmetrics_parses_and_round_trips():
    snap = _run_small_spmv_snapshot()
    text = export.to_openmetrics(snap, exclude=("stitch.host_seconds",))
    parsed = export.parse_openmetrics(text)
    assert parsed["types"]["region_entries"] == "counter"
    samples = {(name, tuple(sorted(labels.items()))): value
               for name, labels, value in parsed["samples"]}
    assert samples[("region_entries_total", (("region", "spmv:1"),))] \
        == snap["region.entries"]["series"][0]["value"]
    assert samples[("vm_cycles_total", ())] == snap["vm.cycles"]["value"]


def test_openmetrics_rejects_malformed_text():
    with pytest.raises(ValueError):
        export.parse_openmetrics("vm_cycles_total 1\n")  # no # EOF
    with pytest.raises(ValueError):
        export.parse_openmetrics("!bad line!\n# EOF\n")
    with pytest.raises(ValueError):
        export.parse_openmetrics("# EOF\ntrailing 1\n")


def test_counter_remainder_sample_only_when_nonzero(reg):
    counter = reg.counter("c")
    counter.labels(region="f:1").inc(3)
    text = export.to_openmetrics(reg.snapshot())
    # Parent (3) == sum of children (3): no unlabeled remainder line.
    assert 'c_total{region="f:1"} 3' in text
    assert "\nc_total 3" not in text
    counter.inc(2)  # direct unlabeled increments -> remainder sample
    text = export.to_openmetrics(reg.snapshot())
    assert "\nc_total 2" in text


# -- health rules ----------------------------------------------------------

def test_parse_rule_grammar():
    rule = health.parse_rule("warn: fallback.count / region.entries > 0.1")
    assert rule.mode == "ratio" and rule.severity == "warn"
    assert rule.describe() == "warn: fallback.count / region.entries > 0.1"
    rate = health.parse_rule("breaker.trips rate > 0.05")
    assert rate.mode == "rate" and rate.severity == "fail"
    plain = health.parse_rule("cache.checksum_failures > 0")
    assert plain.mode == "value"
    for bad in ("nope", "a ?? 3", "a > x", "a b c > 1"):
        with pytest.raises(health.HealthRuleError):
            health.parse_rule(bad)


def test_evaluate_rate_ratio_and_zero_denominator():
    rules = health.parse_rules("""
        # comment lines are ignored
        warn: fallback.count / region.entries > 0.1
        fail: breaker.trips rate > 0.05
    """)
    report = health.evaluate({"fallback.count": 3, "region.entries": 10,
                              "breaker.trips": 1}, rules, cycles=1000)
    assert report.status == "fail"
    assert [r.rule.severity for r in report.fired] == ["warn", "fail"]
    assert report.results[1].value == pytest.approx(1.0)  # per kcycle
    # Zero denominator / zero cycles never fire.
    quiet = health.evaluate({"fallback.count": 3, "breaker.trips": 1},
                            rules, cycles=0)
    assert quiet.status == "ok"
    assert all(r.value == 0 for r in quiet.results)


def _oracle_dynamic_result(faults=None):
    from repro.bench.workloads import calculator_workload
    from repro.runtime.engine import compile_program
    program = compile_program(calculator_workload().source,
                              mode="dynamic", faults=faults)
    return program.run()


def test_health_fires_under_seeded_faults_and_not_clean():
    clean = health.evaluate_result(_oracle_dynamic_result())
    assert clean.status == "ok" and not clean.fired
    chaotic = health.evaluate_result(
        _oracle_dynamic_result(faults="all:0.2@7"))
    assert chaotic.fired, "seeded chaos run fired no health rules"
    fired_metrics = {r.rule.metric for r in chaotic.fired}
    assert "fault.injected" in fired_metrics


def test_fuzz_health_flags():
    from repro.fuzz import health_flags
    from repro.testing.oracle import Divergence, OracleOutcome, OracleReport

    def report(run_result, *divergences,
               legs=("dynamic",)) -> OracleReport:
        outcomes = {"interp": OracleOutcome("interp", "ok", value=1)}
        for leg in legs:
            outcomes[leg] = OracleOutcome(leg, "ok", value=1,
                                          run_result=run_result)
        return OracleReport([], outcomes, list(divergences))

    degraded = _oracle_dynamic_result(faults="all:0.2@7")
    clean = _oracle_dynamic_result()
    # Diverged yet green: the rules are blind to the failure.
    flags = health_flags(
        report(clean, Divergence("value", "interp", "dynamic", "1 vs 2")),
        faults_configured=False)
    assert flags and "diverged yet health is green" in flags[0]
    # Only the legs a divergence names are flagged, not the green legs
    # that agreed.
    flags = health_flags(
        report(clean, Divergence("value", "interp", "dynamic+tiered",
                                 "1 vs 2"),
               legs=("static", "dynamic", "dynamic+pycode",
                     "dynamic+regactions", "dynamic+tiered")),
        faults_configured=False)
    assert flags == ["dynamic+tiered leg diverged yet health is green "
                     "(rules are blind to this failure)"]
    # Agreed with no faults configured, yet rules fired: silent
    # degradation.
    flags = health_flags(report(degraded), faults_configured=False)
    assert flags and "silent degradation" in flags[0]
    # Same degradation under a configured fault plan is expected.
    assert health_flags(report(degraded), faults_configured=True) == []
    # Clean and agreeing: nothing to flag.
    assert health_flags(report(clean), faults_configured=False) == []


# -- the flight recorder ---------------------------------------------------

def _seed_trajectory(tmp_path, values):
    path = tmp_path / "BENCH_tiering.json"
    entries = [history.make_entry(
        {"n=1": {"tiered_cycles": value, "eager_cycles": value,
                 "tiered_stitches": 4}}) for value in values]
    path.write_text(json.dumps({"schema": 1, "trajectory": entries},
                               indent=2) + "\n")
    return path


def test_compare_gates_synthetic_regression(tmp_path):
    _seed_trajectory(tmp_path, [100, 102, 115])  # candidate: 115 (+15%)
    failed = history.compare("tiering", directory=tmp_path)
    assert not failed.ok
    assert [d.metric for d in failed.regressions] \
        == ["tiered_cycles", "eager_cycles"]
    assert failed.regressions[0].delta_pct == pytest.approx(15.0)
    passed = history.compare("tiering", directory=tmp_path,
                             max_regression=20.0)
    assert passed.ok


def test_compare_uses_best_of_window(tmp_path):
    # Best of the last 5 is 100 even though the immediately previous
    # entry was worse; +8% vs best passes a 10% gate.
    _seed_trajectory(tmp_path, [100, 112, 108])
    comparison = history.compare("tiering", directory=tmp_path)
    assert comparison.ok
    assert comparison.deltas[0].best == 100
    # A window of 1 only sees the 112 entry: 108 is an improvement.
    narrow = history.compare("tiering", directory=tmp_path, window=1)
    assert narrow.ok and narrow.deltas[0].best == 112


def test_compare_host_metrics_gated_only_on_request(tmp_path):
    path = tmp_path / "BENCH_hostperf.json"
    entries = [history.make_entry({"calculator": {"steady_run_s": s,
                                                  "simulated_cycles": 50}})
               for s in (0.010, 0.015)]
    path.write_text(json.dumps({"schema": 1, "trajectory": entries}) + "\n")
    lenient = history.compare("hostperf", directory=tmp_path)
    assert lenient.ok  # +50% on seconds, but host metrics ride along
    host_delta = next(d for d in lenient.deltas
                      if d.metric == "steady_run_s")
    assert not host_delta.gated
    strict = history.compare("hostperf", directory=tmp_path,
                             include_host=True)
    assert not strict.ok


def test_hostperf_rows_check_what_they_time(monkeypatch):
    """The one hostperf measurement (recorder and gate script alike)
    yields an rvm row and an ``@pycode`` row per workload with the four
    trajectory metrics, counts steady reruns only after pycode's compile
    transient, and refuses to time a wrong result."""
    from repro.backends.pycode import PycodeBackend
    from repro.bench.workloads import calculator_workload
    from repro.runtime.engine import Program

    def workload(expected=None):
        built = calculator_workload(xs=3, ys=3)
        if expected is not None:
            built.expected = expected
        return built

    monkeypatch.setattr(history, "hostperf_workloads",
                        lambda quick: [("calc", workload)])
    runs = []
    run = Program.run

    def counted_run(self, *args, **kwargs):
        runs.append(self)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(Program, "run", counted_run)
    rows = history.hostperf_rows(steady_runs=1)
    # Per backend: the first run, COMPILE_AFTER reruns in pycode's
    # compile transient and the one steady rerun.
    assert len(runs) == 2 * (1 + PycodeBackend.COMPILE_AFTER + 1)
    assert sorted(rows) == ["calc", "calc@pycode"]
    for row in rows.values():
        assert sorted(row) == ["compile_s", "first_run_s",
                               "simulated_cycles", "steady_run_s"]
    assert rows["calc"]["simulated_cycles"] \
        == rows["calc@pycode"]["simulated_cycles"]
    monkeypatch.setattr(history, "hostperf_workloads",
                        lambda quick: [("calc", lambda: workload(-1))])
    with pytest.raises(AssertionError, match="!= expected -1"):
        history.hostperf_rows(steady_runs=1)


def test_append_entry_preserves_sibling_keys(tmp_path):
    path = tmp_path / "BENCH_hostperf.json"
    path.write_text(json.dumps({"schema": 1, "baseline": {"k": 1}}) + "\n")
    history.append_entry(path, history.make_entry({"r": {"m": 2}}))
    document = json.loads(path.read_text())
    assert document["baseline"] == {"k": 1}
    assert len(document["trajectory"]) == 1


def test_unknown_benchmark_raises(tmp_path):
    with pytest.raises(history.HistoryError):
        history.compare("nope", directory=tmp_path)
    with pytest.raises(history.HistoryError):
        history.compare("tiering", directory=tmp_path)  # empty trajectory
