"""One run log: every statistic, metric and instant is a view of it.

A run logs each region entry once (``RunResult.entries``) and each
runtime event once (``RunResult.events``).  The run's statistics count
those records, and its metrics come from the one table in
``repro.obs.sink`` -- live while metrics are enabled, or replayed over
the finished result by ``repro.obs.health.values_from_result``.  These
tests pin that every one of those readings agrees with a count over
the records, and that the table's names are the documented ones.
"""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path

import pytest

from repro import compile_program
from repro.bench.cachepressure import SOURCE as PRESSURE
from repro.obs import metrics
from repro.obs.health import flatten_snapshot, values_from_result
from repro.obs.sink import ENTRIES, EVENTS, OWNER, RUN, replay

OBSERVABILITY = Path(__file__).resolve().parent.parent / "docs" \
    / "OBSERVABILITY.md"

#: a non-key slot (``c``) that changes under an evicted key: the
#: re-stitch invalidates the region.
CHANGED_SLOT = """
int region(int k, int c, int v) {
    int t = v;
    dynamicRegion key(k) (k, c) {
        int r = t + k * 7 + c;
        return r;
    }
}

int main(int n) {
    int t = 0;
    int i;
    for (i = 0; i < n; i++) t = t + region(i % 2, i / 5, i);
    return t;
}
"""

CASES = {
    "faults+tier+async": (PRESSURE, [120, 8, 7],
                          "cache=lru:2 tier=breakeven:64,spec=1 "
                          "stitch=async:drain=2 faults=all:0.05@7"),
    "evict+revive+compact": (PRESSURE, [120, 8, 7],
                             "cache=lru:2 tier=threshold:2,spec=1 "
                             "stitch=async:drain=2,depth=2"),
    "breaker": (PRESSURE, [120, 8, 7], "cache=lru:2 faults=all:0.1@3"),
    "hang+deadline": (PRESSURE, [120, 8, 7],
                      "cache=lru:2 stitch=async:drain=2,deadline=3000 "
                      "faults=stitch.hang:0.5@1"),
    "invalidate": (CHANGED_SLOT, [30], "cache=lru:1"),
}


def observed_run(name):
    """(result, live registry snapshot) of one case, with metrics
    enabled for the run alone."""
    source, args, config = CASES[name]
    program = compile_program(source, config=config)
    metrics.registry.clear()
    metrics.registry.enable()
    try:
        result = program.run("main", list(args))
    finally:
        metrics.registry.disable()
    snapshot = metrics.registry.snapshot()
    metrics.registry.clear()
    return result, snapshot


@pytest.mark.parametrize("name", sorted(CASES))
def test_replayed_metrics_equal_the_live_registry(name):
    result, live = observed_run(name)
    assert values_from_result(result) == flatten_snapshot(live)
    # Labeled series and histogram buckets included.
    assert replay(result).snapshot() == live


@pytest.mark.parametrize("name", sorted(CASES))
def test_stats_are_counts_over_the_log(name):
    result, _ = observed_run(name)
    events, entries = result.events, result.entries
    kinds = Counter(event.kind for event in events)
    by_region = Counter((event.kind, event.region) for event in events)

    stats = result.cache_stats
    hits = sum(entry.kind == "hit" for entry in entries)
    assert (stats.hits, stats.misses) == (hits, len(entries) - hits)
    for field, kind in (("evictions", "cache.evict"),
                        ("compactions", "cache.compact"),
                        ("invalidations", "cache.invalidate"),
                        ("restitches", "cache.restitch"),
                        ("revivals", "cache.revive"),
                        ("checksum_failures", "cache.checksum_fail")):
        assert getattr(stats, field) == kinds[kind], field

    for region, tier in result.tier_stats.items():
        assert tier["promotions"] == by_region["tier.promote", region]
        assert tier["speculative_promotions"] == sum(
            1 for event in events if event.kind == "tier.promote"
            and event.region == region and event.args["speculative"])
        assert tier["demotions"] == by_region["tier.demote", region]
        assert tier["decision_flips"] == by_region["tier.flip", region]

    breakers = {event.region for event in events
                if event.kind.startswith("breaker.")}
    assert breakers <= set(result.breaker_stats)
    for region, breaker in result.breaker_stats.items():
        assert breaker["trips"] == by_region["breaker.trip", region]
        assert breaker["resets"] == by_region["breaker.reset", region]

    assert result.fault_counts == dict(Counter(
        event.args["site"] for event in events
        if event.kind == "fault.inject"))

    queue = result.queue_stats
    if queue is None:
        assert not any(kind.startswith("stitch.") for kind in kinds)
        return
    assert queue.enqueued == kinds["stitch.enqueue"]
    assert queue.landed == kinds["stitch.land"]
    assert queue.expired == kinds["stitch.deadline"]
    assert queue.total_cancelled == kinds["stitch.cancel"]
    assert queue.cancelled == dict(Counter(
        event.args["reason"] for event in events
        if event.kind == "stitch.cancel"))
    assert queue.shed == kinds["stitch.shed"]
    assert queue.dropped == sum(1 for event in events
                                if event.kind == "stitch.shed"
                                and event.args["injected"])
    assert queue.retries == kinds["stitch.retry"]
    assert queue.hung == kinds["stitch.hang"]
    assert queue.drains == kinds["stitch.drain"]
    assert queue.land_latencies == [event.args["latency"]
                                    for event in events
                                    if event.kind == "stitch.land"]
    assert queue.enqueued == (queue.landed + queue.expired
                              + queue.total_cancelled + queue.pending)


def test_cases_cover_every_event_kind():
    seen = set()
    for name in CASES:
        result, _ = observed_run(name)
        seen.update(event.kind for event in result.events)
        seen.update(entry.kind for entry in result.entries)
    assert seen == set(EVENTS) | set(ENTRIES)


def test_events_are_stamped_with_entry_index_and_cycle():
    result, _ = observed_run("evict+revive+compact")
    stamps = [(event.entry, event.cycle) for event in result.events]
    assert stamps == sorted(stamps)
    assert all(0 <= index < len(result.entries) for index, _ in stamps)
    assert stamps[-1][1] <= result.cycles


def table_names():
    rows = [updates for updates, _ in ENTRIES.values()]
    rows += list(EVENTS.values()) + [RUN, OWNER]
    instants = {name for _, row in ENTRIES.values() for name, _, _ in row}
    return {"event and instant": set(EVENTS), "instant": instants,
            "metric": {update.metric for row in rows for update in row}}


def test_observability_doc_lists_every_table_name():
    documented = set(re.findall(r"`([^`\s]+)`", OBSERVABILITY.read_text()))
    for what, names in table_names().items():
        missing = sorted(names - documented)
        assert not missing, "%s names missing from %s: %s" % (
            what, OBSERVABILITY.name, missing)


def test_each_fact_has_one_metric():
    """Two metric names fed by the same records with the same value
    field, labels and condition would always hold equal values."""
    rows = [("entry", kind, updates)
            for kind, (updates, _) in ENTRIES.items()]
    rows += [("event", kind, updates) for kind, updates in EVENTS.items()]
    feeds = {}
    for table, kind, updates in rows:
        for update in updates:
            feeds.setdefault(update.metric, set()).add(
                (table, kind, update.type, update.labels, update.value,
                 update.when))
    names = {}
    for name, feed in feeds.items():
        names.setdefault(frozenset(feed), []).append(name)
    assert sorted(sorted(same) for same in names.values()
                  if len(same) > 1) == []
