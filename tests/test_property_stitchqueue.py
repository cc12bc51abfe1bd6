"""Property-based tests for the async stitch queue.

The two invariants the whole robustness story rests on, checked under
adversarial combinations of queue config x faults x tiering x bounded
cache, on **both** execution backends:

* **Five-way entry partition** -- every region entry is served by
  exactly one of {cache hit, inline stitch, fallback, cold, queued},
  and **cycle conservation** -- every simulated cycle has exactly one
  owner -- hold whatever the scheduler, the fault injector, and the
  eviction policy conspire to do.
* **Job conservation** -- every admitted job ends in exactly one of
  {landed, expired, cancelled, still pending}, latencies are recorded
  once per landing and never negative, and injected ``queue.drop`` /
  ``stitch.hang`` faults are accounted one-for-one.

Results must stay bit-identical to the synchronous fault-free run of
the same key sequence: the queue may only change *when* stitches
happen, never what the program computes.

The key sequence is packed into one integer argument (2 bits per key)
so two compiled programs (one per backend) serve every example.
"""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro import compile_program

SOURCE = """
int region(int k, int v) {
    int t = v;
    dynamicRegion key(k) (k) {
        int r = t * 3 + k * 5;
        return r;
    }
}

int main(int packed, int n) {
    int t = 0;
    int i;
    int p = packed;
    for (i = 0; i < n; i++) {
        t = t + region(p % 4, i);
        p = p / 4;
    }
    return t;
}
"""

PROGRAMS = {
    "rvm": compile_program(SOURCE, mode="dynamic"),
    "pycode": compile_program(SOURCE, mode="dynamic", backend="pycode"),
}

BACKENDS = st.sampled_from(sorted(PROGRAMS))

STITCH_SPECS = st.sampled_from([
    "async",
    "async:drain=1",
    # depth=1 without a fast drain: a hotter miss evicts a colder
    # pending job before any tick marks it ready.
    "async:depth=1",
    "async:drain=2,depth=1",
    "async:drain=2,depth=2,batch=2",
    "async:drain=4,deadline=500",
    "async:drain=2,retries=1,backoff=1,jitter=2,seed=5",
])

FAULT_SPECS = st.sampled_from([
    None,
    "queue.drop:0.5@3",
    "stitch.hang:0.5@5",
    "stitch.table:0.5@7",
    "all:0.15@11",
])

TIER_SPECS = st.sampled_from([None, "threshold:2", "breakeven:8"])

CACHE_SPECS = st.sampled_from([None, "lru:2", "cost-aware:1"])

KEY_SEQUENCES = st.lists(st.integers(min_value=0, max_value=3),
                         min_size=1, max_size=12)

#: Sites that degrade service without raising into the fallback path.
NON_RAISING = {"cache.checksum", "tier.flip", "queue.drop",
               "stitch.hang"}


def pack(keys):
    packed = 0
    for key in reversed(keys):
        packed = packed * 4 + key
    return packed


def run(backend, keys, **kwargs):
    return PROGRAMS[backend].run("main", [pack(keys), len(keys)],
                                 **kwargs)


@settings(max_examples=60, deadline=None)
@given(KEY_SEQUENCES, BACKENDS, STITCH_SPECS, FAULT_SPECS,
       TIER_SPECS, CACHE_SPECS)
# Shed victims: a full queue evicts an admitted colder job to admit a
# hotter one; the victim must land in a conservation bucket.
@example(keys=[0, 1, 1], backend="rvm", stitch="async:depth=1",
         faults=None, tier=None, cache=None)
@example(keys=[1, 0, 1, 0], backend="pycode",
         stitch="async:drain=2,depth=1", faults="stitch.table:0.5@7",
         tier=None, cache=None)
def test_partition_and_conservation_under_chaos(keys, backend, stitch,
                                                faults, tier, cache):
    """The five-way partition, cycle conservation, and queue-job
    conservation all hold under combined queueing + faults + tiering +
    bounded cache -- and the observable result never changes."""
    reference = run(backend, keys)
    result = run(backend, keys, stitch=stitch, tier=tier, cache=cache,
                 faults=faults)
    assert result.value == reference.value

    # Cycle conservation: every cycle has exactly one owner.
    assert sum(result.cycles_by_owner.values()) == result.cycles

    # Five-way entry partition.
    entries = sum(result.region_entries.values())
    assert entries == (result.cache_stats.hits
                       + len(result.stitch_reports)
                       + len(result.fallbacks)
                       + len(result.cold_entries)
                       + len(result.queued_entries))

    # Queue-job conservation and fault accounting.
    qs = result.queue_stats
    assert qs is not None
    assert qs.enqueued == (qs.landed + qs.expired + qs.total_cancelled
                           + qs.pending)
    assert len(qs.land_latencies) == qs.landed
    assert all(lat >= 0 for lat in qs.land_latencies)
    assert qs.dropped <= qs.shed
    assert qs.dropped == result.fault_counts.get("queue.drop", 0)
    assert qs.hung == result.fault_counts.get("stitch.hang", 0)

    # Raising faults all degraded into recorded fallback entries.
    raised = sum(count for site, count in result.fault_counts.items()
                 if site not in NON_RAISING)
    injected_fallbacks = sum(1 for event in result.fallbacks
                             if event.reason == "fault")
    assert injected_fallbacks == raised


@settings(max_examples=25, deadline=None)
@given(KEY_SEQUENCES, BACKENDS, STITCH_SPECS)
def test_async_schedule_is_bit_deterministic(keys, backend, stitch):
    """Two async runs of one key sequence agree on everything --
    cycles, queue events, latencies -- not just the value."""
    first = run(backend, keys, stitch=stitch)
    second = run(backend, keys, stitch=stitch)
    assert first.value == second.value
    assert first.cycles == second.cycles
    assert first.queued_entries == second.queued_entries
    assert first.queue_stats.land_latencies \
        == second.queue_stats.land_latencies
    assert first.queue_stats.cancelled == second.queue_stats.cancelled
