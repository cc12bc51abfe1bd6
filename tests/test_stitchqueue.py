"""The deterministic async stitching queue.

Covers the job lifecycle end to end: spec parse/describe round-trips,
the five-way entry partition and queue-conservation invariants,
priority shedding, retry with seeded jittered backoff, the watchdog +
breaker ladder under ``stitch.hang``, ``queue.drop`` accounting,
the cache bound under async stitching, and the guard-rail helpers the
queue shares with the breaker (:func:`seeded_jitter`, the cooldown
cap).  Sync mode must stay bit-identical to the historical engine --
that is what keeps every committed golden valid.
"""

from __future__ import annotations

import pytest

from repro import compile_program, seeded_jitter
from repro.bench.stitchqueue import check_hang, hang_gate
from repro.faults import FAULT_SITES, FaultPlan
from repro.runtime.guards import BreakerConfig, RegionBreaker
from repro.runtime.stitchqueue import StitchQueueConfig

KEYED = """
int region(int k, int v) {
    int t = v;
    dynamicRegion key(k) (k) {
        int r = t * 3 + k * 5;
        return r;
    }
}

int main(int n) {
    int t = 0;
    int i;
    for (i = 0; i < n; i++) t = t + region(i % 4, i);
    return t;
}
"""


def queue_conserves(qs) -> bool:
    return qs.enqueued == (qs.landed + qs.expired + qs.total_cancelled
                           + qs.pending)


# -- the spec string ---------------------------------------------------------

def test_config_parse_and_describe_round_trip():
    assert not StitchQueueConfig.parse(None).asynchronous
    assert not StitchQueueConfig.parse("").asynchronous
    assert not StitchQueueConfig.parse("sync").asynchronous
    assert not StitchQueueConfig.parse("off").asynchronous
    assert StitchQueueConfig.parse("async").asynchronous
    for spec in ("sync", "async", "async:depth=2",
                 "async:depth=4,drain=2,cycles=5000,batch=2,"
                 "deadline=1000,retries=1,backoff=2,jitter=3,seed=7"):
        config = StitchQueueConfig.parse(spec)
        assert StitchQueueConfig.parse(config.describe()) == config
    config = StitchQueueConfig.parse("async:drain=2,depth=2")
    assert config.depth == 2 and config.drain_entries == 2
    # Defaults are omitted from the description.
    assert StitchQueueConfig.parse("async").describe() == "async"
    # A config object parses to itself (the Program.run fast path).
    assert StitchQueueConfig.parse(config) is config


@pytest.mark.parametrize("bad", ["bogus", "async:depth", "async:depth=x",
                                 "async:wat=3", "async:depth=0"])
def test_config_rejects_bad_specs(bad):
    with pytest.raises(ValueError):
        StitchQueueConfig.parse(bad)


# -- sync bit-identity -------------------------------------------------------

def test_sync_mode_is_the_historical_engine():
    program = compile_program(KEYED, mode="dynamic")
    default = program.run("main", [12])
    explicit = program.run("main", [12], stitch="sync")
    assert default.value == explicit.value
    assert default.cycles == explicit.cycles
    assert explicit.queue_stats is None
    assert explicit.queued_entries == []


# -- the async lifecycle -----------------------------------------------------

def test_async_landing_preserves_results_and_partition():
    program = compile_program(KEYED, mode="dynamic")
    sync = program.run("main", [16])
    run = program.run("main", [16], stitch="async:drain=2")
    assert run.value == sync.value
    qs = run.queue_stats
    assert qs is not None and qs.landed > 0 and queue_conserves(qs)
    assert len(qs.land_latencies) == qs.landed
    assert all(lat >= 0 for lat in qs.land_latencies)
    # Five-way entry partition: hit/stitch/fallback/cold/queued.
    entries = sum(run.region_entries.values())
    assert entries == (run.cache_stats.hits + len(run.stitch_reports)
                       + len(run.fallbacks) + len(run.cold_entries)
                       + len(run.queued_entries))
    # Cycle conservation includes the queue's bookkeeping owners.
    assert sum(run.cycles_by_owner.values()) == run.cycles
    assert run.cycles_by_owner.get("stitchq:sched", 0) > 0
    assert run.cycles_by_owner.get("stitchq:region:1", 0) > 0


def test_async_runs_are_bit_deterministic():
    program = compile_program(KEYED, mode="dynamic")
    first = program.run("main", [16], stitch="async:drain=2,depth=2")
    second = program.run("main", [16], stitch="async:drain=2,depth=2")
    assert first.value == second.value
    assert first.cycles == second.cycles
    assert first.queued_entries == second.queued_entries
    assert first.queue_stats.land_latencies \
        == second.queue_stats.land_latencies


def test_admission_control_sheds_at_depth():
    program = compile_program(KEYED, mode="dynamic")
    sync = program.run("main", [16])
    # depth=1 with four live keys: the queue must shed, yet results
    # and conservation hold.
    run = program.run("main", [16], stitch="async:depth=1,drain=2")
    qs = run.queue_stats
    assert run.value == sync.value
    assert qs.shed > 0 and qs.max_depth <= 1 and queue_conserves(qs)
    phases = {entry.reason for entry in run.queued_entries}
    assert "shed" in phases
    # Keys 0-2 fill the queue and key 3 is refused; at its next entry
    # key 3 is hotter than the waiting jobs, so the coldest pending
    # job is evicted to admit it.  The victim was admitted, so it is
    # cancelled as "shed"; ``shed`` counts only the refused admission.
    run = program.run("main", [8], stitch="async:depth=3,drain=8")
    qs = run.queue_stats
    assert run.value == program.run("main", [8]).value
    assert qs.cancelled == {"shed": 1} and queue_conserves(qs)
    reasons = [entry.reason for entry in run.queued_entries]
    assert qs.shed == reasons.count("shed") == 1


def test_failed_landing_retries_with_backoff_then_lands():
    program = compile_program(KEYED, mode="dynamic")
    sync = program.run("main", [16])
    run = program.run(
        "main", [16], stitch="async:drain=2,retries=2,backoff=2",
        faults=FaultPlan({"stitch.table": 1.0}, limit=1))
    qs = run.queue_stats
    assert run.value == sync.value
    assert qs.retries == 1 and queue_conserves(qs)
    # The failed landing degraded that entry to fallback (reason
    # "fault"), then the retry landed the stitch.
    assert any(event.reason == "fault" for event in run.fallbacks)
    assert qs.landed > 0


def test_retries_exhausted_cancels_job_as_failed():
    program = compile_program(KEYED, mode="dynamic")
    sync = program.run("main", [16])
    run = program.run(
        "main", [16], stitch="async:drain=2,retries=1,backoff=1",
        faults=FaultPlan({"stitch.table": 1.0}))
    qs = run.queue_stats
    assert run.value == sync.value
    assert qs.cancelled.get("failed", 0) > 0 or \
        qs.cancelled.get("breaker", 0) > 0
    assert qs.landed == 0 and queue_conserves(qs)


def test_queue_drop_fault_accounting():
    program = compile_program(KEYED, mode="dynamic")
    sync = program.run("main", [16])
    run = program.run("main", [16], stitch="async:drain=2",
                      faults=FaultPlan({"queue.drop": 1.0}))
    qs = run.queue_stats
    assert run.value == sync.value
    assert qs.dropped == run.fault_counts["queue.drop"] > 0
    assert qs.dropped <= qs.shed
    assert qs.enqueued == 0 and queue_conserves(qs)


def test_watchdog_and_breaker_degrade_hung_region():
    """The bench hang gate doubles as the unit-level contract: a
    region whose stitches all hang must expire on deadline, trip its
    breaker, and never block the sibling region or the run."""
    assert check_hang(hang_gate()) == []


def test_queue_under_bounded_cache_keeps_the_bound():
    """Queued jobs pin nothing: a job exists only for a key whose
    lookup missed, so the bounded cache evicts under async stitching
    exactly as it does inline, and ends within its bound."""
    from repro.bench.cachepressure import (
        DEFAULT_SEED, compile_pressure_program,
    )

    program = compile_pressure_program()
    args = [120, 8, DEFAULT_SEED]
    baseline = program.run("main", list(args))
    run = program.run("main", list(args), cache="lru:2",
                      stitch="async:drain=2")
    assert run.value == baseline.value
    assert run.cache_stats.evictions > 0
    assert run.cache_stats.live_entries <= 2
    qs = run.queue_stats
    assert queue_conserves(qs)
    entries = sum(run.region_entries.values())
    assert entries == (run.cache_stats.hits + len(run.stitch_reports)
                       + len(run.fallbacks) + len(run.cold_entries)
                       + len(run.queued_entries))


def test_async_composes_with_tiering():
    program = compile_program(KEYED, mode="dynamic")
    sync = program.run("main", [24])
    run = program.run("main", [24], tier="threshold:2",
                      stitch="async:drain=2")
    assert run.value == sync.value
    qs = run.queue_stats
    assert queue_conserves(qs)
    entries = sum(run.region_entries.values())
    assert entries == (run.cache_stats.hits + len(run.stitch_reports)
                       + len(run.fallbacks) + len(run.cold_entries)
                       + len(run.queued_entries))


# -- shared guard-rail helpers ----------------------------------------------

def test_seeded_jitter_is_deterministic_and_bounded():
    token = ("region", 1, (3,), 2)
    assert seeded_jitter(7, token, 5) == seeded_jitter(7, token, 5)
    assert 0 <= seeded_jitter(7, token, 5) <= 5
    assert seeded_jitter(7, token, 0) == 0
    assert seeded_jitter(7, token, -1) == 0
    # Different seeds or tokens decorrelate (not a hard guarantee per
    # pair, but across a small sweep at least one must differ).
    assert any(seeded_jitter(s, token, 100)
               != seeded_jitter(s + 1, token, 100) for s in range(8))


def test_breaker_cooldown_caps_at_max():
    breaker = RegionBreaker(
        BreakerConfig(threshold=1, backoff=4, max_cooldown=16),
        "f", 1)
    cooldowns = []
    for _ in range(5):
        breaker.on_failure()  # trips immediately (threshold=1)
        cooldowns.append(breaker.cooldown)
        while not breaker.should_attempt():
            breaker.on_entry_while_open()
    # Exponential up to the cap, then pinned exactly at the boundary.
    assert cooldowns == [4, 8, 16, 16, 16]


def test_breaker_jitter_is_seeded_and_additive():
    config = BreakerConfig(threshold=1, backoff=4, max_cooldown=16,
                           jitter=3, jitter_seed=9)
    first = RegionBreaker(config, "f", 1)
    second = RegionBreaker(config, "f", 1)
    first.on_failure()
    second.on_failure()
    assert first.cooldown == second.cooldown  # same seed: identical
    assert 4 <= first.cooldown <= 4 + 3      # base + bounded jitter
    other = RegionBreaker(BreakerConfig(threshold=1, backoff=4,
                                        max_cooldown=16, jitter=3,
                                        jitter_seed=10), "f", 1)
    other.on_failure()
    # The default config keeps the historical exact doubling.
    plain = RegionBreaker(BreakerConfig(threshold=1, backoff=4), "f", 1)
    plain.on_failure()
    assert plain.cooldown == 4


# -- the fault-plan spec surface ---------------------------------------------

def test_fault_plan_describe_round_trips():
    for spec in ("stitch.table:0.2", "stitch.hole:1.0,arena.code:0.5@7",
                 "queue.drop:0.25,stitch.hang:0.5@3",
                 "stitch.table:0.2,queue.drop[region.1]:0.5@7",
                 "stitch.hang[rega]:1.0"):
        plan = FaultPlan.parse(spec)
        described = plan.describe()
        replay = FaultPlan.parse(described)
        assert replay.describe() == described
        assert replay.probabilities == plan.probabilities
        assert replay.seed == plan.seed


def test_fault_plan_all_covers_every_site():
    plan = FaultPlan.parse("all:0.1@5")
    assert set(plan.probabilities) == set(FAULT_SITES)
    assert {"queue.drop", "stitch.hang", "tier.flip"} <= set(FAULT_SITES)
    described = plan.describe()
    assert FaultPlan.parse(described).probabilities == plan.probabilities


def test_fault_plan_scopes_gate_without_consuming_randomness():
    plan = FaultPlan.parse("stitch.hang[f.1]:1.0")
    # Scope mismatch: never fires, and consumes no randomness (the
    # matching region still fires deterministically afterwards).
    assert not plan.should_fire("stitch.hang", region=("g", 1))
    assert not plan.should_fire("stitch.hang", region=("f", 2))
    assert plan.should_fire("stitch.hang", region=("f", 1))
    with pytest.raises(ValueError):
        FaultPlan.parse("all[f.1]:0.5")
