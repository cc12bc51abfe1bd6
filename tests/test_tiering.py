"""Adaptive-tiering tests: the TierPolicy spec language, the eager
bit-identity guarantee, exact threshold promotion boundaries, the
breakeven economics, speculative key-versioning bounds, the
breaker/tiering precedence, the ``tier.flip`` chaos site, and the
hotness-weighted eviction hook.

The central claims under test:

* ``eager`` (the default) never constructs a controller -- every
  observable is bit-identical to the pre-tiering engine;
* adaptive runs change *when* regions stitch, never *what* they
  compute: values always match the static build;
* every region entry is accounted for:
  ``entries == cache hits + stitches + fallbacks + cold entries``.
"""

import pytest

from repro import BreakerConfig, FaultPlan, compile_program
from repro.bench.cachepressure import compile_pressure_program
from repro.codecache.policy import CostAwarePolicy
from repro.runtime.tiering import (
    TIER_COUNTER_CYCLES, TIER_DECIDE_CYCLES, TierPolicy,
)
from repro.testing.oracle import run_oracle

#: n entries round-robin over m keys: every key sees the same count,
#: which makes threshold boundaries exact.
ROUND_ROBIN = """
int region(int k, int v) {
    int t = v;
    dynamicRegion key(k) (k) {
        int r = t * 3 + k * 5;
        return r;
    }
}

int main(int n, int m) {
    int t = 0;
    int i;
    for (i = 0; i < n; i++) {
        t = t + region(i % m, i);
    }
    return t;
}
"""


def round_robin_value(n, m):
    return sum(i * 3 + (i % m) * 5 for i in range(n))


#: One hot key (0) entered ``hot`` times, then ``tail`` keys entered
#: once each -- the reuse profile breakeven exists to exploit.  The
#: unrolled loop makes cold (fallback-tier) entries genuinely cost
#: more than stitched ones.
SKEWED = """
int region(int k, int v) {
    int t = v;
    dynamicRegion key(k) (k) {
        int i;
        unrolled for (i = 0; i < k + 2; i++) t += i * k + 1;
        return t;
    }
}

int main(int hot, int tail) {
    int t = 0;
    int i;
    for (i = 0; i < hot; i++) t = t + region(0, i);
    for (i = 0; i < tail; i++) t = t + region(i + 1, i);
    return t;
}
"""

#: Keys 1..3 seen once, then key 0 three times (promotes at its 3rd
#: entry under threshold:3), then keys 1..3 again: their second entries
#: land *under* the threshold, so only a speculative mark can stitch
#: them.
SPECULATE = """
int region(int k, int v) {
    int t = v;
    dynamicRegion key(k) (k) {
        int r = t * 3 + k * 5;
        return r;
    }
}

int main() {
    int t = 0;
    int i;
    for (i = 0; i < 3; i++) t = t + region(i + 1, i);
    for (i = 0; i < 3; i++) t = t + region(0, i);
    for (i = 0; i < 3; i++) t = t + region(i + 1, i + 10);
    return t;
}
"""


def static_value(source, args=None):
    return compile_program(source, mode="static").run("main", args).value


# -- the spec language --------------------------------------------------------

def test_parse_defaults_and_round_trips():
    assert TierPolicy.parse(None) == TierPolicy()
    assert TierPolicy.parse("") == TierPolicy()
    assert TierPolicy.parse("eager") == TierPolicy()
    assert not TierPolicy().adaptive
    policy = TierPolicy(mode="threshold", threshold=3)
    assert TierPolicy.parse(policy) is policy  # instance passthrough
    for spec, expected in [
        ("threshold:3", TierPolicy(mode="threshold", threshold=3)),
        ("breakeven", TierPolicy(mode="breakeven")),
        ("breakeven:64", TierPolicy(mode="breakeven", horizon=64)),
        ("threshold:4,spec=2,versions=3",
         TierPolicy(mode="threshold", threshold=4, speculate=2,
                    max_versions=3)),
        ("threshold:4,versions=3",
         TierPolicy(mode="threshold", threshold=4, max_versions=3)),
        ("breakeven:32,speedup=1.5",
         TierPolicy(mode="breakeven", horizon=32, assumed_speedup=1.5)),
    ]:
        parsed = TierPolicy.parse(spec)
        assert parsed == expected, spec
        assert parsed.adaptive
        # describe() round-trips through parse().
        assert TierPolicy.parse(parsed.describe()) == parsed, spec
    assert TierPolicy().describe() == "eager"
    assert TierPolicy.parse("threshold:2,spec=1").describe() \
        == "threshold:2,spec=1,versions=4"


@pytest.mark.parametrize("spec", [
    "sometimes",            # unknown mode
    "threshold:two",        # non-integer argument
    "eager:3",              # eager takes no argument
    "threshold:2,nope=1",   # unknown option
    "threshold:2,spec",     # option without a value
    "breakeven:8,speedup=fast",  # non-float option value
])
def test_parse_rejects_bad_specs(spec):
    with pytest.raises(ValueError):
        TierPolicy.parse(spec)


def test_policy_field_validation():
    with pytest.raises(ValueError):
        TierPolicy(mode="threshold", threshold=0)
    with pytest.raises(ValueError):
        TierPolicy(mode="breakeven", horizon=0)
    with pytest.raises(ValueError):
        TierPolicy(mode="breakeven", assumed_speedup=1.0)
    with pytest.raises(ValueError):
        TierPolicy(mode="threshold", speculate=-1)


def test_with_mode():
    policy = TierPolicy.parse("threshold:3,spec=1")
    eager = policy.with_mode("eager")
    assert not eager.adaptive
    assert eager.threshold == 3 and eager.speculate == 1


# -- eager: the bit-identity guarantee ----------------------------------------

def test_eager_tier_is_bit_identical():
    """``tier="eager"`` must not merely compute the same value -- every
    simulated observable must match a run that never heard of tiering,
    and no tiering state may appear in the result."""
    program = compile_program(ROUND_ROBIN, mode="dynamic")
    baseline = program.run("main", [10, 2])
    eager = program.run("main", [10, 2], tier="eager")
    assert eager.value == baseline.value
    assert eager.cycles == baseline.cycles
    assert eager.cycles_by_owner == baseline.cycles_by_owner
    assert eager.instrs_by_owner == baseline.instrs_by_owner
    assert eager.op_counts == baseline.op_counts
    assert eager.tier_stats == {} and eager.cold_entries == []
    assert not any(owner.startswith("tier:")
                   for owner in eager.cycles_by_owner)


def test_eager_never_consults_tier_flip():
    """The ``tier.flip`` site is only consulted by adaptive decisions;
    an eager run under a 100% flip plan must be bit-identical to a
    fault-free run (no draws consumed, nothing injected)."""
    program = compile_program(ROUND_ROBIN, mode="dynamic")
    baseline = program.run("main", [10, 2])
    flipped = program.run("main", [10, 2],
                          faults=FaultPlan({"tier.flip": 1.0}))
    assert flipped.value == baseline.value
    assert flipped.cycles == baseline.cycles
    assert flipped.cycles_by_owner == baseline.cycles_by_owner
    assert flipped.fault_counts == {}


# -- threshold mode -----------------------------------------------------------

def test_threshold_promotes_at_exact_boundary():
    """threshold:3, two keys, five entries each: entries 1-2 of every
    key run cold, entry 3 stitches, entries 4-5 hit the cache."""
    program = compile_program(ROUND_ROBIN, mode="dynamic")
    result = program.run("main", [10, 2], tier="threshold:3")
    assert result.value == round_robin_value(10, 2)
    assert len(result.stitch_reports) == 2
    assert sorted(r.key for r in result.stitch_reports) == [(0,), (1,)]
    # Cold entries carry the key's 1-based count at the time it ran
    # cold: exactly counts 1 and 2, for each key.
    colds = sorted((c.key, c.count) for c in result.cold_entries)
    assert colds == [((0,), 1), ((0,), 2), ((1,), 1), ((1,), 2)]
    assert result.cache_stats.hits == 4
    stats = result.tier_stats[("region", 1)]
    assert stats["mode"] == "threshold:3"
    assert stats["keys"] == 2 and stats["keys_promoted"] == 2
    assert stats["promotions"] == 2
    assert stats["demotions"] == 0 and stats["decision_flips"] == 0
    assert stats["counters"] == {"[0]": 5, "[1]": 5}
    # Every entry accounted for.
    assert sum(result.region_entries.values()) \
        == result.cache_stats.hits + len(result.stitch_reports) \
        + len(result.fallbacks) + len(result.cold_entries)


def test_threshold_one_stitches_every_first_entry():
    """threshold:1 promotes on first entry -- no cold entries, the
    same stitch schedule as eager, but the adaptive bookkeeping is
    visibly charged to the ``tier:`` owner."""
    program = compile_program(ROUND_ROBIN, mode="dynamic")
    eager = program.run("main", [10, 2])
    tiered = program.run("main", [10, 2], tier="threshold:1")
    assert tiered.value == eager.value
    assert tiered.cold_entries == []
    assert len(tiered.stitch_reports) == len(eager.stitch_reports)
    assert tiered.cycles > eager.cycles
    assert tiered.cycles_by_owner["tier:region:1"] > 0


def test_tier_owner_accounting_is_exact():
    """The ``tier:`` owner charges exactly counter-maintenance per
    entry plus the decision cost per cache miss -- nothing hidden."""
    program = compile_program(ROUND_ROBIN, mode="dynamic")
    result = program.run("main", [12, 3], tier="threshold:2")
    entries = sum(result.region_entries.values())
    misses = len(result.stitch_reports) + len(result.cold_entries) \
        + len(result.fallbacks)
    assert result.cycles_by_owner["tier:region:1"] \
        == entries * TIER_COUNTER_CYCLES + misses * TIER_DECIDE_CYCLES


# -- breakeven mode -----------------------------------------------------------

def test_breakeven_promotes_hot_key_only():
    """One hot key and a one-shot tail: breakeven stitches exactly the
    hot key (after measuring it) and keeps every tail key cold."""
    program = compile_program(SKEWED, mode="dynamic")
    result = program.run("main", [60, 5], tier="breakeven")
    assert result.value == static_value(SKEWED, [60, 5])
    assert [r.key for r in result.stitch_reports] == [(0,)]
    stats = result.tier_stats[("region", 1)]
    assert stats["keys"] == 6 and stats["keys_promoted"] == 1
    assert stats["promoted_keys"] == ["[0]"]
    # Tail keys (one entry each) all ran cold; the hot key ran cold
    # only while under measurement / below its predicted break-even.
    tail_colds = [c for c in result.cold_entries if c.key != (0,)]
    assert len(tail_colds) == 5
    assert all(c.count == 1 for c in tail_colds)


def test_breakeven_promotion_respects_predicted_breakeven():
    """The hot key promotes only after its entry count clears the
    recorded prediction ``B`` (promote at the B+1-th entry): its cold
    entries number exactly ``B``."""
    program = compile_program(SKEWED, mode="dynamic")
    result = program.run("main", [60, 5], tier="breakeven")
    stats = result.tier_stats[("region", 1)]
    predicted = stats["predicted_breakeven_by_key"]["[0]"]
    assert predicted == stats["predicted_breakeven"]
    assert 1 <= predicted <= 59
    hot_colds = [c for c in result.cold_entries if c.key == (0,)]
    assert len(hot_colds) == predicted
    assert [c.count for c in hot_colds] == list(range(1, predicted + 1))
    # The stitched entry's hotness follows the key's live count.
    assert stats["counters"]["[0]"] == 60


def test_breakeven_horizon_blocks_promotion():
    """A speedup estimate barely above 1 makes every predicted
    break-even count huge; with a 1-entry horizon nothing may promote
    -- and the program must still be correct, all entries cold."""
    program = compile_program(SKEWED, mode="dynamic")
    result = program.run("main", [12, 3],
                         tier="breakeven:1,speedup=1.01")
    assert result.value == static_value(SKEWED, [12, 3])
    assert result.stitch_reports == []
    assert len(result.cold_entries) == 15
    stats = result.tier_stats[("region", 1)]
    assert stats["keys_promoted"] == 0 and stats["promotions"] == 0


# -- speculative key-versioning -----------------------------------------------

def test_speculation_marks_hottest_siblings():
    """When key 0 earns promotion, spec=2 marks its two hottest cold
    siblings (count ties break toward the smaller key: 1 and 2); their
    next entries stitch speculatively, below the threshold.  Key 3
    stays cold -- the budget is spent."""
    program = compile_program(SPECULATE, mode="dynamic")
    result = program.run(tier="threshold:3,spec=2")
    assert result.value == static_value(SPECULATE)
    assert sorted(r.key for r in result.stitch_reports) \
        == [(0,), (1,), (2,)]
    stats = result.tier_stats[("region", 1)]
    assert stats["promotions"] == 3
    assert stats["speculative_promotions"] == 2
    assert stats["promoted_keys"] == ["[0]", "[1]", "[2]"]
    assert ((3,), 2) in [(c.key, c.count) for c in result.cold_entries]


def test_speculation_bounded_by_max_versions():
    """spec=2 but versions=1: only one mark may be handed out."""
    program = compile_program(SPECULATE, mode="dynamic")
    result = program.run(tier="threshold:3,spec=2,versions=1")
    assert result.value == static_value(SPECULATE)
    stats = result.tier_stats[("region", 1)]
    assert stats["speculative_promotions"] == 1
    assert sorted(r.key for r in result.stitch_reports) == [(0,), (1,)]


def test_no_speculation_by_default():
    """Without spec=K, sibling keys wait out their own threshold (and
    never reach it on this workload)."""
    program = compile_program(SPECULATE, mode="dynamic")
    result = program.run(tier="threshold:3")
    assert result.value == static_value(SPECULATE)
    assert [r.key for r in result.stitch_reports] == [(0,)]
    stats = result.tier_stats[("region", 1)]
    assert stats["speculative_promotions"] == 0
    assert stats["keys_promoted"] == 1


# -- chaos: tier.flip ---------------------------------------------------------

def test_tier_flip_is_economically_wrong_never_semantically():
    """A 100% flip plan inverts every promotion decision: threshold:1
    would stitch every first entry, so the flipped run stitches
    *nothing* -- and still computes the right answer, cold."""
    program = compile_program(ROUND_ROBIN, mode="dynamic")
    result = program.run("main", [10, 2], tier="threshold:1",
                         faults=FaultPlan({"tier.flip": 1.0}))
    assert result.value == round_robin_value(10, 2)
    assert result.stitch_reports == []
    assert len(result.cold_entries) == 10
    assert not result.fallbacks  # cold is policy, not degradation
    stats = result.tier_stats[("region", 1)]
    assert stats["decision_flips"] == 10
    assert result.fault_counts == {"tier.flip": 10}


def test_failed_speculative_stitch_counts_demotion():
    """A marked (promotion-eligible) key whose speculative stitch hits
    an injected fault lands on the degradation fallback and is counted
    as a demotion -- and the program is still correct.  Seed 22 is a
    draw sequence where key 0's earned stitch succeeds and both marked
    siblings' speculative stitches fault."""
    program = compile_program(SPECULATE, mode="dynamic")
    result = program.run(
        tier="threshold:3,spec=2",
        faults=FaultPlan({"stitch.hole": 0.5}, seed=22))
    assert result.value == static_value(SPECULATE)
    assert [r.key for r in result.stitch_reports] == [(0,)]
    assert sorted(e.key for e in result.fallbacks) == [(1,), (2,)]
    assert all(e.reason == "fault" for e in result.fallbacks)
    stats = result.tier_stats[("region", 1)]
    assert stats["demotions"] == 2
    assert stats["speculative_promotions"] == 0


# -- breaker / tiering precedence ---------------------------------------------

#: Fresh key per entry: every entry is a stitch attempt.
FRESH_KEYS = """
int region(int k, int v) {
    int t = v;
    dynamicRegion key(k) (k) {
        int i;
        unrolled for (i = 0; i < k + 2; i++) t += i * k + 1;
        return t;
    }
}

int main(int n) {
    int t = 0;
    int i;
    for (i = 0; i < n; i++) t = t + region(i, i);
    return t;
}
"""


def test_breaker_outranks_tiering():
    """A tripped breaker serves entries from the degradation fallback
    *before* the tier policy is consulted: mid-cooldown entries are
    fallbacks (not cold entries), and their keys never promote."""
    program = compile_program(
        FRESH_KEYS, mode="dynamic",
        breaker_config=BreakerConfig(threshold=3, backoff=2))
    result = program.run(
        "main", [9], tier="threshold:1",
        faults=FaultPlan({"stitch.hole": 1.0}, limit=3))
    assert result.value == static_value(FRESH_KEYS, [9])
    reasons = [event.reason for event in result.fallbacks]
    assert reasons[:3] == ["fault", "fault", "fault"]
    assert "breaker" in reasons[3:]
    # threshold:1 never runs anything cold; every non-stitched entry
    # here is a degradation, correctly separated from cold entries.
    assert result.cold_entries == []
    breaker_keys = {e.key for e in result.fallbacks
                    if e.reason == "breaker"}
    stitched_keys = {r.key for r in result.stitch_reports}
    assert breaker_keys and not (breaker_keys & stitched_keys)
    stats = result.tier_stats[("region", 1)]
    assert stats["promotions"] == len(result.stitch_reports)


# -- hotness-weighted eviction ------------------------------------------------

class _Entry:
    def __init__(self, base, cycles, last_use, hotness=0):
        class _Report:
            pass
        self.report = _Report()
        self.report.cycles = cycles
        self.base = base
        self.last_use = last_use
        self.hotness = hotness


def test_cost_aware_eviction_protects_hot_entries():
    """Equal stitch cost and recency: the entry the tier controller
    has seen run hot survives; with hotness all zero (every non-tiered
    run) the historical order is untouched."""
    policy = CostAwarePolicy()
    cold = _Entry(base=0, cycles=100, last_use=5)
    hot = _Entry(base=10, cycles=100, last_use=5, hotness=3)
    assert policy.victim([cold, hot], tick=6) is cold
    assert policy.victim([hot, cold], tick=6) is cold
    # hotness can outweigh a modest stitch-cost advantage...
    pricey_cold = _Entry(base=0, cycles=150, last_use=5)
    assert policy.victim([pricey_cold, hot], tick=6) is pricey_cold
    # ...and all-zero hotness degrades to the historical score.
    a = _Entry(base=0, cycles=100, last_use=5)
    b = _Entry(base=10, cycles=100, last_use=7)
    assert policy.victim([a, b], tick=8) is a


def test_tiered_bounded_cache_preserves_results():
    """Tiering + eviction + re-stitch: a proven-hot key that gets
    evicted re-stitches immediately on re-entry (no cooling-off), and
    the program result stays identical to the eager unbounded run."""
    program = compile_pressure_program()
    baseline = program.run("main", [60, 8, 7])
    for cache in ("lru:2", "cost-aware:2"):
        result = program.run("main", [60, 8, 7], tier="threshold:2",
                             cache=cache)
        assert result.value == baseline.value, cache
        stats = result.tier_stats[("region", 1)]
        # Re-stitches of promoted keys count as promotions too.
        assert stats["promotions"] >= stats["keys_promoted"], cache
        assert result.cache_stats.restitch_mismatches == [], cache
        assert sum(result.region_entries.values()) \
            == result.cache_stats.hits + len(result.stitch_reports) \
            + len(result.fallbacks) + len(result.cold_entries), cache


# -- the differential oracle, tiered leg --------------------------------------

def test_oracle_passes_with_tiered_leg():
    report = run_oracle(ROUND_ROBIN, [12, 3], config="tier=threshold:2")
    assert report.ok, [str(d) for d in report.divergences]


def test_oracle_passes_tiered_under_faults_and_bounded_cache():
    report = run_oracle(FRESH_KEYS, [8], config="cache=lru:2 faults=all:0.2 "
                        "tier=breakeven:64,spec=1")
    assert report.ok, [str(d) for d in report.divergences]
