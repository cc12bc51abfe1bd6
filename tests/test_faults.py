"""Graceful-degradation tests: the typed error hierarchy, fault
plans, the static fallback tier, resource guards, cache checksum
recovery, and the per-region circuit breaker.

The central claims under test:

* an injected or genuine stitch-path failure degrades to the static
  fallback tier and the program still computes the right answer;
* every injected fault is accounted for (fallback event or checksum
  recovery) -- nothing is silently swallowed;
* with faults disabled the whole degradation machinery is inert:
  runs are bit-identical to a build that never heard of it.
"""

import pytest

from repro import (
    ArenaExhausted, BreakerConfig, FaultPlan, ReproError, StitchBudget,
    StitchBudgetExceeded, StitchError, VMError, compile_program,
)
from repro.backends import PycodeBackend, RVMBackend
from repro.bench.workloads import calculator_workload
from repro.errors import RegionNotFound, mark_injected
from repro.faults import FAULT_SITES
from repro.machine.vm import VM
from repro.runtime.guards import RegionBreaker
from repro.testing.oracle import _vm_globals, run_oracle

#: Keyed region (fresh key per call => every entry attempts a stitch)
#: with an unrolled loop, so fallback code must run a real loop over
#: the iteration-record chain.
KEYED = """
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

FLOATS = """
float scale(float x, float factor) {
    dynamicRegion key(factor) (factor) {
        float twice = factor * 2.0;
        return x * twice + factor;
    }
}

int main(int n) {
    float t = 0.0;
    int i;
    for (i = 0; i < n; i++) t = t + scale((float) i, (float) i + 0.5);
    print_float(t);
    return (int) t;
}
"""


def expected_value(source, args):
    return compile_program(source, mode="static").run("main", args).value


# -- the error hierarchy ------------------------------------------------------

def test_error_hierarchy_and_context():
    assert issubclass(StitchError, ReproError)
    assert issubclass(StitchBudgetExceeded, StitchError)
    assert issubclass(VMError, ReproError)
    assert issubclass(ArenaExhausted, VMError)
    exc = StitchError("boom", func="f", region_id=1)
    assert "(region f:1)" in str(exc)
    assert exc.func == "f" and exc.region_id == 1
    assert not exc.injected
    assert mark_injected(exc) is exc and exc.injected


def test_arena_exhausted_is_typed_with_capacity_detail():
    # Memory sized so the heap limit sits 4 words above HEAP_BASE: the
    # first real allocation must fail with the typed error, not a bare
    # RecursionError/IndexError somewhere downstream.
    vm = VM(memory_words=VM.HEAP_BASE + (1 << 16) + 4)
    with pytest.raises(ArenaExhausted) as info:
        vm.alloc(8)
    exc = info.value
    assert exc.requested == 8 and exc.free == 4
    assert "requested 8 words" in str(exc)
    assert isinstance(exc, VMError)


def test_refused_alloc_leaves_the_heap_in_place():
    # 16 words free below the heap limit: a refused request must not
    # move the frontier, and a request that fits exactly is served.
    vm = VM(memory_words=VM.HEAP_BASE + (1 << 16) + 16)
    with pytest.raises(ArenaExhausted) as info:
        vm.alloc(32)
    assert info.value.requested == 32 and info.value.free == 16
    assert vm.heap_next == VM.HEAP_BASE
    assert vm.alloc(16) == VM.HEAP_BASE
    assert vm.heap_next == VM.HEAP_BASE + 16
    with pytest.raises(ArenaExhausted) as info:
        vm.alloc(1)
    assert info.value.free == 0
    assert vm.heap_next == VM.HEAP_BASE + 16


def test_template_size_raises_region_not_found():
    program = compile_program(KEYED, mode="dynamic")
    with pytest.raises(RegionNotFound):
        program.template_size("region", 99)
    with pytest.raises(KeyError):  # back-compat: callers catch KeyError
        program.template_size("nosuch", 1)


# -- FaultPlan ----------------------------------------------------------------

def test_fault_plan_parse():
    assert FaultPlan.parse(None) is None
    assert FaultPlan.parse("") is None
    assert FaultPlan.parse("off") is None
    plan = FaultPlan.parse("all:0.25")
    assert set(plan.probabilities) == set(FAULT_SITES)
    assert all(p == 0.25 for p in plan.probabilities.values())
    plan = FaultPlan.parse("stitch.hole:1.0,arena.code:0.5@7")
    assert plan.probabilities == {"stitch.hole": 1.0, "arena.code": 0.5}
    assert plan.seed == 7
    assert "stitch.hole" in plan.describe()
    with pytest.raises(ValueError):
        FaultPlan.parse("bogus.site:0.5")
    with pytest.raises(ValueError):
        FaultPlan.parse("stitch.hole:2.0")
    with pytest.raises(ValueError):
        FaultPlan.parse("stitch.hole")


def test_fault_plan_is_deterministic_and_bounded():
    draws = [FaultPlan({"stitch.hole": 0.5}, seed=3) for _ in range(2)]
    seq = [[plan.should_fire("stitch.hole") for _ in range(64)]
           for plan in draws]
    assert seq[0] == seq[1]
    # Unconfigured sites consume no randomness and never fire.
    assert not any(draws[0].should_fire("arena.pool") for _ in range(8))
    limited = FaultPlan({"stitch.hole": 1.0}, limit=2)
    fired = sum(limited.should_fire("stitch.hole") for _ in range(10))
    assert fired == 2 and limited.total_injected == 2


# -- the fallback tier --------------------------------------------------------

@pytest.mark.parametrize("site", ["stitch.table", "stitch.hole",
                                  "arena.pool", "arena.code"])
def test_every_raising_site_degrades_to_correct_fallback(site):
    expected = expected_value(KEYED, [4])
    program = compile_program(KEYED, mode="dynamic")
    result = program.run("main", [4],
                         faults=FaultPlan({site: 1.0}))
    assert result.value == expected
    assert result.fallbacks, "no degradation recorded"
    injected = [e for e in result.fallbacks if e.injected]
    assert injected and all(e.reason == "fault" for e in injected)
    assert result.fault_counts.get(site, 0) == len(injected)
    # Fallback execution is charged to its own owner kind.
    assert any(owner.startswith("fallback:") and cycles > 0
               for owner, cycles in result.cycles_by_owner.items())


def test_fallback_handles_float_pool_holes():
    report = run_oracle(FLOATS, [6], config="faults=all:1.0")
    assert report.ok, [str(d) for d in report.divergences]


def test_fallback_under_faults_matches_oracle_with_bounded_cache():
    report = run_oracle(KEYED, [8], config="cache=lru:2 faults=all:0.5")
    assert report.ok, [str(d) for d in report.divergences]


# -- resource guards ----------------------------------------------------------

def test_budget_aborts_mid_unroll_into_fallback():
    expected = expected_value(KEYED, [9])
    program = compile_program(KEYED, mode="dynamic",
                              stitch_budget=StitchBudget(max_unroll=4))
    result = program.run("main", [9])
    assert result.value == expected
    reasons = {event.reason for event in result.fallbacks}
    assert "budget" in reasons
    assert all(not event.injected for event in result.fallbacks)
    # The partial stitch work before the abort is still charged.
    assert any(owner.startswith("stitcher:") and cycles > 0
               for owner, cycles in result.cycles_by_owner.items())


def test_word_budget_aborts_into_fallback():
    program = compile_program(KEYED, mode="dynamic",
                              stitch_budget=StitchBudget(max_words=4))
    result = program.run("main", [3])
    assert result.value == expected_value(KEYED, [3])
    assert result.fallbacks
    assert {event.reason for event in result.fallbacks} <= \
        {"budget", "breaker"}


# -- circuit breaker ----------------------------------------------------------

def test_breaker_unit_semantics():
    breaker = RegionBreaker(BreakerConfig(threshold=2, backoff=4),
                            "f", 1)
    assert breaker.should_attempt()
    breaker.on_failure()
    assert breaker.should_attempt()  # below threshold
    breaker.on_failure()             # trips
    assert not breaker.should_attempt() and breaker.cooldown == 4
    for _ in range(4):
        breaker.on_entry_while_open()
    assert breaker.should_attempt()  # half-open
    breaker.on_failure()             # re-trip: doubled cooldown
    assert breaker.cooldown == 8 and breaker.trips == 2
    for _ in range(8):
        breaker.on_entry_while_open()
    breaker.on_success()
    assert breaker.resets == 1
    snap = breaker.snapshot()
    assert snap["trips"] == 2 and snap["resets"] == 1
    assert snap["cooldown"] == 0


def test_breaker_trips_then_recovers_end_to_end():
    expected = expected_value(KEYED, [9])
    program = compile_program(
        KEYED, mode="dynamic",
        breaker_config=BreakerConfig(threshold=3, backoff=2))
    result = program.run(
        "main", [9],
        faults=FaultPlan({"stitch.hole": 1.0}, limit=3))
    assert result.value == expected
    reasons = [event.reason for event in result.fallbacks]
    # Three injected failures trip the breaker; the cooldown serves
    # entries from fallback without attempting (or drawing faults);
    # the half-open retry succeeds (fault budget exhausted) and the
    # remaining keys stitch normally.
    assert reasons[:3] == ["fault", "fault", "fault"]
    assert "breaker" in reasons[3:]
    stats = result.breaker_stats[("region", 1)]
    assert stats["trips"] == 1 and stats["resets"] == 1
    assert result.stitch_reports, "post-recovery entries should stitch"


# -- cache checksum recovery --------------------------------------------------

#: Repeated keys => cache hits, which is where checksum verification
#: happens.
REVISIT = KEYED.replace("region(i, i)", "region(i % 2, i)")


def test_checksum_failure_invalidates_and_restitches():
    expected = expected_value(REVISIT, [6])
    program = compile_program(REVISIT, mode="dynamic")
    result = program.run(
        "main", [6],
        faults=FaultPlan({"cache.checksum": 1.0}, limit=1))
    assert result.value == expected
    stats = result.cache_stats
    assert stats.checksum_failures == 1, stats
    assert stats.restitches >= 1
    # Checksum faults recover by re-stitch, not by fallback.
    assert not result.fallbacks
    assert result.fault_counts == {"cache.checksum": 1}


class _ReplacesWord:
    """Test-local backend mixin: after every install, a stray write
    replaces one of the entry's endpoint words (``word`` 0, the first,
    or -1, the last) with a copy of it.  The copy runs the same, but it
    is no longer the entry's own word."""

    def __init__(self, word: int):
        super().__init__()
        self.word = word

    def entry_installed(self, vm, entry) -> None:
        super().entry_installed(vm, entry)
        pc = entry.base + self.word % entry.words
        vm.code[pc] = vm.code[pc].copy()


@pytest.mark.parametrize("word", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("backend", [RVMBackend, PycodeBackend],
                         ids=["rvm", "pycode"])
def test_hit_on_a_replaced_endpoint_word_restitches(backend, word):
    """The hit-time check compares the entry's first and last installed
    words with its own: with either replaced after every install, every
    hit fails it, is logged and re-stitches, and the run computes what
    a clean run computes."""
    source = calculator_workload().source
    clean = compile_program(source, backend=backend())
    want = clean.run()
    replaced = type("Replaced", (_ReplacesWord, backend), {})(word)
    program = compile_program(source, backend=replaced)
    got = program.run()
    assert (got.value, got.output) == (want.value, want.output)
    assert _vm_globals(program) == _vm_globals(clean)
    stats = got.cache_stats
    assert stats.hits == 0
    assert stats.checksum_failures == want.cache_stats.hits > 0
    assert len(got.stitch_reports) \
        == len(want.stitch_reports) + want.cache_stats.hits
    assert not got.fallbacks


# -- faults disabled => bit-identical -----------------------------------------

def test_disabled_faults_are_bit_identical():
    baseline = compile_program(KEYED, mode="dynamic").run("main", [7])
    inert_plan = FaultPlan({"stitch.hole": 0.0})
    guarded = compile_program(
        KEYED, mode="dynamic",
        breaker_config=BreakerConfig(threshold=1, backoff=64))
    result = guarded.run("main", [7], faults=inert_plan)
    assert result.value == baseline.value
    assert result.cycles == baseline.cycles
    assert result.cycles_by_owner == baseline.cycles_by_owner
    assert result.instrs_by_owner == baseline.instrs_by_owner
    assert not result.fallbacks and not result.fault_counts
    assert not result.fallback_blocks
