"""Code-cache subsystem tests: key conventions, configuration
parsing, the arenas, eviction/re-stitch identity, multi-version keyed
regions, compaction, invalidation, and the accounting invariant under
randomized capacities."""

import pytest

from repro import compile_program
from repro.bench.cachepressure import compile_pressure_program
from repro.codecache import CacheConfig, CacheKey, CodeArena, PoolArena
from repro.codecache.keys import region_key
from repro.fuzz import random_config
from repro.machine.costs import op_cost
from repro.machine.isa import ARG_BASE, MInstr
from repro.machine.vm import VM, VMError

from helpers import NaiveRVM


# -- satellite: the one key-extraction helper ---------------------------------

def test_region_key_offset_conventions():
    """Pin both register conventions: region_lookup keys start at
    ARG_BASE; region_stitch shifts them up by one (the table address
    occupies ARG_BASE).  codegen.lower emits exactly these layouts."""
    regs = [0] * 64
    for i in range(4):
        regs[ARG_BASE + i] = 100 + i
    assert region_key(regs, 3) == (100, 101, 102)
    assert region_key(regs, 3, stitch_args=True) == (101, 102, 103)
    assert region_key(regs, 0) == ()
    assert region_key(regs, 0, stitch_args=True) == ()


def test_lookup_and_stitch_conventions_agree_end_to_end():
    """The same key must be seen by both services: revisit hits carry
    the key the lookup extracted, stitch reports carry the key the
    stitcher extracted -- a skew would stitch under one key and look
    up under another, and the revisit would never hit."""
    program = compile_program(MULTI_VERSION, mode="dynamic")
    result = program.run()
    stitched = sorted(r.key for r in result.stitch_reports)
    hit = sorted(h.key for h in result.cache_hits)
    assert stitched == hit == [(k,) for k in range(5)]


def test_cache_key_named_tuple():
    key = CacheKey("f", 2, (3, 4))
    assert key.func == "f" and key.region_id == 2 and key.key == (3, 4)
    assert key.region == ("f", 2)
    assert key.pretty() == "f:2[3, 4]"


# -- CacheConfig --------------------------------------------------------------

def test_cache_config_parse():
    assert CacheConfig.parse("unbounded") == CacheConfig()
    assert CacheConfig.parse("lru:4") == CacheConfig("lru", 4, None)
    assert CacheConfig.parse("cost-aware:8:4096") == \
        CacheConfig("cost-aware", 8, 4096)
    assert CacheConfig.parse("lru::2048") == CacheConfig("lru", None, 2048)
    with pytest.raises(ValueError):
        CacheConfig.parse("fifo:2")
    with pytest.raises(ValueError):
        CacheConfig.parse("lru:1:2:3")


def test_cache_config_bounded_and_describe():
    assert not CacheConfig().bounded
    assert not CacheConfig("lru").bounded          # a policy with no cap
    assert not CacheConfig(max_entries=4).bounded  # a cap with no policy
    assert CacheConfig("lru", 2).bounded
    assert CacheConfig("lru", max_words=64).bounded
    assert CacheConfig().describe() == "unbounded"
    assert CacheConfig("lru", 2, 64).describe() == "lru:2:64"
    # describe() emits the spec form, so it round-trips through parse().
    for config in (CacheConfig(), CacheConfig("lru", 2),
                   CacheConfig("cost-aware", 8, 4096),
                   CacheConfig("lru", max_words=2048),
                   CacheConfig(max_entries=4)):
        assert CacheConfig.parse(config.describe()) == config


# -- arenas -------------------------------------------------------------------

def _vm_with_blocks(*sizes):
    """A VM whose code space holds len(sizes) dummy blocks above an
    empty static image; returns (vm, arena, [block bases])."""
    vm = VM(memory_words=1 << 12)
    arena = CodeArena(vm)
    bases = [vm.install_code([MInstr("add", 0, 0, 0)] * size)
             for size in sizes]
    return vm, arena, bases


def test_code_arena_alloc_release_coalesce():
    vm, arena, (base,) = _vm_with_blocks(4)
    assert arena.start == base
    assert arena.try_alloc(1) is None  # empty free list -> append path
    arena.release(base, 4)
    assert arena.free_words == 4 and arena.largest_free == 4
    assert all(instr.op == "freed" for instr in vm.code[base:base + 4])
    got = arena.try_alloc(2)           # first-fit with split
    assert got == base
    assert arena.free == [(base + 2, 2)]
    arena.release(base, 2)             # coalesces back into one block
    assert arena.free == [(base, 4)]
    assert arena.used_words == 0


def test_code_arena_fragmentation():
    vm, arena, (b0, b1, b2) = _vm_with_blocks(4, 4, 4)
    arena.release(b0, 4)
    arena.release(b2, 4)               # b1 keeps them from coalescing
    assert arena.free_words == 8 and arena.largest_free == 4
    assert arena.fragmented(6)         # fits in total, no single block
    assert not arena.fragmented(4)     # a block can hold it
    assert not arena.fragmented(10)    # does not fit at all
    assert arena.try_alloc(6) is None


def test_pool_arena_reuse_and_zeroing():
    vm = VM()
    arena = PoolArena(vm)
    base = arena.alloc(3)              # empty free list -> vm.alloc
    for i in range(3):
        vm.store(base + i, 7 + i)
    arena.release(base, 3)
    assert [vm.load(base + i) for i in range(3)] == [0, 0, 0]
    assert arena.alloc(2) == base      # reused from the free list
    assert arena.alloc(1) == base + 2  # the split remainder
    assert arena.alloc(1) != base      # exhausted -> fresh vm.alloc


def test_freed_filler_faults_on_execution():
    """Evicted code words must trap, not silently execute, under both
    dispatchers -- naming the pc they were reached at, and charging the
    ``codecache`` owner and the ``freed`` opcode like any executed word,
    although every freed slot shares one filler word and handler."""
    vm = VM(memory_words=1 << 12)
    base = vm.install_code([MInstr("halt"), MInstr("halt")])
    vm.fill_freed(base, 2)
    assert vm.code[base] is vm.code[base + 1]
    assert vm.handlers[base] is vm.handlers[base + 1]
    cost = op_cost("freed", "")
    for pc in (base, base + 1):
        with pytest.raises(VMError, match="unknown opcode 'freed' at pc %d"
                           % pc):
            vm.run(pc, [])
        with pytest.raises(VMError, match="unknown opcode 'freed' at pc %d"
                           % pc):
            NaiveRVM().execute(vm, pc, [])
    assert vm.cycles_by_owner == {"codecache": 4 * cost}
    assert vm.instrs_by_owner == {"codecache": 4}
    assert vm.op_counts == {"freed": 4}


# -- eviction: the lru:1 two-key acceptance scenario --------------------------

TWO_KEY = """
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
    for (i = 0; i < n; i++) {
        t = t + region(i % 2, i);
    }
    return t;
}
"""


def test_lru_capacity_one_two_alternating_keys():
    """Capacity 1 with two alternating keys: every entry after the
    first two is a re-stitch of an evicted version, each re-stitch is
    word-identical to the original, and the observables bit-match the
    unbounded run."""
    n = 10
    expected = sum(i * 3 + (i % 2) * 5 for i in range(n))
    program = compile_program(TWO_KEY, mode="dynamic")
    baseline = program.run("main", [n])
    assert baseline.value == expected
    assert len(baseline.stitch_reports) == 2

    bounded = program.run("main", [n], cache=CacheConfig("lru", 1))
    stats = bounded.cache_stats
    assert bounded.value == baseline.value
    assert bounded.output == baseline.output
    assert stats.hits == 0 and stats.misses == n
    assert len(bounded.stitch_reports) == n
    assert stats.evictions == n - 1
    assert stats.restitches == n - 2
    assert stats.restitch_mismatches == []
    assert stats.live_entries == 1
    # every region execution accounted for, whatever the policy:
    assert sum(bounded.region_entries.values()) == stats.hits + stats.misses


def test_lru_capacity_one_matches_naive_dispatch():
    backend = NaiveRVM(naive=False)
    program = compile_program(TWO_KEY, mode="dynamic", backend=backend)
    config = CacheConfig("lru", 1)
    threaded = program.run("main", [8], cache=config)
    backend.naive = True
    naive = program.run("main", [8], cache=config)
    assert naive.value == threaded.value
    assert naive.cycles == threaded.cycles
    assert naive.cycles_by_owner == threaded.cycles_by_owner
    assert naive.cache_stats.evictions == threaded.cache_stats.evictions


# -- multi-version keyed regions ----------------------------------------------

MULTI_VERSION = """
int region(int k, int v) {
    int t = v;
    dynamicRegion key(k) (k) {
        int r = t + k * 9;
        return r;
    }
}

int main() {
    int t = 0;
    int j;
    int i;
    for (j = 0; j < 2; j++) {
        for (i = 0; i < 5; i++) {
            t = t + region(i, j * 10 + i);
        }
    }
    return t;
}
"""


def test_multi_version_region_n_keys_n_stitches():
    """N distinct keys -> N stitched versions; the second round over
    the same keys hits every time (unbounded default)."""
    program = compile_program(MULTI_VERSION, mode="dynamic")
    result = program.run()
    expected = sum(j * 10 + i + i * 9 for j in range(2) for i in range(5))
    assert result.value == expected
    assert len(result.stitch_reports) == 5
    stats = result.cache_stats
    assert stats.hits == 5 and stats.misses == 5
    assert stats.evictions == 0 and stats.restitches == 0
    assert sum(result.region_entries.values()) == stats.hits + stats.misses


def test_multi_version_bit_identical_across_dispatchers():
    backend = NaiveRVM(naive=False)
    program = compile_program(MULTI_VERSION, mode="dynamic",
                              backend=backend)
    threaded = program.run()
    backend.naive = True
    naive = program.run()
    assert naive.value == threaded.value
    assert naive.cycles == threaded.cycles
    assert naive.cycles_by_owner == threaded.cycles_by_owner
    assert naive.op_counts == threaded.op_counts


# -- compaction ---------------------------------------------------------------

def test_compaction_under_pressure_preserves_results():
    """The cache-pressure workload (variable-size versions) fragments
    the free list at a tiny capacity; compaction must fire and the
    result must stay bit-identical to the unbounded baseline."""
    program = compile_pressure_program()
    baseline = program.run("main", [30, 8, 7])
    bounded = program.run("main", [30, 8, 7], cache=CacheConfig("lru", 2))
    stats = bounded.cache_stats
    assert bounded.value == baseline.value
    assert stats.evictions > 0
    assert stats.compactions > 0
    assert stats.restitch_mismatches == []
    assert stats.live_entries <= 2
    assert sum(bounded.region_entries.values()) == stats.hits + stats.misses


# -- invalidation -------------------------------------------------------------

INVALIDATION = """
int region(int k, int c, int v) {
    int t = v;
    dynamicRegion key(k) (k, c) {
        int r = t + k * 7 + c;
        return r;
    }
}

int main() {
    int a = region(0, 10, 1);
    int b = region(1, 10, 2);
    int c = region(0, 20, 3);
    return a * 10000 + b * 100 + c;
}
"""


def test_invalidation_on_table_refill():
    """Re-filling a region's run-time-constants table with different
    values for an already-seen key drops every version of that region
    (and clears the word-identity archive: the new words legitimately
    differ from the old stitch)."""
    program = compile_program(INVALIDATION, mode="dynamic")
    # Capacity 1 forces key 0 out before its table changes; the third
    # call re-stitches it against c=20 and must invalidate the region.
    result = program.run(cache=CacheConfig("lru", 1))
    a, b, c = 1 + 0 + 10, 2 + 7 + 10, 3 + 0 + 20
    assert result.value == a * 10000 + b * 100 + c
    stats = result.cache_stats
    assert stats.invalidations == 1
    assert stats.restitch_mismatches == []
    assert stats.live_entries == 1
    assert sum(result.region_entries.values()) == stats.hits + stats.misses


# -- the accounting invariant under randomized capacities ---------------------

def test_accounting_invariant_under_random_capacities():
    """entries == cache hits + stitches for >= 200 randomized cache
    configurations (the fuzzer's distribution: unbounded, lru and
    cost-aware with tiny entry caps and occasional word caps), with
    results bit-identical to the unbounded baseline throughout."""
    program = compile_pressure_program()
    baseline = program.run("main", [16, 5, 7])
    for iteration in range(200):
        config = random_config(11, iteration).cache
        result = program.run("main", [16, 5, 7], cache=config)
        stats = result.cache_stats
        assert result.value == baseline.value, config.describe()
        assert sum(result.region_entries.values()) \
            == stats.hits + stats.misses, config.describe()
        assert stats.misses == len(result.stitch_reports), config.describe()
        assert stats.restitch_mismatches == [], config.describe()
