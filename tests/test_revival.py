"""Revival of evicted stitches (``CodeCache.revive``).

When an evicted key misses again and its recorded table walk matches
the freshly filled table, the cache re-installs the evicted words
instead of stitching again.  That must be invisible: every simulated
observable of a run is compared against the same run with revival
patched off.  A table that differs in any way the stitcher could see
-- a changed slot, an int turned float, a zero's sign, a record
pointer's aliasing or nullness -- must stitch for real, and runs with a
fault plan never revive, so seeded fault schedules replay unchanged.
"""

import dataclasses

import pytest

from repro import compile_program
from repro.bench.cachepressure import SOURCE as PRESSURE
from repro.codecache import CachedEntry, CacheKey
from repro.codecache.cache import CodeCache
from repro.machine.vm import VM, VMError

#: the cache-pressure region twice over, so eviction and revival also
#: run with two regions' versions competing for the cache.
TWO_REGIONS = """
int ra(int k, int v) {
    int t = v;
    dynamicRegion key(k) (k) {
        int i;
        unrolled for (i = 0; i < k + 2; i++) t += i * k + 1;
        return t;
    }
}

int rb(int k, int v) {
    int t = v;
    dynamicRegion key(k) (k) {
        int i;
        unrolled for (i = 0; i < k + 1; i++) t += i * k + 3;
        return t;
    }
}

int main(int n, int card, int seed) {
    int r = seed;
    int t = 0;
    int i;
    for (i = 0; i < n; i++) {
        r = (r * 29 + 13) % 64;
        if (i % 2 == 0) {
            t = t + ra(r % card, i);
        } else {
            t = t + rb(r % card, i);
        }
    }
    return t;
}
"""

#: a float run-time constant (``z``) next to the key.
FLOAT_SLOT = """
float region(int k, float z, float v) {
    float t = v;
    dynamicRegion key(k) (k, z) {
        float r = t * z + t;
        return r;
    }
}

float main(int n) {
    float t = 0.0;
    int i;
    for (i = 0; i < n; i++) {
        t = t + region(i % 2, 0.0, 1.5);
    }
    return t;
}
"""

#: a non-key slot (``c``) that changes under an evicted key.
CHANGED_SLOT = """
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

CONFIGS = [
    {"cache": "lru:1"},
    {"cache": "lru:2"},
    {"cache": "cost-aware:4"},
    {"cache": "lru:4", "tier": "breakeven", "stitch": "async"},
]

#: ``main`` arguments for every configuration ...
ARGS = ([60, 8, 7], [120, 12, 3], [300, 6, 1])
#: ... plus, under a tiering policy (a key stitches only once it runs
#: hot, so four entries fill only on a long run), a long one.
LONG = [1000, 24, 1]


def observables(result):
    """Everything a run reports except the revival count."""
    stats = dataclasses.asdict(result.cache_stats)
    del stats["revivals"]
    return (result.value, result.float_value, result.output, result.cycles,
            result.cycles_by_owner, result.instrs_by_owner,
            result.op_counts, result.entries, result.region_entries, stats,
            result.fallback_blocks, result.fault_counts,
            result.breaker_stats, result.tier_stats, result.queue_stats)


def run(program, args, revive=True, mutate=None, max_cycles=20_000_000,
        **config):
    """Run ``main(*args)``; ``revive=False`` patches revival off.
    ``mutate(vm, walk, table_addr)`` edits the table at the run's
    first revival chance (a miss whose key holds an evicted entry,
    after checking the walk matches there); returns the result and
    what :meth:`CodeCache.revive` returned at that chance."""
    real = CodeCache.revive
    chance = []

    def revive_hook(cache, key, table_addr):
        record = cache.keys.get(key)
        if mutate is not None and not chance and record is not None \
                and record.evicted is not None:
            evicted = record.evicted
            assert evicted.walk_matches(cache.vm, table_addr)
            mutate(cache.vm, evicted.walk, table_addr)
            chance.append(real(cache, key, table_addr) if revive else None)
            return chance[0]
        return real(cache, key, table_addr) if revive else None

    CodeCache.revive = revive_hook
    try:
        result = program.run("main", args, max_cycles=max_cycles, **config)
    finally:
        CodeCache.revive = real
    assert mutate is None or chance, "no revival chance"
    return result, chance[0] if chance else None


@pytest.mark.parametrize("backend", ["rvm", "pycode"])
@pytest.mark.parametrize("config", CONFIGS,
                         ids=[" ".join("%s=%s" % kv for kv in c.items())
                              for c in CONFIGS])
def test_revival_is_invisible(config, backend):
    """Under every cache/tier/queue configuration and both backends,
    a run that revives is bit-identical to one that re-stitches: value,
    cycles, owners, opcodes, the entry log (report fields and pcs
    included), cache stats (live blocks included) and re-stitch
    identity -- and revival does fire, on one region and on two."""
    for source in (PRESSURE, TWO_REGIONS):
        program = compile_program(source, backend=backend)
        revivals = 0
        for args in ARGS + ((LONG,) if "tier" in config else ()):
            revived, _ = run(program, args, **config)
            restitched, _ = run(program, args, revive=False, **config)
            assert observables(revived) == observables(restitched), args
            assert revived.cache_stats.restitch_mismatches == []
            assert restitched.cache_stats.revivals == 0
            revivals += revived.cache_stats.revivals
        assert revivals > 0, source


def _addresses(vm, walk, table_addr):
    """The address each step of ``walk`` loads on the table at
    ``table_addr``."""
    bases, addresses = [table_addr], []
    for base, offset, _value, record in walk:
        addresses.append(bases[base] + offset)
        if record == len(bases):
            bases.append(int(vm.load(addresses[-1])))
    return addresses


def _first(walk, test):
    return next(i for i, step in enumerate(walk) if test(step))


def int_to_float(vm, walk, table_addr):
    """``3`` becomes ``3.0``: equal by ``==``, not by type."""
    i = _first(walk, lambda s: not s[3] and type(s[2]) is int and s[2])
    vm.store(_addresses(vm, walk, table_addr)[i], float(walk[i][2]))


def negative_zero(vm, walk, table_addr):
    """``0.0`` becomes ``-0.0``: equal by ``==``, not by bits."""
    i = _first(walk, lambda s: not s[3] and type(s[2]) is float)
    assert walk[i][2] == 0.0
    vm.store(_addresses(vm, walk, table_addr)[i], -0.0)


def alias_records(vm, walk, table_addr):
    """The first record's next pointer points back at the first
    record: same values, but two records the walk kept apart alias."""
    addresses = _addresses(vm, walk, table_addr)
    head = _first(walk, lambda s: s[3] == 1)
    link = _first(walk, lambda s: s[3] == 2)
    vm.store(addresses[link], vm.load(addresses[head]))


def zero_record(vm, walk, table_addr):
    """The head record pointer becomes 0."""
    i = _first(walk, lambda s: s[3] == 1)
    vm.store(_addresses(vm, walk, table_addr)[i], 0)


@pytest.mark.parametrize("source,args,mutate", [
    (PRESSURE, [40, 6, 7], int_to_float),
    (FLOAT_SLOT, [6], negative_zero),
    (PRESSURE, [40, 6, 7], zero_record),
], ids=["3-vs-3.0", "0.0-vs-minus-0.0", "zero-record-pointer"])
@pytest.mark.parametrize("backend", ["rvm", "pycode"])
def test_walk_mismatch_stitches_for_real(source, args, mutate, backend):
    """A table the stitcher would read differently declines revival,
    and the run then matches a run that never revives on the same
    edited table."""
    program = compile_program(source, backend=backend)
    revived, declined = run(program, args, mutate=mutate, cache="lru:1")
    assert declined is None
    restitched, _ = run(program, args, revive=False, mutate=mutate,
                        cache="lru:1")
    assert observables(revived) == observables(restitched)
    assert revived.cache_stats.revivals > 0  # later chances still revive
    if mutate is zero_record:
        # The real stitch hit the null record and degraded.
        assert [e.reason for e in revived.fallbacks] == ["error"]


def test_walk_replay_matches_record_pointers_by_aliasing():
    """Record pointers match by how they alias, not by address: a
    chain that moved matches; a null pointer, two records that now
    alias, or two that no longer do, do not -- even where every value
    loaded through them is equal."""
    def walk_matches(walk, first, second):
        vm = VM(memory_words=1 << 12)
        vm.store(100, first)       # the table: two record pointers
        vm.store(101, second)
        for record in (first, second):
            if record:
                vm.store(record, 5)
        entry = CachedEntry(CacheKey("f", 1, ()), [], [], [], 0, None,
                            walk=walk)
        return entry.walk_matches(vm, 100)

    apart = ((0, 0, None, 1), (1, 0, 5, 0), (0, 1, None, 2), (2, 0, 5, 0))
    assert walk_matches(apart, 200, 300)
    assert walk_matches(apart, 400, 300)
    assert not walk_matches(apart, 200, 200)
    assert not walk_matches(apart, 0, 300)
    aliased = ((0, 0, None, 1), (1, 0, 5, 0), (0, 1, None, 1), (1, 0, 5, 0))
    assert walk_matches(aliased, 300, 300)
    assert not walk_matches(aliased, 200, 300)


def test_aliased_record_pointers_stitch_for_real():
    """Aliased records make the real stitch unroll a loop that never
    ends; a revival would have run the old, finite words instead (the
    unedited run takes 185,634 cycles)."""
    program = compile_program(PRESSURE)
    budget = {"max_cycles": 1_000_000, "cache": "lru:1"}
    assert run(program, [12, 6, 7], **budget)[0].cache_stats.revivals
    with pytest.raises(VMError, match="cycle budget") as revived:
        run(program, [12, 6, 7], mutate=alias_records, **budget)
    with pytest.raises(VMError, match="cycle budget") as restitched:
        run(program, [12, 6, 7], revive=False, mutate=alias_records,
            **budget)
    assert str(revived.value) == str(restitched.value)


def test_changed_slot_invalidates_instead_of_reviving():
    """A non-key slot re-filled with a new value under an evicted key:
    no revival, a real stitch, and the region is invalidated."""
    program = compile_program(CHANGED_SLOT)
    result, _ = run(program, [], cache="lru:1")
    assert result.value == 11 * 10000 + 19 * 100 + 23
    stats = result.cache_stats
    assert stats.invalidations == 1 and stats.revivals == 0
    assert observables(result) \
        == observables(run(program, [], revive=False, cache="lru:1")[0])


@pytest.mark.parametrize("backend", ["rvm", "pycode"])
def test_fault_plans_never_revive(backend):
    """A seeded fault plan injects at the same draws, and logs the same
    entries, whether or not revival is available."""
    program = compile_program(PRESSURE, backend=backend)
    config = {"cache": "lru:1", "faults": "all:0.05@11"}
    revived, _ = run(program, [120, 8, 7], **config)
    restitched, _ = run(program, [120, 8, 7], revive=False, **config)
    assert revived.fault_counts and revived.cache_stats.revivals == 0
    assert revived.fault_counts == restitched.fault_counts
    assert revived.entries == restitched.entries
    assert observables(revived) == observables(restitched)
