"""The code cache proper: keyed versions, eviction, compaction,
invalidation.

One :class:`CodeCache` serves one VM execution.  The runtime engine
calls :meth:`CodeCache.lookup` from the ``region_lookup`` service and
:meth:`CodeCache.insert` from ``region_stitch``; everything else --
capacity enforcement, victim selection, free-list reuse, compaction
when fragmentation blocks an install, and invalidation when a region's
run-time-constants table is re-filled with different values -- happens
inside those two calls.

Safety rule ("pinning"): an entry whose code calls functions (``jsr``)
may have a live frame beneath it when the cache runs (the callee may
itself hit a region and stitch), so such entries are never moved,
evicted, or freed.  Call-free entries can never be mid-execution
during a cache operation -- the VM is single-threaded and cache
operations only run inside the ``region_lookup`` / ``region_stitch``
runtime services, which are reached from static dispatch glue -- so
they are always safe to relocate or discard.  If every candidate is
pinned the cache overflows softly (capacity is exceeded rather than
correctness risked).

Two invariants, checked by the differential oracle:

* ``region entries == cache hits + stitches`` -- every region
  execution is accounted for, whatever the policy;
* a re-stitch of an evicted key against an unchanged table must be
  *word-identical modulo relocation base* to the original stitch
  (mismatches are recorded in :attr:`CacheStats.restitch_mismatches`
  and fail the oracle).

Everything the cache does to code is logged as an event in the run's
log (:mod:`repro.runtime.runlog`), which :meth:`CodeCache.snapshot`
counts.

Revival: the cache keeps the last cleanly evicted entry of each key.
When the key misses again, :meth:`CodeCache.revive` replays that
entry's table walk against the freshly filled table; on a match a
fresh entry over the same words goes back through :meth:`insert`
instead of a new stitch (the engine charges the original stitch's
cycles, so simulated observables are unchanged).  Runs with a fault
plan never revive: a revival skips the stitcher's fault draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ArenaExhausted, VMError, mark_injected
from .arena import CodeArena, PoolArena
from .entry import CachedEntry, CacheKey
from .policy import VICTIMS, CacheConfig


@dataclass
class CacheStats:
    """Post-run cache accounting (``RunResult.cache_stats``)."""

    #: the run's cache configuration (policy and capacity).
    config: CacheConfig
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    compactions: int = 0
    invalidations: int = 0
    #: stitches for keys that had been stitched before (post-eviction
    #: or post-invalidation re-compilations).
    restitches: int = 0
    #: stitches served by re-installing the key's evicted entry (its
    #: table walk matched; see :meth:`CodeCache.revive`).
    revivals: int = 0
    #: cache hits whose entry failed integrity verification (the entry
    #: was invalidated and the key re-stitched).
    checksum_failures: int = 0
    live_entries: int = 0
    #: live entries pinned for a possible live frame (see above).
    live_pinned: int = 0
    live_code_words: int = 0
    #: live (base, words) code ranges -- the only run-time code ranges
    #: the oracle's branch/reachability invariants may scan.
    live_blocks: List[Tuple[int, int]] = field(default_factory=list)
    #: live entry pcs, the reachability seeds.
    live_entry_pcs: List[int] = field(default_factory=list)
    #: re-stitches that were NOT word-identical to the original stitch
    #: of the same key with the same table fingerprint (oracle
    #: failures), as pretty-printed cache keys.
    restitch_mismatches: List[str] = field(default_factory=list)


class _KeyRecord:
    """What the cache remembers about one key across evictions."""

    __slots__ = ("fingerprint", "canonical", "evicted")

    def __init__(self, entry: CachedEntry):
        #: the table fingerprint of the key's latest stitch (a change
        #: means the region's table was re-filled: invalidate).
        self.fingerprint = entry.table_fingerprint
        #: canonical words of the key's *first* stitch, for the
        #: re-stitch identity invariant.
        self.canonical = entry.canonical_words()
        #: the key's last cleanly evicted entry while it is not live
        #: (never one dropped by a checksum failure or invalidation).
        self.evicted: Optional[CachedEntry] = None


class CodeCache:
    """Keyed cache of stitched region versions for one VM execution."""

    def __init__(self, vm, backend, log, config: Optional[CacheConfig] = None,
                 faults=None):
        self.vm = vm
        #: the run's log (repro.runtime.runlog.RunLog).
        self.log = log
        self.config = config or CacheConfig()
        #: fault-injection plan (repro.faults.FaultPlan) or None.
        self.faults = faults
        #: execution backend notified after installs (its hooks are
        #: no-ops for rvm; see repro.backends.base).
        self.backend = backend
        self.code_arena = CodeArena(vm)
        self.pool_arena = PoolArena(vm)
        #: live versions only.
        self.entries: Dict[CacheKey, CachedEntry] = {}
        #: one record per key stitched since the region's last
        #: invalidation (survives eviction).
        self.keys: Dict[CacheKey, _KeyRecord] = {}
        self.tick = 0
        #: immovable (base, words) code ranges the cache must route
        #: around: fallback blocks live inside the arena's address
        #: range but are not cache entries (see :meth:`reserve`).
        self._reserved: List[Tuple[int, int]] = []
        self._reserved_words = 0
        #: ``on_invalidate(func, region_id)``, set by the engine under
        #: async stitching: cancels the region's queued jobs.
        self.on_invalidate = None

    # -- the two runtime-service entry points -------------------------------

    def lookup(self, key: CacheKey) -> Optional[CachedEntry]:
        """The ``region_lookup`` fast path: a live entry or ``None``."""
        self.tick += 1
        entry = self.entries.get(key)
        if entry is None:
            return None
        if not self._verify(entry):
            # Integrity failure: drop the corrupted version and report
            # a miss, so the region is re-stitched once (recovery); a
            # second failure falls back via the engine's breaker.
            del self.entries[key]
            if not entry.pinned:
                self._release(entry)
            self.log.event("cache.checksum_fail", key.region, key.key,
                           base=entry.base, entries=len(self.entries),
                           code_words=self._cache_words)
            return None
        entry.last_use = self.tick
        return entry

    def _verify(self, entry: CachedEntry) -> bool:
        """Integrity check on a hit, in O(1): the entry's first and
        last installed words are still its own objects (catches filler
        overwrites, a word replaced by another entry's and
        mis-compaction).  A word mutated in place goes undetected."""
        if self.faults is not None \
                and self.faults.should_fire("cache.checksum"):
            return False
        code = self.vm.code
        words = entry.words
        if words and not (code[entry.base] is entry.code[0]
                          and code[entry.base + words - 1]
                          is entry.code[-1]):
            return False
        return True

    def revive(self, key: CacheKey, table_addr: int
               ) -> Optional[CachedEntry]:
        """A fresh entry over the words of ``key``'s last evicted
        version, when replaying its table walk against the table at
        ``table_addr`` matches (the stitcher would emit the same words
        again); None means stitch.  The caller charges the entry's
        stitch cycles and inserts it."""
        record = self.keys.get(key)
        if record is None or record.evicted is None \
                or self.faults is not None \
                or not record.evicted.walk_matches(self.vm, table_addr):
            return None
        entry = record.evicted.revived()
        record.evicted = None
        self.log.event("cache.revive", key.region, key.key,
                       words=entry.words)
        return entry

    def insert(self, entry: CachedEntry) -> CachedEntry:
        """Admit a stitched (or revived) entry: invalidate on
        fingerprint change, check re-stitch identity, make room,
        install."""
        self.tick += 1
        key = entry.key
        record = self.keys.get(key)
        if record is not None \
                and record.fingerprint != entry.table_fingerprint:
            # The region's "run-time constants" were re-filled with
            # different values: every version of the region is stale.
            self.invalidate_region(key.func, key.region_id)
            record = None
        elif key in self.entries:
            # A live key being re-inserted (possible only through
            # direct API use, never through the dispatch glue, which
            # always consults lookup first): release the old version.
            old = self.entries.pop(key)
            if not old.pinned:
                self._release(old)
        if record is None:
            self.keys[key] = _KeyRecord(entry)
        else:
            canonical = entry.canonical_words()
            self.log.event("cache.restitch", key.region, key.key,
                           identical=canonical is record.canonical
                           or canonical == record.canonical)
            record.fingerprint = entry.table_fingerprint
            record.evicted = None
        self._make_room(entry.words)
        self._install(entry)
        entry.last_use = self.tick
        self.entries[key] = entry
        self.log.event("cache.install", key.region, key.key,
                       base=entry.base, words=entry.words,
                       entries=len(self.entries),
                       code_words=self._cache_words)
        return entry

    # -- capacity ----------------------------------------------------------

    def _over_capacity(self, incoming_words: int) -> bool:
        config = self.config
        if config.max_entries is not None \
                and len(self.entries) + 1 > config.max_entries:
            return True
        if config.max_words is not None \
                and self._cache_words + incoming_words > config.max_words:
            return True
        return False

    @property
    def _cache_words(self) -> int:
        """Arena words attributable to the cache itself.  Reserved
        (fallback) blocks sit inside the arena's address range but are
        not the cache's to evict, so they do not count against its
        capacity."""
        return self.code_arena.used_words - self._reserved_words

    def reserve(self, base: int, words: int) -> None:
        """Mark ``[base, base+words)`` immovable and not cache-owned:
        compaction routes around it and capacity accounting ignores
        it.  Used for per-region fallback blocks, which live in code
        memory past the arena start but must survive every cache
        operation."""
        self._reserved.append((base, words))
        self._reserved_words += words

    def _make_room(self, incoming_words: int) -> None:
        if not self.config.bounded:
            return
        victim = VICTIMS[self.config.policy]
        while self._over_capacity(incoming_words):
            candidates = [e for e in self.entries.values()
                          if not e.pinned]
            if not candidates:
                break  # everything pinned: overflow softly
            self._evict(victim(candidates, self.tick))

    def _release(self, entry: CachedEntry) -> None:
        self.code_arena.release(entry.base, entry.words)
        self.pool_arena.release(entry.pool_base, entry.pool_words)

    def _evict(self, entry: CachedEntry) -> None:
        del self.entries[entry.key]
        self._release(entry)
        self.keys[entry.key].evicted = entry
        self.log.event("cache.evict", entry.key.region, entry.key.key,
                       policy=self.config.policy, base=entry.base,
                       words=entry.words)

    def invalidate_region(self, func: str, region_id: int) -> int:
        """Drop every version of a region (its table was re-filled
        with different values).  Pinned versions are unlinked from the
        cache but their words are deliberately leaked -- a live frame
        may still return through them.  Returns versions dropped."""
        region = (func, region_id)
        doomed = [k for k in self.entries if k.region == region]
        for key in doomed:
            entry = self.entries.pop(key)
            if not entry.pinned:
                self._release(entry)
        for key in [k for k in self.keys if k.region == region]:
            del self.keys[key]
        self.log.event("cache.invalidate", region, dropped=len(doomed),
                       entries=len(self.entries),
                       code_words=self._cache_words)
        if self.on_invalidate is not None:
            self.on_invalidate(func, region_id)
        return len(doomed)

    # -- installation ------------------------------------------------------

    def _install(self, entry: CachedEntry) -> None:
        """Place the entry: reuse a free block, compacting first if
        only fragmentation stands in the way, else append.  The pool
        is allocated before the code to stay address-identical with
        the historical (unbounded) install sequence."""
        entry.pool_words = max(1, len(entry.pool))
        if self.faults is not None and self.faults.should_fire("arena.pool"):
            raise mark_injected(ArenaExhausted(
                "injected fault: constant-pool arena allocation",
                requested=entry.pool_words, free=0,
                func=entry.key.func, region_id=entry.key.region_id))
        pool_base = self.pool_arena.alloc(len(entry.pool))
        for i, value in enumerate(entry.pool):
            self.vm.store(pool_base + i, value)
        words = entry.words
        if self.faults is not None and self.faults.should_fire("arena.code"):
            raise mark_injected(ArenaExhausted(
                "injected fault: code arena placement",
                requested=words, free=self.code_arena.free_words,
                func=entry.key.func, region_id=entry.key.region_id))
        arena = self.code_arena
        base = arena.try_alloc(words)
        if base is None and arena.fragmented(words) \
                and any(not e.pinned for e in self.entries.values()):
            if self.compact():
                base = arena.try_alloc(words)
        if base is None:
            base = self.vm.install_code(entry.code)
        else:
            self.vm.write_code(base, entry.code)
        entry.place(base)
        entry.pool_base = pool_base
        entry.report.pool_base = pool_base
        # Backend hook: the entry is placed and relocated.
        self.backend.entry_installed(self.vm, entry)

    def compact(self) -> bool:
        """Slide unpinned live entries toward the arena base (pinned
        entries and reserved fallback blocks are immovable obstacles),
        rebasing each via its relocation records, then rebuild the
        free list from the gaps.  Returns True if anything moved."""
        if self.faults is not None \
                and self.faults.should_fire("cache.compact"):
            raise mark_injected(VMError(
                "injected fault: code-cache compaction"))
        # Entries and reserved ranges are disjoint allocations, so a
        # single base-ordered sweep sees every obstacle before any
        # entry that could slide into it.
        items = [(e.base, e.words, e) for e in self.entries.values()]
        items += [(base, words, None) for base, words in self._reserved]
        items.sort(key=lambda item: item[0])
        cursor = self.code_arena.start
        moved = 0
        free_blocks: List[Tuple[int, int]] = []
        for base, words, entry in items:
            if entry is None or entry.pinned:
                if cursor < base:
                    free_blocks.append((cursor, base - cursor))
                cursor = max(cursor, base + words)
                continue
            if base > cursor:
                self.vm.move_code(base, cursor, words)
                entry.place(cursor)
                moved += 1
            cursor = entry.base + entry.words
        if not moved:
            return False
        end = len(self.vm.code)
        if cursor < end:
            free_blocks.append((cursor, end - cursor))
        self.code_arena.reset_free(free_blocks)
        self.log.event("cache.compact", moved=moved,
                       free_words=self.code_arena.free_words,
                       largest_free=self.code_arena.largest_free)
        return True

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> CacheStats:
        """The run's cache accounting: counts over the run's log plus
        the live entries."""
        log = self.log
        hits = sum(1 for event in log.entries if event.kind == "hit")
        live = sorted(self.entries.values(), key=lambda e: e.base)
        return CacheStats(
            config=self.config,
            hits=hits,
            misses=len(log.entries) - hits,
            evictions=log.count("cache.evict"),
            compactions=log.count("cache.compact"),
            invalidations=log.count("cache.invalidate"),
            restitches=log.count("cache.restitch"),
            revivals=log.count("cache.revive"),
            checksum_failures=log.count("cache.checksum_fail"),
            live_entries=len(live),
            live_pinned=sum(1 for e in live if e.pinned),
            live_code_words=self._cache_words,
            live_blocks=[(e.base, e.words) for e in live],
            live_entry_pcs=[e.entry_pc for e in live],
            restitch_mismatches=[
                CacheKey(*event.region, event.key).pretty()
                for event in log.of_kind("cache.restitch")
                if not event.args["identical"]],
        )
