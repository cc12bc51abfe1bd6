"""The code cache: a first-class subsystem owning stitched code.

The paper's ``key(...)`` annotation turns each dynamic region into a
*family* of compiled versions, one per distinct key value.  This
package owns the life cycle of those versions end to end, which used
to be smeared across ``RuntimeServices``, the stitcher and the VM:

* :mod:`~repro.codecache.entry` -- *relocatable* stitched entries: the
  stitcher emits a self-describing :class:`CachedEntry` (code words,
  per-word relocation records, constant pool, symbol fixups) instead
  of writing absolute addresses straight into VM memory, which the
  cache places or rebases at any address;
* :mod:`~repro.codecache.arena` -- a dedicated code arena inside the
  VM with a free list, so evicted entries' words are reused, plus a
  data-word arena (over the same free list) for the linearized
  constant pools;
* :mod:`~repro.codecache.policy` -- the eviction policies
  (``unbounded``, ``lru``, ``cost-aware``), each a victim function,
  with capacity configurable in entries and in code words
  (:class:`CacheConfig`);
* :mod:`~repro.codecache.cache` -- the :class:`CodeCache` itself:
  keyed lookup, insertion with eviction, free-list compaction (using
  the relocation records) when fragmentation blocks an install, and
  invalidation when a region's run-time-constants table is re-filled
  with different values.  A hit checks, in O(1), that the entry's
  first and last installed words are still its own objects; a word
  mutated in place goes undetected.

The default configuration (``unbounded``) reproduces the historical
behavior bit for bit: entries are appended to the end of code memory
and never evicted, so all golden accounting tests hold unchanged.
"""

from .arena import CodeArena, PoolArena
from .cache import CacheStats, CodeCache
from .entry import CachedEntry, CacheKey, Relocation
from .keys import region_key
from .policy import CacheConfig

__all__ = [
    "CacheConfig",
    "CacheKey",
    "CacheStats",
    "CachedEntry",
    "CodeArena",
    "CodeCache",
    "PoolArena",
    "Relocation",
    "region_key",
]
