"""Eviction policies and the cache configuration.

A policy decides *which* entry to sacrifice when the cache is over
capacity; the :class:`~repro.codecache.cache.CodeCache` decides *when*
(insert time), stamps each entry's ``last_use`` on every insert and
hit, and handles the mechanics (freeing, re-use, compaction).  A
policy is a victim function ``victim(candidates, tick)`` in
:data:`VICTIMS`, and only ever sees evictable candidates -- pinned
entries (those with ``jsr`` calls, which may have live frames) are
filtered out before it is called.  ``unbounded`` has none: an
unbounded cache never evicts.

All policies are deterministic: ties break on (last-use tick, base
address), so a given program + configuration always evicts the same
entries in the same order -- a requirement for the differential
oracle and for reproducible fuzzing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from .entry import CachedEntry


def lru_victim(candidates: List[CachedEntry], tick: int) -> CachedEntry:
    """Evict the least recently used version."""
    return min(candidates, key=lambda e: (e.last_use, e.base))


def cost_aware_victim(candidates: List[CachedEntry],
                      tick: int) -> CachedEntry:
    """Evict the version that is cheapest to lose.

    The break-even profiler's economics: an entry's retention value is
    what it cost to stitch (``report.cycles``, which is exactly what a
    re-stitch would cost again) scaled down by how long it has sat
    idle.  Evicting the lowest ``stitch_cycles x recency`` first keeps
    expensive, hot entries resident.

    Adaptive tiering feeds hotness in: the tier controller keeps each
    entry's ``hotness`` at its key's live entry count, and a hot
    entry's retention value scales up accordingly -- evicting it would
    forfeit more future hits than evicting an equally expensive cold
    one.  ``hotness`` stays 0 in non-tiered runs, so the score (and
    hence eviction order) is unchanged there.
    """
    def score(e: CachedEntry):
        age = 1 + tick - e.last_use
        return (e.report.cycles * (1 + e.hotness) / age,
                e.last_use, e.base)
    return min(candidates, key=score)


#: policy name -> victim function, for every policy that evicts.
VICTIMS = {"lru": lru_victim, "cost-aware": cost_aware_victim}

#: every policy name :class:`CacheConfig` accepts.
POLICIES = ("unbounded", *VICTIMS)


@dataclass(frozen=True)
class CacheConfig:
    """Code-cache configuration (engine / CLI / bench flags).

    ``policy`` names the eviction policy; capacity is expressed in
    live entries (``max_entries``) and/or live code words
    (``max_words``) -- either, both, or neither.  The default is the
    historical behavior: unbounded, nothing ever evicted.
    """

    policy: str = "unbounded"
    max_entries: Optional[int] = None
    max_words: Optional[int] = None

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError("unknown cache policy %r (choose from %s)"
                             % (self.policy, ", ".join(sorted(POLICIES))))

    @property
    def bounded(self) -> bool:
        return self.policy != "unbounded" and (
            self.max_entries is not None or self.max_words is not None)

    def describe(self) -> str:
        """The spec string :meth:`parse` reads back to this config."""
        entries = "" if self.max_entries is None else str(self.max_entries)
        if self.max_words is not None:
            return "%s:%s:%d" % (self.policy, entries, self.max_words)
        return "%s:%s" % (self.policy, entries) if entries else self.policy

    @classmethod
    def parse(cls, spec: Union[str, "CacheConfig", None]) -> "CacheConfig":
        """Parse a CLI spec: ``POLICY[:MAX_ENTRIES[:MAX_WORDS]]``.

        Examples: ``unbounded``, ``lru:4``, ``cost-aware:8:4096``,
        ``lru::2048`` (word cap only).  None means the default; a
        config passes through.
        """
        if not isinstance(spec, str):
            return spec or cls()
        parts = spec.split(":")
        if len(parts) > 3:
            raise ValueError("bad cache spec %r" % spec)
        parts += [""] * (3 - len(parts))
        try:
            max_entries = int(parts[1]) if parts[1] else None
            max_words = int(parts[2]) if parts[2] else None
        except ValueError:
            raise ValueError("bad cache capacity in %r (want "
                             "POLICY[:ENTRIES[:WORDS]])" % spec) from None
        return cls(policy=parts[0] or "unbounded", max_entries=max_entries,
                   max_words=max_words)
