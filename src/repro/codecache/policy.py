"""Pluggable cache policies and the cache configuration.

The policy decides *which* entry to sacrifice when the cache is over
capacity; the :class:`~repro.codecache.cache.CodeCache` decides *when*
(insert time) and handles the mechanics (freeing, re-use, compaction).
Policies only ever see evictable candidates -- pinned entries (those
with ``jsr`` calls, which may have live frames) are filtered out
before :meth:`CachePolicy.victim` is consulted.

All policies are deterministic: ties break on (last-use tick, base
address), so a given program + configuration always evicts the same
entries in the same order -- a requirement for the differential
oracle and for reproducible fuzzing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from .entry import CachedEntry


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
        policy = parts[0] or "unbounded"
        if policy not in POLICIES:
            raise ValueError("unknown cache policy %r (choose from %s)"
                             % (policy, ", ".join(sorted(POLICIES))))
        if len(parts) > 3:
            raise ValueError("bad cache spec %r" % spec)
        parts += [""] * (3 - len(parts))
        try:
            max_entries = int(parts[1]) if parts[1] else None
            max_words = int(parts[2]) if parts[2] else None
        except ValueError:
            raise ValueError("bad cache capacity in %r (want "
                             "POLICY[:ENTRIES[:WORDS]])" % spec) from None
        return cls(policy=policy, max_entries=max_entries,
                   max_words=max_words)


class CachePolicy:
    """Strategy interface: recency bookkeeping + victim selection."""

    name = "abstract"

    def on_insert(self, entry: CachedEntry, tick: int) -> None:
        entry.last_use = tick

    def on_hit(self, entry: CachedEntry, tick: int) -> None:
        entry.last_use = tick

    def victim(self, candidates: List[CachedEntry],
               tick: int) -> CachedEntry:
        raise NotImplementedError


class UnboundedPolicy(CachePolicy):
    """Today's behavior: keep every version forever (the default)."""

    name = "unbounded"

    def victim(self, candidates: List[CachedEntry],
               tick: int) -> CachedEntry:
        raise RuntimeError("unbounded policy never evicts")


class LRUPolicy(CachePolicy):
    """Evict the least recently used version."""

    name = "lru"

    def victim(self, candidates: List[CachedEntry],
               tick: int) -> CachedEntry:
        return min(candidates, key=lambda e: (e.last_use, e.base))


class CostAwarePolicy(CachePolicy):
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

    name = "cost-aware"

    def victim(self, candidates: List[CachedEntry],
               tick: int) -> CachedEntry:
        def score(e: CachedEntry):
            age = 1 + tick - e.last_use
            return (e.report.cycles * (1 + e.hotness) / age,
                    e.last_use, e.base)
        return min(candidates, key=score)


POLICIES = {
    "unbounded": UnboundedPolicy,
    "lru": LRUPolicy,
    "cost-aware": CostAwarePolicy,
}


def make_policy(config: CacheConfig) -> CachePolicy:
    try:
        return POLICIES[config.policy]()
    except KeyError:
        raise ValueError("unknown cache policy %r (choose from %s)"
                         % (config.policy, ", ".join(sorted(POLICIES))))
