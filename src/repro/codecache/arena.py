"""Arenas: bounded, reusable storage for stitched code and pools.

Before this subsystem, the stitcher bump-allocated both code (appended
to ``vm.code``) and constant pools (``vm.alloc``) with no way to ever
reclaim either -- a server stitching regions for millions of distinct
keys would exhaust memory.  The arenas add one free list
(:class:`FreeList`: first-fit, splitting, coalescing) on top of the
same underlying growth mechanisms:

* :class:`CodeArena` manages the code words *above the static image*
  (everything from its construction-time ``len(vm.code)`` up).  Freed
  ranges are filled with ``freed`` filler words that fault if ever
  executed.  When the free list holds enough words for a request but
  no single block is large enough, :meth:`CodeArena.fragmented` says
  so -- the cache's cue to compact.

* :class:`PoolArena` manages heap words for constant pools, falling
  back to ``vm.alloc`` when the free list cannot serve a request.
  Freed pool words are zeroed through ``vm.store``, so a reused block
  starts out reading 0 like a freshly bump-allocated one.

With empty free lists both arenas degenerate to the historical
bump-allocators, byte-for-byte: that is what keeps the default
unbounded policy's addresses (and therefore all golden accounting)
identical to the pre-codecache runtime.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple


class FreeList:
    """Sorted, coalesced free blocks ``(base, words)``."""

    def __init__(self):
        self.free: List[Tuple[int, int]] = []

    @property
    def free_words(self) -> int:
        return sum(size for _, size in self.free)

    def take(self, words: int) -> Optional[int]:
        """First fit: cut ``words`` words from the front of the first
        block that holds them; ``None`` if none does."""
        for i, (base, size) in enumerate(self.free):
            if size >= words:
                if size == words:
                    del self.free[i]
                else:
                    self.free[i] = (base + words, size - words)
                return base
        return None

    def give(self, blocks: Iterable[Tuple[int, int]]) -> None:
        """Add free blocks, merging each with its neighbors."""
        merged: List[Tuple[int, int]] = []
        for base, size in sorted([*self.free, *blocks]):
            if merged and merged[-1][0] + merged[-1][1] == base:
                merged[-1] = (merged[-1][0], merged[-1][1] + size)
            else:
                merged.append((base, size))
        self.free = merged


class CodeArena(FreeList):
    """Free-list allocator over the VM's run-time code space."""

    def __init__(self, vm):
        super().__init__()
        self.vm = vm
        #: base address of the arena: run-time code starts where the
        #: static image ends.
        self.start = len(vm.code)

    # -- queries -----------------------------------------------------------

    @property
    def largest_free(self) -> int:
        return max((size for _, size in self.free), default=0)

    @property
    def total_words(self) -> int:
        """All arena words, live or free."""
        return len(self.vm.code) - self.start

    @property
    def used_words(self) -> int:
        return self.total_words - self.free_words

    def fragmented(self, words: int) -> bool:
        """Enough free words exist, but no block can hold ``words``."""
        return self.largest_free < words <= self.free_words

    # -- allocation --------------------------------------------------------

    def try_alloc(self, words: int) -> Optional[int]:
        """First-fit from the free list; ``None`` if nothing fits.
        (The caller appends to ``vm.code`` on None -- appending grows
        the arena implicitly, no bookkeeping required.)"""
        return self.take(words) if words > 0 else None

    def release(self, base: int, words: int) -> None:
        """Return a block to the free list, filling its words with
        trapping filler.  (A trailing free block that reaches the end
        of code memory stays on the list: the VM's reset logic owns
        code-list truncation, and the next install reuses it.)"""
        if words <= 0:
            return
        self.vm.fill_freed(base, words)
        self.give([(base, words)])

    def reset_free(self, blocks: List[Tuple[int, int]]) -> None:
        """Replace the free list wholesale (compaction rebuilds it),
        filling every free range with trapping filler."""
        self.free = []
        self.give(blocks)
        for base, size in self.free:
            self.vm.fill_freed(base, size)


class PoolArena(FreeList):
    """Free-list allocator over heap words for constant pools."""

    def __init__(self, vm):
        super().__init__()
        self.vm = vm

    def alloc(self, words: int) -> int:
        """A block of at least ``max(1, words)`` heap words: reused
        from the free list when possible, else freshly bump-allocated
        exactly like the historical ``vm.alloc`` path."""
        need = max(1, words)
        base = self.take(need)
        return self.vm.alloc(need) if base is None else base

    def release(self, base: int, words: int) -> None:
        need = max(1, words)
        for addr in range(base, base + need):
            self.vm.store(addr, 0)
        self.give([(base, need)])
