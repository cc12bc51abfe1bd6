"""Relocatable stitched entries.

The stitcher used to write absolute branch targets straight into VM
code memory, welding each stitched region to the address it happened
to land on.  A :class:`CachedEntry` instead carries everything needed
to *place* the code anywhere: the instruction words, a relocation
record for every word whose ``target`` depends on the final base
address, the linearized constant pool, and the entry point as an
offset.  :func:`install_entry` (and the cache's own installer) applies
the relocations after choosing an address -- and can re-apply them at
a different address, which is what makes eviction, reuse and
compaction of the code pool possible at all.

Two facts about stitched code keep relocation simple:

* templates never emit ``jtab`` (template switches lower to
  compare-and-branch chains; constant switches resolve at stitch
  time), so every control transfer is a single ``target`` field;
* constant-pool references are position-independent already -- pool
  loads address ``CPOOL``-relative by pool *index*, and the dispatch
  glue reloads the ``CPOOL`` register from the cache on every entry --
  so moving code never touches the pool and vice versa.

Relocation kinds:

* ``"local"`` -- a branch to another instruction of the same entry;
  ``value`` is the offset from the entry's base.
* ``"absolute"`` -- a fixed code address outside the entry (``ext:``
  labels back into the owning function, ``func:`` call targets).
  Static code never moves, so these survive rebasing unchanged.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from ..errors import VMError
from ..machine.isa import MInstr

Number = Union[int, float]

#: One load of a stitch's table walk: ``(base, offset, value,
#: record)``.  ``base`` names where the load reads -- 0 for the
#: constants table, n for the n-th distinct record pointer the walk
#: followed -- and ``offset`` the word within it.  A value load has
#: ``record == 0`` and the value read; a record-pointer load has
#: ``value None`` and the number of the record it points to.
WalkStep = Tuple[int, int, Optional[Number], int]

_DOUBLE = struct.Struct("<d").pack


class CacheKey(NamedTuple):
    """Identity of one compiled version: region plus ``key(...)`` values."""

    func: str
    region_id: int
    key: Tuple[Number, ...]

    @property
    def region(self) -> Tuple[str, int]:
        return (self.func, self.region_id)

    def pretty(self) -> str:
        return "%s:%d%r" % (self.func, self.region_id, list(self.key))


class Relocation(NamedTuple):
    """One word whose ``target`` must be fixed up at install time."""

    index: int  #: which instruction of the entry
    kind: str   #: "local" or "absolute"
    value: int  #: entry-relative offset, or absolute code address


@dataclass
class CachedEntry:
    """One stitched region version, relocatable and self-describing."""

    key: CacheKey
    #: the stitched instructions (per-entry clones for every word that
    #: carries a relocation; un-relocated words may be shared with the
    #: region's templates and are never mutated).
    code: List[MInstr]
    relocs: List[Relocation]
    #: linearized large-constants pool (addressed CPOOL-relative).
    pool: List[Number]
    #: region entry point, relative to the entry's base.
    entry_offset: int
    #: the stitch report; ``report.entry`` / ``report.pool_base`` are
    #: filled in when the entry is installed.
    report: "StitchReport"  # noqa: F821  (avoid an import cycle)
    #: values read from the run-time-constants table during the
    #: stitch, in read order -- re-filling the table with different
    #: values invalidates the region's versions (record-chain pointers
    #: are deliberately excluded: they are heap addresses that
    #: legitimately differ between re-stitches).
    table_fingerprint: Tuple[Number, ...] = ()
    #: every table and record load the stitch made, in order (see
    #: :data:`WalkStep`): :meth:`walk_matches` replays it.
    walk: Tuple[WalkStep, ...] = ()
    #: entries that call functions (``jsr``) can have live frames
    #: below them when the cache runs; they are never moved or evicted.
    pinned: bool = False
    #: install state (set by the installer).
    base: int = -1
    pool_base: int = -1
    #: data words reserved for the pool (the allocator's minimum is 1).
    pool_words: int = 1
    #: policy bookkeeping: cache tick of the last hit or insert.
    last_use: int = 0
    #: adaptive-tiering hotness: the key's live entry count, kept fresh
    #: by the tier controller on every hit.  Non-tiered runs leave it
    #: at 0, which makes hotness-weighted eviction collapse to the
    #: historical cost-aware score.
    hotness: int = 0
    #: integrity checksum over the canonical image, stamped at install
    #: and verified on every cache hit (0 = not yet stamped).
    checksum: int = 0
    #: per-backend host artifacts (backend name -> opaque payload),
    #: attached by ``ExecutionBackend.entry_installed``.  They live and
    #: die with the entry: eviction and invalidation drop the whole
    #: object, so stale artifacts cannot outlive their words.
    artifacts: Dict[str, object] = field(default_factory=dict)
    _canonical: Tuple = field(default=None, repr=False)  # type: ignore
    _crc: int = field(default=0, repr=False)

    @property
    def words(self) -> int:
        return len(self.code)

    @property
    def entry_pc(self) -> int:
        return self.base + self.entry_offset

    def place(self, base: int) -> None:
        """(Re)base the entry at ``base``: apply every relocation."""
        code = self.code
        for index, kind, value in self.relocs:
            code[index].target = value if kind == "absolute" \
                else base + value
        self.base = base
        self.report.entry = base + self.entry_offset

    def canonical_words(self) -> Tuple:
        """A base-independent image of the entry, for the re-stitch
        identity invariant: two stitches of the same key against the
        same table must be word-identical *modulo relocation base*.
        Local targets are abstracted to entry-relative offsets; pool
        references are already pool indices, hence position-free."""
        if self._canonical is None:
            tags = {index: (kind, value)
                    for index, kind, value in self.relocs}
            words = tuple(
                (i.op, i.rd, i.ra, i.rb, i.imm, i.name,
                 tags.get(n))
                for n, i in enumerate(self.code))
            self._canonical = (words, tuple(self.pool), self.entry_offset)
        return self._canonical

    def walk_matches(self, vm, table_addr: int) -> bool:
        """True when the table at ``table_addr`` gives this entry's
        walk again: every value equal by type and bits, every record
        pointer non-zero and aliasing the others as before.  The
        stitcher reads nothing else, so on that table it would emit
        these words again."""
        bases = [table_addr]
        numbers: Dict[int, int] = {}
        load = vm.load
        try:
            for base, offset, want, record in self.walk:
                got = load(bases[base] + offset)
                if record:
                    pointer = int(got)
                    if not pointer \
                            or numbers.setdefault(pointer,
                                                  len(bases)) != record:
                        return False
                    if record == len(bases):
                        bases.append(pointer)
                elif got is not want and not (
                        got.__class__ is want.__class__ and got == want
                        and (got.__class__ is not float
                             or _DOUBLE(got) == _DOUBLE(want))):
                    return False
        except (VMError, OverflowError, ValueError):
            return False  # a wild or non-finite pointer: stitch for real
        return True

    def revived(self) -> "CachedEntry":
        """A fresh, uninstalled copy of this evicted entry over the same
        words, with its own copy of the report."""
        report = self.report
        return CachedEntry(
            key=self.key, code=self.code, relocs=self.relocs,
            pool=self.pool, entry_offset=self.entry_offset,
            report=replace(report,
                           loop_iterations=dict(report.loop_iterations),
                           peepholes=dict(report.peepholes),
                           reg_actions=dict(report.reg_actions)),
            table_fingerprint=self.table_fingerprint, walk=self.walk,
            pinned=self.pinned, _canonical=self._canonical,
            _crc=self._crc)

    def compute_checksum(self) -> int:
        """CRC32 over the canonical (base-independent) image, so the
        checksum survives compaction and rebasing.  Memoized: the
        canonical image never changes after the stitch."""
        if not self._crc:
            payload = repr(self.canonical_words()).encode("utf-8")
            self._crc = zlib.crc32(payload) or 1
        return self._crc


def install_entry(vm, entry: CachedEntry) -> CachedEntry:
    """Append-install an entry at the end of code memory.

    This is the historical install sequence, kept bit-compatible with
    the pre-codecache stitcher for the default unbounded policy: the
    constant pool is heap-allocated *before* the code is appended, so
    all data and code addresses match the old behavior exactly.  The
    bounded cache's installer (:meth:`CodeCache._install`) adds
    free-list reuse and compaction on top of this.
    """
    entry.pool_words = max(1, len(entry.pool))
    pool_base = vm.alloc(entry.pool_words)
    for i, value in enumerate(entry.pool):
        vm.store(pool_base + i, value)
    base = vm.install_code(entry.code)
    entry.place(base)
    entry.pool_base = pool_base
    entry.report.pool_base = pool_base
    return entry
