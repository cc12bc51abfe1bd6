"""VM profiler: per-owner / per-region simulated-cycle profiles.

The RVM's predecoded threaded dispatch counts each executed
instruction in one count cell per ``(owner, opcode, cost)`` and derives
per-owner totals from them (see :mod:`repro.machine.vm`); this module
turns a run's copy of those totals (a :class:`~repro.runtime.engine.RunResult`)
into structured profiles: cycles and instruction counts grouped by owner *kind*
(function body, region set-up, stitched code, stitcher, dispatch glue,
static-mode region body) and aggregated per dynamic region.

Owner-tag grammar (assigned by the lowerer, the loader and the
stitcher)::

    fn:<function>                 ordinary function body
    setup:<function>:<region>     region set-up code (fills the table)
    dispatch:<function>:<region>  cache lookup / enter glue
    template:<function>:<region>  in-image templates (never executed)
    stitched:<function>:<region>  dynamically generated region code
    stitcher:<function>:<region>  the dynamic compiler's own work
    fallback:<function>:<region>  static fallback tier (degraded entries)
    region:<function>:<region>    region body in static (baseline) mode

Everything here is read-only over completed accounting: profiling a
run does not perturb it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

#: Owner-kind display order for profile reports.
KIND_ORDER = ["fn", "setup", "dispatch", "stitched", "stitcher",
              "fallback", "region", "template", "other"]

RegionKey = Tuple[str, int]


def parse_owner(owner: str) -> Tuple[str, Optional[RegionKey]]:
    """``"stitched:spmv:1"`` -> ``("stitched", ("spmv", 1))``."""
    parts = owner.split(":")
    if len(parts) == 3 and parts[0] in ("setup", "dispatch", "stitched",
                                        "stitcher", "fallback", "region",
                                        "template"):
        try:
            return parts[0], (parts[1], int(parts[2]))
        except ValueError:
            return "other", None
    if len(parts) == 2 and parts[0] == "fn":
        return "fn", None
    return "other", None


@dataclass
class RegionProfile:
    """Simulated-cycle breakdown of one dynamic region."""

    func_name: str
    region_id: int
    #: owner kind -> (cycles, instrs).
    by_kind: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: region entries (cache lookups) observed by the runtime, if known.
    entries: Optional[int] = None

    def cycles(self, kind: str) -> int:
        return self.by_kind.get(kind, (0, 0))[0]

    @property
    def total_cycles(self) -> int:
        return sum(c for c, _ in self.by_kind.values())

    @property
    def per_entry_cycles(self) -> Optional[float]:
        """Steady-state cost per entry: stitched + dispatch cycles
        divided by entry count (None when entries are unknown)."""
        if not self.entries:
            return None
        return (self.cycles("stitched") + self.cycles("dispatch")) \
            / self.entries


@dataclass
class Profile:
    """A whole run's owner-cell accounting, structured."""

    #: owner tag -> (cycles, instrs), verbatim from the run's accounting.
    owners: Dict[str, Tuple[int, int]]
    #: owner kind -> (cycles, instrs) totals.
    by_kind: Dict[str, Tuple[int, int]]
    regions: Dict[RegionKey, RegionProfile]
    op_counts: Dict[str, int] = field(default_factory=dict)
    total_cycles: int = 0


def profile_owner_cells(
        owners_cycles: Mapping[str, int],
        owners_instrs: Mapping[str, int],
        op_counts: Optional[Mapping[str, int]] = None,
        region_entries: Optional[Mapping[RegionKey, int]] = None,
) -> Profile:
    """Build a :class:`Profile` from raw owner-cell snapshots."""
    owners: Dict[str, Tuple[int, int]] = {}
    for owner in set(owners_cycles) | set(owners_instrs):
        owners[owner] = (owners_cycles.get(owner, 0),
                         owners_instrs.get(owner, 0))
    by_kind: Dict[str, Tuple[int, int]] = {}
    regions: Dict[RegionKey, RegionProfile] = {}
    for owner, (cycles, instrs) in owners.items():
        kind, region_key = parse_owner(owner)
        kc, ki = by_kind.get(kind, (0, 0))
        by_kind[kind] = (kc + cycles, ki + instrs)
        if region_key is not None:
            region = regions.get(region_key)
            if region is None:
                region = regions[region_key] = RegionProfile(
                    region_key[0], region_key[1])
            rc, ri = region.by_kind.get(kind, (0, 0))
            region.by_kind[kind] = (rc + cycles, ri + instrs)
    if region_entries:
        for key, count in region_entries.items():
            region = regions.get(key)
            if region is None:
                region = regions[key] = RegionProfile(key[0], key[1])
            region.entries = count
    return Profile(
        owners=owners,
        by_kind=by_kind,
        regions=regions,
        op_counts=dict(op_counts or {}),
        total_cycles=sum(c for c, _ in owners.values()),
    )


def profile_result(result) -> Profile:
    """Profile a :class:`~repro.runtime.engine.RunResult`."""
    return profile_owner_cells(
        result.cycles_by_owner, result.instrs_by_owner,
        op_counts=result.op_counts,
        region_entries=getattr(result, "region_entries", None))


def format_profile(profile: Profile, top_owners: int = 12) -> str:
    """Text rendering: kind totals, region table, hottest owners."""
    lines = ["simulated-cycle profile (total %d cycles)"
             % profile.total_cycles,
             "", "%-12s %14s %12s %7s" % ("kind", "cycles", "instrs",
                                          "share")]
    total = max(1, profile.total_cycles)
    for kind in KIND_ORDER:
        if kind not in profile.by_kind:
            continue
        cycles, instrs = profile.by_kind[kind]
        lines.append("%-12s %14d %12d %6.1f%%"
                     % (kind, cycles, instrs, 100.0 * cycles / total))
    if profile.regions:
        lines.append("")
        lines.append("%-24s %9s %12s %10s %10s %10s %12s"
                     % ("region", "entries", "stitched", "dispatch",
                        "setup", "stitcher", "cyc/entry"))
        for key in sorted(profile.regions):
            region = profile.regions[key]
            per_entry = region.per_entry_cycles
            lines.append(
                "%-24s %9s %12d %10d %10d %10d %12s"
                % ("%s:%d" % key,
                   region.entries if region.entries is not None else "-",
                   region.cycles("stitched"), region.cycles("dispatch"),
                   region.cycles("setup"), region.cycles("stitcher"),
                   "%.1f" % per_entry if per_entry is not None else "-"))
    hot = sorted(profile.owners.items(), key=lambda kv: -kv[1][0])
    lines.append("")
    lines.append("hottest owners:")
    for owner, (cycles, instrs) in hot[:top_owners]:
        lines.append("  %-32s %12d cycles %10d instrs"
                     % (owner, cycles, instrs))
    return "\n".join(lines)
