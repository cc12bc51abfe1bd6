"""Deterministic time-series sampling of the metrics registry.

A :class:`TimeSeriesSampler` snapshots every registered instrument
(parents and labeled children) into fixed-capacity ring buffers, on
*logical* clocks only -- every N region entries and/or every M
simulated cycles, never host wall-clock -- so two runs of the same
program produce bit-identical series and goldens/fuzz replays stay
reproducible.

Hook sites: a run's log (:mod:`repro.runtime.runlog`) calls
:func:`on_entry` after logging each region entry, through the
module-level ``_current`` global (one global load + one ``is None``
branch while no sampler is installed, mirroring the tracer), and takes
a final sample when the run ends so short runs still record a point.

Each sample point is ``(entries, cycles, value)`` where ``entries`` is
the sampler's region-entry clock and ``cycles`` the VM's simulated
cycle counter at the sample instant.  From the raw series the sampler
derives rates and ratios between consecutive samples: cache hit ratio,
promotion rate, fallback ratio, evictions per kilocycle, and the
stitch queue's mean entries-to-land latency.

When a tracer is installed each sample additionally emits Perfetto
counter tracks (``ph: "C"``, category ``telemetry``) into the Chrome
trace stream, so series render next to spans in ui.perfetto.dev.

Observer-effect contract: sampling reads VM state (the live cycle
counter) but never writes it; a sampled run produces bit-identical
simulated observables (tests/test_obs_parity.py).
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from . import metrics as obs_metrics
from . import trace as obs_trace
from .metrics import Histogram, LabelKey, format_labels

#: Default logical-clock period: one sample every 64 region entries.
DEFAULT_EVERY_ENTRIES = 64

#: Default ring-buffer capacity (samples kept per series).
DEFAULT_CAPACITY = 256

SeriesKey = Tuple[str, LabelKey]

#: Derived series: (name, numerator counter, denominator); a point is
#: the numerator's delta over a window divided by the denominator's --
#: another counter's (``entries_to_land``: entries a landed job waited),
#: the numerator plus ``+NAME``'s (a share), or ``cycles`` (per
#: kilocycle).
_DERIVED = (
    ("cache.hit_ratio", "cache.hits", "+cache.misses"),
    ("tier.promotion_rate", "tier.promotions", "region.entries"),
    ("fallback.ratio", "fallback.count", "region.entries"),
    ("stitchq.entries_to_land", "stitchq.latency_entries",
     "stitchq.landed"),
    ("cache.evictions_per_kcycle", "cache.evictions", "cycles"),
)


class TimeSeriesSampler:
    """Ring-buffered sampler over a :class:`MetricsRegistry`.

    ``every_entries`` / ``every_cycles`` are the logical-clock periods
    (either may be None to disable that clock; both set means
    whichever fires first).  ``capacity`` bounds each series ring.
    """

    def __init__(self,
                 every_entries: Optional[int] = DEFAULT_EVERY_ENTRIES,
                 every_cycles: Optional[int] = None,
                 capacity: int = DEFAULT_CAPACITY,
                 registry: Optional[obs_metrics.MetricsRegistry] = None):
        if every_entries is None and every_cycles is None:
            raise ValueError("sampler needs at least one logical clock")
        if capacity < 2:
            raise ValueError("capacity must be >= 2 (deltas need 2 points)")
        self.every_entries = every_entries
        self.every_cycles = every_cycles
        self.capacity = capacity
        self.registry = registry if registry is not None \
            else obs_metrics.registry
        self.entries = 0          # region-entry logical clock
        self.samples = 0          # total samples taken
        self.last_cycles = 0      # cycle clock at the latest sample
        self._last_entries = 0
        self._last_sample_cycles = 0
        self._series: Dict[SeriesKey, Dict[str, object]] = {}

    # -- hot path ----------------------------------------------------------

    def on_entry(self, vm) -> None:
        """Called from the region-entry hook; samples when a logical
        clock period has elapsed."""
        self.entries += 1
        if (self.every_entries is not None
                and self.entries - self._last_entries >= self.every_entries):
            self.sample(vm.cycles)
            return
        if self.every_cycles is not None:
            cycles = vm.cycles
            if cycles - self._last_sample_cycles >= self.every_cycles:
                self.sample(cycles)

    # -- sampling ----------------------------------------------------------

    def _bucket(self, name: str, labelset: LabelKey,
                kind: str) -> "deque":
        key = (name, labelset)
        entry = self._series.get(key)
        if entry is None:
            entry = {"kind": kind,
                     "points": deque(maxlen=self.capacity)}
            self._series[key] = entry
        return entry["points"]  # type: ignore[return-value]

    def sample(self, cycles: int) -> None:
        """Record one point per live series at logical time
        ``(self.entries, cycles)``."""
        self._last_entries = self.entries
        self._last_sample_cycles = cycles
        self.last_cycles = cycles
        self.samples += 1
        point_clock = (self.entries, cycles)
        tracer = obs_trace._current
        for inst in self.registry.instruments():
            self._sample_instrument(inst, point_clock, tracer)
            if inst._children:
                for key in sorted(inst._children):
                    self._sample_instrument(inst._children[key],
                                            point_clock, tracer)

    def _sample_instrument(self, inst, clock: Tuple[int, int],
                           tracer) -> None:
        entries, cycles = clock
        if isinstance(inst, Histogram):
            self._bucket(inst.name, inst.labelset,
                         "histogram_count").append(
                (entries, cycles, inst.count))
            return
        value = inst.value
        self._bucket(inst.name, inst.labelset, inst.kind).append(
            (entries, cycles, value))
        if tracer is not None:
            tracer.counter(inst.name + format_labels(inst.labelset),
                           value=value)

    # -- reading -----------------------------------------------------------

    def series(self) -> List[Dict[str, object]]:
        """All raw series, deterministically ordered, points oldest
        first."""
        out = []
        for (name, labelset) in sorted(self._series):
            entry = self._series[(name, labelset)]
            out.append({
                "name": name,
                "labels": dict(labelset),
                "kind": entry["kind"],
                "points": [list(p) for p in entry["points"]],
            })
        return out

    def _points(self, name: str) -> Dict[int, float]:
        """Entry-clock -> value of the unlabeled series ``name``."""
        entry = self._series.get((name, ()))
        return {e: v for (e, _c, v) in entry["points"]} if entry else {}

    def _clocks(self) -> List[Tuple[int, int]]:
        clocks = set()
        for entry in self._series.values():
            for (e, c, _v) in entry["points"]:
                clocks.add((e, c))
        return sorted(clocks)

    def derived(self) -> List[Dict[str, object]]:
        """Rates/ratios between consecutive samples.

        A series absent at some clock counts as 0 there (counters are
        born at zero); a window with a zero denominator contributes no
        point.
        """
        clocks = self._clocks()
        out = []
        for name, num, den in _DERIVED:
            nums = self._points(num)
            dens = self._points(den.lstrip("+"))
            points = []
            for (e0, c0), (e1, c1) in zip(clocks, clocks[1:]):
                dn = nums.get(e1, 0) - nums.get(e0, 0)
                if den == "cycles":
                    dd, scale = c1 - c0, 1000.0
                else:
                    dd = dens.get(e1, 0) - dens.get(e0, 0)
                    dd, scale = dd + dn if den[0] == "+" else dd, 1.0
                if dd > 0:
                    points.append([e1, c1, scale * dn / dd])
            if points:
                out.append({"name": name, "labels": {},
                            "kind": "derived", "points": points})
        return out

    def to_json(self) -> Dict[str, object]:
        """The full sampler state as a JSON-serializable document."""
        return {
            "schema": 1,
            "clock": {"entries": self.entries,
                      "cycles": self.last_cycles},
            "samples": self.samples,
            "every_entries": self.every_entries,
            "every_cycles": self.every_cycles,
            "capacity": self.capacity,
            "series": self.series(),
            "derived": self.derived(),
        }


# -- process-wide installation ---------------------------------------------

#: The installed sampler, or None (the common case).  The region-entry
#: hook reads this module attribute directly, mirroring the tracer's
#: one-global-load disabled path.
_current: Optional[TimeSeriesSampler] = None


def current() -> Optional[TimeSeriesSampler]:
    return _current


def install(sampler: Optional[TimeSeriesSampler]) -> None:
    global _current
    _current = sampler


@contextmanager
def sampling(sampler: TimeSeriesSampler):
    """Install ``sampler`` for the duration of the block."""
    previous = _current
    install(sampler)
    try:
        yield sampler
    finally:
        install(previous)
