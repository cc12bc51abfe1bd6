"""Process-wide metrics registry: counters, gauges, histograms.

Zero-dependency, inspired by the Prometheus client model but built for
a simulator: instruments are cheap Python objects registered by name in
a process-wide :data:`registry`, and *every* mutating operation first
checks one plain attribute (``registry._enabled``), so the disabled
path costs a single attribute load and branch -- no dict lookups, no
allocation.  The registry ships disabled; ``repro.obs.enable_metrics``
(or ``MetricsRegistry.enable``) turns collection on.

Instrument naming convention: dot-separated, lowercase,
``<component>.<thing>[.<detail>]`` -- e.g. ``stitch.instrs_emitted``,
``cache.hits``, ``opt.fold.rewrites``.  The full inventory of metric
names emitted by the pipeline hooks lives in docs/OBSERVABILITY.md.

Labels: every instrument can be split into child series with
``labels(region=..., tier=..., policy=..., owner=...)``.  A label set
is frozen at creation (sorted ``(key, str(value))`` pairs); calling
``labels()`` with no arguments returns the parent itself, so the
unlabeled API is the empty label set.  Counter and histogram children
aggregate into their parent (the parent stays the total across all
label sets, which keeps every pre-label consumer working); gauge
children are independent (summing last-set values is meaningless).

Observer-effect contract: metrics (like tracing) live entirely on the
host side.  Enabling or disabling them never changes simulated cycles,
stitch reports, or any other VM observable -- the parity tests enforce
this bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]

LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds.  Powers of 4 cover cycle-ish
#: magnitudes from single instructions to whole-region stitches; the
#: leading 0 is an underflow bucket so zero/negative observations don't
#: masquerade as single-cycle ones.
DEFAULT_BUCKETS = (0, 1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144)


class MetricError(Exception):
    """Instrument re-registered with a different type, or bad buckets."""


def _label_key(kv: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in kv.items()))


def format_labels(labelset: LabelKey) -> str:
    """``{k="v",...}`` rendering (empty string for the empty set)."""
    if not labelset:
        return ""
    return "{%s}" % ",".join('%s="%s"' % (k, v) for k, v in labelset)


class _LabeledMixin:
    """Shared child-series bookkeeping.

    Children live only on the parent (the instrument registered by
    name); a child's ``labelset`` is its frozen identity and its
    ``_parent`` points back.  ``labels()`` on a child is an error --
    nesting would silently split a series.
    """

    __slots__ = ()

    def labels(self, **kv):
        if not kv:
            return self
        if self._parent is not None:
            raise MetricError(
                "metric %s%s: labels() on a labeled child"
                % (self.name, format_labels(self.labelset)))
        key = _label_key(kv)
        children = self._children
        if children is None:
            children = self._children = {}
        child = children.get(key)
        if child is None:
            child = self._make_child(key)
            children[key] = child
        return child

    def _series_snapshots(self) -> Optional[List[Dict[str, object]]]:
        if not self._children:
            return None
        out = []
        for key in sorted(self._children):
            child = self._children[key]
            data = child.snapshot()
            data["labels"] = dict(key)
            out.append(data)
        return out

    def _reset_children(self) -> None:
        if self._children:
            for child in self._children.values():
                child.reset()


class Counter(_LabeledMixin):
    """Monotonically increasing count.  ``inc`` is a no-op while the
    owning registry is disabled."""

    __slots__ = ("name", "help", "_registry", "value", "labelset",
                 "_parent", "_children")

    kind = "counter"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 help: str = "", labelset: LabelKey = (),
                 parent: Optional["Counter"] = None):
        self._registry = registry
        self.name = name
        self.help = help
        self.value = 0
        self.labelset = labelset
        self._parent = parent
        self._children: Optional[Dict[LabelKey, "Counter"]] = None

    def _make_child(self, key: LabelKey) -> "Counter":
        return Counter(self._registry, self.name, help=self.help,
                       labelset=key, parent=self)

    def inc(self, amount: Number = 1) -> None:
        if not self._registry._enabled:
            return
        if amount < 0:
            raise MetricError("counter %s cannot decrease" % self.name)
        self.value += amount
        parent = self._parent
        if parent is not None:
            parent.value += amount

    def snapshot(self) -> Dict[str, object]:
        data: Dict[str, object] = {"type": "counter", "value": self.value}
        series = self._series_snapshots()
        if series is not None:
            data["series"] = series
        return data

    def reset(self) -> None:
        self.value = 0
        self._reset_children()


class Gauge(_LabeledMixin):
    """A value that can go up and down (e.g. code-cache population).

    Gauge children are independent of the parent: the parent keeps
    whatever was last ``set``/``add``-ed on it directly.
    """

    __slots__ = ("name", "help", "_registry", "value", "labelset",
                 "_parent", "_children")

    kind = "gauge"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 help: str = "", labelset: LabelKey = (),
                 parent: Optional["Gauge"] = None):
        self._registry = registry
        self.name = name
        self.help = help
        self.value = 0
        self.labelset = labelset
        self._parent = parent
        self._children: Optional[Dict[LabelKey, "Gauge"]] = None

    def _make_child(self, key: LabelKey) -> "Gauge":
        return Gauge(self._registry, self.name, help=self.help,
                     labelset=key, parent=self)

    def set(self, value: Number) -> None:
        if not self._registry._enabled:
            return
        self.value = value

    def add(self, amount: Number) -> None:
        if not self._registry._enabled:
            return
        self.value += amount

    def snapshot(self) -> Dict[str, object]:
        data: Dict[str, object] = {"type": "gauge", "value": self.value}
        series = self._series_snapshots()
        if series is not None:
            data["series"] = series
        return data

    def reset(self) -> None:
        self.value = 0
        self._reset_children()


class Histogram(_LabeledMixin):
    """Distribution summary: count / sum / min / max plus cumulative
    bucket counts (``le`` upper bounds, +Inf implicit).  Labeled
    children aggregate into the parent, so the parent remains the
    all-series distribution."""

    __slots__ = ("name", "help", "_registry", "buckets", "bucket_counts",
                 "count", "sum", "min", "max", "labelset", "_parent",
                 "_children")

    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 help: str = "",
                 buckets: Sequence[Number] = DEFAULT_BUCKETS,
                 labelset: LabelKey = (),
                 parent: Optional["Histogram"] = None):
        bounds = tuple(buckets)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise MetricError(
                "histogram %s buckets must be strictly increasing" % name)
        self._registry = registry
        self.name = name
        self.help = help
        self.buckets = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # trailing +Inf
        self.count = 0
        self.sum = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None
        self.labelset = labelset
        self._parent = parent
        self._children: Optional[Dict[LabelKey, "Histogram"]] = None

    def _make_child(self, key: LabelKey) -> "Histogram":
        return Histogram(self._registry, self.name, help=self.help,
                         buckets=self.buckets, labelset=key, parent=self)

    def _record(self, value: Number) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def observe(self, value: Number) -> None:
        if not self._registry._enabled:
            return
        self._record(value)
        parent = self._parent
        if parent is not None:
            parent._record(value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": {("le_%g" % b): c for b, c in
                        zip(self.buckets, self.bucket_counts)},
            "inf": self.bucket_counts[-1],
        }
        series = self._series_snapshots()
        if series is not None:
            data["series"] = series
        return data

    def reset(self) -> None:
        self.count = 0
        self.sum = 0
        self.min = None
        self.max = None
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self._reset_children()


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Names -> instruments; disabled (free) until :meth:`enable`.

    Instruments are created on first request and returned on every
    subsequent one; requesting an existing name as a different kind is
    an error (it would silently split a metric).  Creation works while
    disabled -- call sites can cache instruments at import time -- and
    updates start flowing the moment the registry is enabled.
    """

    def __init__(self) -> None:
        self._enabled = False
        self._instruments: Dict[str, Instrument] = {}

    # -- lifecycle ---------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def reset(self) -> None:
        """Zero every instrument, labeled children included
        (registration is kept)."""
        for instrument in self._instruments.values():
            instrument.reset()

    def clear(self) -> None:
        """Drop every instrument (tests).  A new dict, so a holder of
        instruments can tell they are gone (see repro.obs.sink)."""
        self._instruments = {}

    # -- instrument accessors ----------------------------------------------

    def _get(self, name: str, kind: type, **kwargs) -> Instrument:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(self, name, **kwargs)
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise MetricError(
                "metric %r already registered as %s, not %s"
                % (name, instrument.kind, kind.kind))
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, help=help)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[Number] = DEFAULT_BUCKETS) -> Histogram:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = Histogram(self, name, help=help, buckets=buckets)
            self._instruments[name] = instrument
        elif not isinstance(instrument, Histogram):
            raise MetricError(
                "metric %r already registered as %s, not histogram"
                % (name, instrument.kind))
        return instrument

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Point-in-time values of every registered instrument."""
        return {name: inst.snapshot()
                for name, inst in sorted(self._instruments.items())}

    def instruments(self) -> List[Instrument]:
        """Every parent instrument, name-sorted (samplers iterate this)."""
        return [self._instruments[name] for name in sorted(self._instruments)]

    def names(self) -> List[str]:
        return sorted(self._instruments)


def _format_series_labels(labels: Dict[str, str]) -> str:
    return format_labels(tuple(sorted(labels.items())))


def format_snapshot(snap: Dict[str, Dict[str, object]]) -> str:
    """Human-readable one-line-per-metric rendering of a snapshot.

    Deterministic: metric names sort lexicographically and labeled
    series sort by their (already-sorted) label pairs under the parent
    total.
    """
    lines = []

    def emit(name: str, data: Dict[str, object]) -> None:
        if data["type"] == "histogram":
            lines.append(
                "%-40s count=%d sum=%s min=%s max=%s"
                % (name, data["count"], data["sum"], data["min"],
                   data["max"]))
        else:
            lines.append("%-40s %s" % (name, data["value"]))

    for name, data in sorted(snap.items()):
        emit(name, data)
        for series in data.get("series", ()):
            emit(name + _format_series_labels(series["labels"]), series)
    return "\n".join(lines)


#: The process-wide registry every pipeline hook reports into.
registry = MetricsRegistry()
