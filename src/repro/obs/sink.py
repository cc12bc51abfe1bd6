"""The one table from a run's records to metrics and trace instants.

:data:`ENTRIES` maps each region-entry kind, and :data:`EVENTS` each
runtime-event kind (:mod:`repro.runtime.runlog`), to its metric
updates and trace instants; :data:`RUN` and :data:`OWNER` are what a
finished run adds.  A run's log feeds its records to a :class:`Sink`
while metrics are enabled or a tracer is installed; :func:`replay`
feeds a finished result's records through the same table.

The table reads a record's *fields*: for an entry ``region``
(``"func:id"``), ``key`` (a list), ``entry``, ``reason``,
``injected`` and ``count``, and its stitch report's attributes as
update values; for an event its ``region`` and ``key`` (when it has
them) and ``args``.  A metric name may embed a field as ``<field>``.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, NamedTuple, Optional, Tuple

from . import trace as obs_trace
from .metrics import MetricsRegistry, registry


class Update(NamedTuple):
    """A ``counter`` adds, a ``gauge`` sets, a ``histogram`` observes
    field ``value`` (None: 1) on the series of the (label, field)
    pairs ``labels``, if field ``when`` (when given) is true."""

    type: str
    metric: str
    labels: Tuple[Tuple[str, str], ...] = ()
    value: Optional[str] = None
    when: Optional[str] = None


def _update(type: str, metric: str, value: Optional[str] = None,
            when: Optional[str] = None, **labels: str) -> Update:
    return Update(type, metric, tuple(sorted(labels.items())), value, when)


counter, gauge, histogram = (partial(_update, type) for type in
                             ("counter", "gauge", "histogram"))

_ENTRY = counter("region.entries", region="region")
_MISS = counter("cache.misses", region="region")
_MISSED = ("cache.miss", "runtime", ("region", "key"))

#: entry kind -> (metric updates, (instant name, category, fields)...).
#: Every kind but ``hit`` is a code-cache miss.
ENTRIES = {
    "hit": ((_ENTRY, counter("cache.hits", region="region")),
            (("cache.hit", "runtime", ("region", "key", "entry")),)),
    "stitch": ((_ENTRY, _MISS, counter("stitch.count", region="region"),
                counter("stitch.instrs_emitted", "instrs_emitted"),
                counter("stitch.holes_patched", "holes_patched"),
                counter("stitch.pool_entries", "pool_entries"),
                histogram("stitch.cycles", "cycles", region="region")),
               (_MISSED,)),
    "fallback": ((_ENTRY, _MISS, counter("fallback.<reason>"),
                  counter("fallback.count", region="region",
                          reason="reason")),
                 (_MISSED, ("region.fallback", "runtime",
                            ("region", "reason", "injected", "entry")))),
    "cold": ((_ENTRY, _MISS, counter("tier.cold", region="region",
                                     tier="reason")),
             (_MISSED, ("tier.cold", "runtime", ("region", "key", "count")))),
    "queued": ((_ENTRY, _MISS, counter("stitchq.entries", phase="reason")),
               (_MISSED,)),
}

_POPULATION = (gauge("cache.entries", "entries"),
               gauge("cache.code_words", "code_words"))
_DEPTH = gauge("stitchq.depth", "depth")

#: event kind -> metric updates.  Each event is also a trace instant
#: named after its kind, in the category :data:`CATEGORIES` gives the
#: kind's first part (``runtime`` otherwise).
EVENTS = {
    # the code cache
    "cache.install": _POPULATION,
    "cache.evict": (counter("cache.evictions", region="region",
                            policy="policy"),),
    "cache.compact": (counter("cache.compactions"),),
    "cache.invalidate": (counter("cache.invalidations"),) + _POPULATION,
    "cache.revive": (counter("cache.revivals"),),
    "cache.restitch": (counter("cache.restitches"),),
    "cache.checksum_fail": (counter("cache.checksum_failures"),) + _POPULATION,
    # adaptive tiering
    "tier.promote": (counter("tier.promotions", region="region",
                             tier="tier"),
                     counter("tier.speculative_promotions",
                             when="speculative")),
    "tier.demote": (counter("tier.demotions", region="region",
                            tier="tier"),),
    "tier.speculate": (counter("tier.speculative_marks"),),
    "tier.flip": (),
    # circuit breakers
    "breaker.trip": (counter("breaker.trips", region="region"),),
    "breaker.reset": (counter("breaker.resets", region="region"),),
    # the fallback tier
    "fallback.build": (counter("fallback.builds", region="region"),
                       histogram("fallback.code_words", "words")),
    # the async stitch queue
    "stitch.enqueue": (counter("stitchq.enqueue"), _DEPTH),
    "stitch.shed": (counter("stitchq.shed"),),
    "stitch.land": (counter("stitchq.land"),
                    counter("stitchq.latency_entries", "latency"), _DEPTH),
    "stitch.deadline": (counter("stitchq.deadline"), _DEPTH),
    "stitch.cancel": (counter("stitchq.cancel"), _DEPTH),
    "stitch.retry": (counter("stitchq.retry"),),
    "stitch.hang": (counter("stitchq.hang"),),
    "stitch.drain": (),
    # fault injection
    "fault.inject": (counter("fault.injected", site="site"),
                     counter("fault.injected.<site>")),
}
CATEGORIES = {"breaker": "robustness", "fault": "faults"}

#: a finished run, once (field ``cycles``) and per cycle owner (fields
#: ``owner``, the owner tag's class such as ``stitched``, and ``cycles``).
RUN = (counter("vm.runs"), counter("vm.cycles", "cycles"))
OWNER = (counter("vm.owner_cycles", "cycles", owner="owner"),)


_ACTIONS = {"counter": "inc", "gauge": "set", "histogram": "observe"}


class Sink:
    """Applies the table: updates into ``registry`` while it is enabled,
    instants into the installed tracer when ``tracing``."""

    def __init__(self, registry: MetricsRegistry, tracing: bool = True):
        self.registry = registry
        self.tracing = tracing
        #: (update id, name, label values) -> the series' update method,
        #: and (kind, func, region id, reason) -> an entry's methods, so
        #: an entry costs one dict probe; kept while the registry keeps
        #: its instruments (a reset does, a clear does not).
        self._methods: Dict[tuple, object] = {}
        self._entries: Dict[tuple, list] = {}
        self._instruments = registry._instruments

    def _enabled(self) -> bool:
        if self.registry._instruments is not self._instruments:
            self._methods.clear()
            self._entries.clear()
            self._instruments = self.registry._instruments
        return self.registry._enabled

    def entry(self, event) -> None:
        fields = None
        if self._enabled():
            shape = (event.kind, event.func_name, event.region_id,
                     event.reason)
            updates = self._entries.get(shape)
            if updates is None:
                fields = _entry_fields(event)
                updates = self._entries[shape] = self._resolve(
                    ENTRIES[event.kind][0], fields)
            for method, value in updates:  # values: report attributes
                method(1 if value is None else getattr(event.report, value))
        tracer = obs_trace._current if self.tracing else None
        if tracer is not None:
            fields = fields or _entry_fields(event)
            for name, cat, args in ENTRIES[event.kind][1]:
                tracer.instant(name, cat, **{a: fields[a] for a in args})

    def event(self, event) -> None:
        fields: Dict[str, object] = {}
        if event.region is not None:
            fields["region"] = "%s:%d" % event.region
        if event.key is not None:
            fields["key"] = list(event.key)
        fields.update(event.args)
        self._apply(EVENTS[event.kind], fields)
        tracer = obs_trace._current if self.tracing else None
        if tracer is not None:
            tracer.instant(event.kind, CATEGORIES.get(
                event.kind.partition(".")[0], "runtime"), **fields)

    def run(self, result) -> None:
        self._apply(RUN, {"cycles": result.cycles})
        for owner, cycles in result.cycles_by_owner.items():
            self._apply(OWNER, {"owner": owner.split(":", 1)[0],
                                 "cycles": cycles})

    def _apply(self, updates, fields: Dict[str, object]) -> None:
        if self._enabled():
            for method, value in self._resolve(updates, fields):
                method(1 if value is None else fields[value])

    def _resolve(self, updates, fields: Dict[str, object]) -> list:
        """(update method, value field) per update that applies."""
        resolved = []
        for update in updates:
            if update.when is not None and not fields[update.when]:
                continue
            name = update.metric
            if "<" in name:
                head, _, tail = name.partition("<")
                name = head + str(fields[tail[:-1]])
            labels = tuple(fields[field] for _, field in update.labels)
            memo = (id(update), name, labels)
            method = self._methods.get(memo)
            if method is None:
                series = getattr(self.registry, update.type)(name).labels(
                    **{label: value for (label, _), value
                       in zip(update.labels, labels)})
                method = self._methods[memo] = getattr(
                    series, _ACTIONS[update.type])
            resolved.append((method, update.value))
        return resolved


def _entry_fields(event) -> Dict[str, object]:
    fields = event._asdict()
    fields.update(region="%s:%d" % (event.func_name, event.region_id),
                  key=list(event.key))
    return fields


#: the sink of the process-wide registry, which every run's log feeds.
SINK = Sink(registry)


def replay(result) -> MetricsRegistry:
    """A fresh registry holding what ``result``'s records report, fed
    in the order the run logged them (an entry sorts at its index + 0.5,
    after the events stamped with it), then the run itself.  Emits no
    trace instants."""
    scratch = MetricsRegistry()
    scratch.enable()
    sink = Sink(scratch, tracing=False)
    records = [(event.entry, sink.event, event) for event in result.events]
    records += [(index + 0.5, sink.entry, entry)
                for index, entry in enumerate(result.entries)]
    for _, feed, record in sorted(records, key=lambda item: item[0]):
        feed(record)
    sink.run(result)
    return scratch
