"""One run's log: every region entry and every runtime event, once.

Each record is appended by the component that causes it; the run's
statistics count the records, and while metrics are enabled or a
tracer is installed each also goes through :mod:`repro.obs.sink`.
See ``docs/INTERNALS.md`` (8c).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from ..obs import timeseries as obs_ts
from ..obs import trace as obs_trace
from ..obs.metrics import registry as obs_metrics
from ..obs.sink import SINK

RegionId = Tuple[str, int]


class RunEvent(NamedTuple):
    """One runtime event; :data:`repro.obs.sink.EVENTS` lists the kinds."""

    kind: str
    #: index of the region entry being served (logged after the event).
    entry: int
    #: simulated cycles when the event was logged (never host time).
    cycle: int
    region: Optional[RegionId]
    key: Optional[tuple]
    args: Dict[str, object]


class RunLog:
    """The entry log and the event log of one run, and their writer."""

    def __init__(self, vm=None):
        #: the VM whose cycle counter stamps each event (None: 0).
        self.vm = vm
        self.entries: List = []
        self.events: List[RunEvent] = []
        #: kind -> that kind's events, in order (what the views count).
        self._kinds: Dict[str, List[RunEvent]] = {}

    def entry(self, event) -> int:
        """Log a region entry; returns the pc the glue jumps to."""
        self.entries.append(event)
        if obs_metrics._enabled or obs_trace._current is not None:
            SINK.entry(event)
        if obs_ts._current is not None:
            obs_ts._current.on_entry(self.vm)
        return event.entry

    def event(self, kind: str, region: Optional[RegionId] = None,
              key: Optional[tuple] = None, **args) -> None:
        vm = self.vm
        record = RunEvent(kind, len(self.entries),
                          vm.cycles if vm is not None else 0,
                          region, key, args)
        self.events.append(record)
        self._kinds.setdefault(kind, []).append(record)
        if obs_metrics._enabled or obs_trace._current is not None:
            SINK.event(record)

    def finish(self, result) -> None:
        """The run's result is built: take a final sample (so short runs
        still record a point), then report its run-level metrics."""
        if obs_ts._current is not None:
            obs_ts._current.sample(result.cycles)
        if obs_metrics._enabled:
            SINK.run(result)

    def of_kind(self, kind: str) -> List[RunEvent]:
        return self._kinds.get(kind, [])

    def count(self, kind: str, region: Optional[RegionId] = None) -> int:
        events = self.of_kind(kind)
        if region is None:
            return len(events)
        return sum(1 for event in events if event.region == region)
