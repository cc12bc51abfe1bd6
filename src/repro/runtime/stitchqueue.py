"""Deterministic asynchronous stitching: the background job queue.

The paper keeps stitching on the region-entry critical path because it
is cheap; the compilation-as-a-service direction demands the opposite
discipline -- a region entry that misses the code cache *enqueues* a
:class:`StitchJob` and is immediately served by the static fallback
tier, while a background "compile thread" drains the queue.  This
module simulates that pipeline on the VM's logical clocks only
(region entries and simulated cycles -- never wall-clock), so every
schedule is deterministic, replayable, and fuzzable:

* ``enqueue`` admits a job per (region, key) at a priority equal to
  the key's observed hotness; when the queue is full, a colder
  pending job is cancelled as ``shed`` to make room, or else the
  newcomer is refused (admission control, counted in
  ``QueueStats.shed``).
* a drain tick runs every ``drain_entries`` region entries (and/or
  every ``drain_cycles`` simulated cycles).  Each tick first runs the
  **watchdog** -- jobs older than ``deadline_cycles`` simulated cycles
  are expired (the engine turns each expiry into a
  ``RegionBreaker.on_failure``) -- then marks up to ``batch`` pending
  jobs *ready*, hottest first.
* a ready job **lands** at the key's next region entry: the table is
  entry-local, so the stitch must run against the fresh table of an
  actual entry (the same reason tiering promotions land one entry
  late).  The stitch charges the normal ``stitcher:`` owner at
  completion time; entries served from fallback while the job waited
  are logged as ``queued`` entry events.
* a failed landing retries with seeded jittered exponential backoff
  (``backoff_entries * 2**(attempt-1) + jitter`` region entries,
  via :func:`repro.runtime.guards.seeded_jitter`) until ``retries``
  attempts are spent; a region's jobs are cancelled when its table is
  invalidated or its breaker trips.  A job exists only for a key whose
  lookup missed, so no live cache entry ever has a job: the queue pins
  nothing against eviction, and a bounded cache keeps its bound.
* every admitted job leaves the queue through :meth:`StitchQueue.finish`
  with exactly one outcome -- ``landed``, ``expired`` or ``cancelled``.
  Admissions, outcomes, sheds, retries, hangs and drains are
  ``stitch.*`` events in the run's log, which ``QueueStats`` counts.
* two fault sites drive the chaos story: ``queue.drop`` (an enqueue
  silently dropped -- an injected shed) and ``stitch.hang`` (a ready
  job wedges and never lands; only the watchdog can clear it).  Both
  are consulted only by async runs, so configuring them never
  perturbs a sync run's seeded fault schedule.

Sync mode (``StitchQueueConfig.parse("sync")``, the default)
constructs no queue at all, which is what keeps every historical
golden bit-identical.  See ``docs/ROBUSTNESS.md`` ("Async
stitching").
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .guards import seeded_jitter

Key = Tuple
RegionId = Tuple[str, int]

#: Simulated-cycle bookkeeping costs, charged to the ``stitchq:``
#: owner so conservation (sum of owners == total cycles) stays exact.
QUEUE_ENQUEUE_CYCLES = 3
QUEUE_DRAIN_CYCLES = 2


@dataclass
class QueueStats:
    """End-of-run queue accounting, surfaced on ``RunResult``.

    Counts over the run's ``stitch.*`` events, but ``pending`` (jobs
    still queued); the oracle checks ``enqueued == landed + expired +
    sum(cancelled) + pending``.  ``shed`` and ``dropped`` count enqueue
    attempts that never became jobs.
    """

    config: str = "sync"
    enqueued: int = 0
    landed: int = 0
    #: enqueue attempts refused by admission control (injected drops
    #: included).
    shed: int = 0
    #: enqueue attempts eaten by an injected ``queue.drop`` fault.
    dropped: int = 0
    #: jobs expired by the watchdog (deadline exceeded).
    expired: int = 0
    #: cancellation reason -> jobs cancelled (breaker / invalidate /
    #: failed / shed -- a colder job dropped to admit a hotter one).
    cancelled: Dict[str, int] = field(default_factory=dict)
    #: failed landings that were re-queued with backoff.
    retries: int = 0
    #: jobs wedged by an injected ``stitch.hang`` fault.
    hung: int = 0
    #: jobs still queued when the run ended.
    pending: int = 0
    max_depth: int = 0
    drains: int = 0
    #: entries-to-land latency per landed job (enqueue to landing).
    land_latencies: List[int] = field(default_factory=list)

    @property
    def total_cancelled(self) -> int:
        return sum(self.cancelled.values())


@dataclass(frozen=True)
class StitchQueueConfig:
    """Queue tuning; frozen so a parsed spec can be shared freely.

    Spec grammar (parallel to ``TierPolicy``/``CacheConfig``)::

        sync                      -- no queue (the historical engine)
        async                     -- defaults below
        async:depth=4,drain=2,cycles=5000,batch=2,deadline=100000,
              retries=1,backoff=2,jitter=3,seed=7
    """

    mode: str = "sync"
    #: max jobs in the queue; admission control sheds beyond this.
    depth: int = 8
    #: drain tick period in region entries.
    drain_entries: int = 4
    #: optional additional drain trigger in simulated cycles.
    drain_cycles: Optional[int] = None
    #: jobs marked ready per drain tick.
    batch: int = 1
    #: per-job deadline in simulated cycles (watchdog budget).
    deadline_cycles: int = 200_000
    #: failed-landing retries before the job is cancelled.
    retries: int = 2
    #: base retry backoff in region entries; doubles per attempt.
    backoff_entries: int = 4
    #: max seeded jitter entries added to each backoff (0 disables).
    jitter: int = 1
    #: seed for the backoff jitter hash.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("sync", "async"):
            raise ValueError("stitch mode must be 'sync' or 'async', "
                             "not %r" % (self.mode,))
        for name in ("depth", "drain_entries", "batch"):
            if getattr(self, name) < 1:
                raise ValueError("stitch queue %s must be >= 1" % name)
        for name in ("deadline_cycles", "retries", "backoff_entries",
                     "jitter"):
            if getattr(self, name) < 0:
                raise ValueError("stitch queue %s must be >= 0" % name)

    @property
    def asynchronous(self) -> bool:
        return self.mode == "async"

    _FIELDS = {"depth": "depth", "drain": "drain_entries",
               "cycles": "drain_cycles", "batch": "batch",
               "deadline": "deadline_cycles", "retries": "retries",
               "backoff": "backoff_entries", "jitter": "jitter",
               "seed": "seed"}

    @classmethod
    def parse(cls, spec: Optional[Union[str, "StitchQueueConfig"]]
              ) -> "StitchQueueConfig":
        """Parse a spec string; ``None``/``""``/``"off"`` mean sync."""
        if isinstance(spec, cls):
            return spec
        if spec is None:
            return cls()
        text = spec.strip()
        if not text or text in ("sync", "off"):
            return cls()
        mode, _, rest = text.partition(":")
        if mode != "async":
            raise ValueError("unknown stitch mode %r (want sync or "
                             "async[:k=v,...])" % text)
        kwargs: Dict[str, int] = {"mode": "async"}
        for clause in rest.split(","):
            clause = clause.strip()
            if not clause:
                continue
            name, sep, value = clause.partition("=")
            if not sep or name not in cls._FIELDS:
                raise ValueError(
                    "bad stitch queue clause %r (want one of %s)"
                    % (clause, ", ".join(sorted(cls._FIELDS))))
            try:
                kwargs[cls._FIELDS[name]] = int(value)
            except ValueError:
                raise ValueError("bad stitch queue value %r in %r"
                                 % (value, clause))
        return cls(**kwargs)

    def describe(self) -> str:
        """A spec string that parses back to this config."""
        if not self.asynchronous:
            return "sync"
        default = StitchQueueConfig(mode="async")
        parts = []
        for name in ("depth", "drain", "cycles", "batch", "deadline",
                     "retries", "backoff", "jitter", "seed"):
            attr = self._FIELDS[name]
            value = getattr(self, attr)
            if value != getattr(default, attr) and value is not None:
                parts.append("%s=%d" % (name, value))
        return "async:" + ",".join(parts) if parts else "async"


@dataclass
class StitchJob:
    """One queued compilation request for a (region, key)."""

    func_name: str
    region_id: int
    key: Key
    #: hotness at enqueue time (tier count, or the queue's own per-key
    #: counter for eager runs); admission control sheds the coldest.
    priority: int
    #: region-entry clock at enqueue (entries-to-land latency base).
    enqueue_entries: int
    #: simulated-cycle clock at enqueue (deadline base).
    enqueue_cycles: int
    #: admission order; the deterministic tie-break everywhere.
    seq: int
    #: ``pending`` -> ``ready`` while queued; ``hung`` waits for the
    #: watchdog to expire it.
    state: str = "pending"
    #: landing attempts so far (bumped by each failed stitch).
    attempts: int = 0
    #: entry clock before which a backing-off job may not go ready.
    not_before: int = 0

    @property
    def region(self) -> RegionId:
        return (self.func_name, self.region_id)


class StitchQueue:
    """The deterministic background-stitching scheduler for one run."""

    def __init__(self, config: StitchQueueConfig, vm, log, faults=None):
        assert config.asynchronous, "sync runs construct no queue"
        self.config = config
        self.vm = vm
        self.log = log
        self.faults = faults
        self.jobs: Dict[Tuple[str, int, Key], StitchJob] = {}
        #: region-entry clock (every lookup of any region ticks it).
        self.entry_clock = 0
        self._seq = 0
        self._last_drain_cycles = 0
        #: per-key entry counts for eager runs (priority source when no
        #: tier controller tracks hotness).
        self._key_counts: Dict[Tuple[str, int, Key], int] = {}
        #: engine callback: a job exceeded its deadline (watchdog).
        self.on_deadline = None
        #: the job whose stitch is running right now: a cache
        #: invalidation triggered by its own install must not cancel
        #: it out from under the landing.
        self.landing: Optional[StitchJob] = None

    # -- clocks ------------------------------------------------------------

    def on_entry(self) -> None:
        """Tick the logical clock; drain when a tick period elapses."""
        self.entry_clock += 1
        due = self.entry_clock % self.config.drain_entries == 0
        if not due and self.config.drain_cycles:
            due = (self.vm.cycles - self._last_drain_cycles
                   >= self.config.drain_cycles)
        if due and self.jobs:
            self.drain()

    def drain(self) -> None:
        """One background-compiler tick: watchdog, then readiness."""
        self.log.event("stitch.drain")
        self._last_drain_cycles = self.vm.cycles
        self.vm.charge("stitchq:sched", QUEUE_DRAIN_CYCLES)
        deadline = self.config.deadline_cycles
        if deadline:
            for job in [j for j in self.jobs.values()
                        if self.vm.cycles - j.enqueue_cycles > deadline]:
                # The engine turns each expiry into a breaker failure,
                # which may cancel the rest of the region's jobs.
                if self.finish(job, "expired") \
                        and self.on_deadline is not None:
                    self.on_deadline(job)
        ready_slots = self.config.batch
        if not ready_slots:
            return
        eligible = sorted(
            (job for job in self.jobs.values()
             if job.state == "pending"
             and job.not_before <= self.entry_clock),
            key=lambda job: (-job.priority, job.seq))
        for job in eligible[:ready_slots]:
            job.state = "ready"

    # -- admission ---------------------------------------------------------

    def key_count(self, func: str, region_id: int, key: Key) -> int:
        """Bump and return the queue's own hotness counter (used as
        priority when no tier controller is tracking the key)."""
        slot = (func, region_id, key)
        count = self._key_counts.get(slot, 0) + 1
        self._key_counts[slot] = count
        return count

    def get(self, func: str, region_id: int,
            key: Key) -> Optional[StitchJob]:
        return self.jobs.get((func, region_id, key))

    def enqueue(self, func: str, region_id: int, key: Key,
                priority: int) -> str:
        """Admit a job; returns the reason for the ``queued`` entry
        event (``enqueued``, ``shed``, or ``dropped``)."""
        self.vm.charge("stitchq:%s:%d" % (func, region_id),
                       QUEUE_ENQUEUE_CYCLES)
        if self.faults is not None and self.faults.should_fire(
                "queue.drop", region=(func, region_id)):
            self.log.event("stitch.shed", (func, region_id), key,
                           injected=True)
            return "dropped"
        if len(self.jobs) >= self.config.depth:
            victim = min(
                (job for job in self.jobs.values()
                 if job.state == "pending"),
                key=lambda job: (job.priority, -job.seq), default=None)
            if victim is None or victim.priority >= priority:
                # Nothing colder than the newcomer: shed the newcomer.
                self.log.event("stitch.shed", (func, region_id), key,
                               injected=False)
                return "shed"
            self.cancel(victim, "shed")
        job = StitchJob(func, region_id, key, priority,
                        enqueue_entries=self.entry_clock,
                        enqueue_cycles=self.vm.cycles, seq=self._seq)
        self._seq += 1
        self.jobs[(func, region_id, key)] = job
        self.log.event("stitch.enqueue", (func, region_id), key,
                       priority=priority, depth=len(self.jobs))
        return "enqueued"

    # -- leaving the queue -------------------------------------------------

    def finish(self, job: StitchJob, outcome: str,
               reason: str = "") -> bool:
        """Take ``job`` out of the queue with its terminal ``outcome``:
        ``landed`` (its stitch completed at a region entry),
        ``expired`` (the watchdog's deadline passed) or ``cancelled``
        (for ``reason``).  This is the only way a job leaves ``jobs``,
        so every admitted job ends with exactly one outcome.  Returns
        False when the job had already left."""
        if self.jobs.pop((job.func_name, job.region_id, job.key),
                         None) is None:
            return False
        depth = len(self.jobs)
        if outcome == "landed":
            self.log.event("stitch.land", job.region, job.key,
                           latency=self.entry_clock - job.enqueue_entries,
                           attempts=job.attempts, depth=depth)
        elif outcome == "expired":
            self.log.event("stitch.deadline", job.region, job.key,
                           age=self.vm.cycles - job.enqueue_cycles,
                           hung=job.state == "hung", depth=depth)
        else:
            self.log.event("stitch.cancel", job.region, job.key,
                           reason=reason, depth=depth)
        return True

    def on_land_failure(self, job: StitchJob) -> bool:
        """A landing attempt raised; back off and retry, or cancel.

        Returns True when the job stays queued for another attempt.
        """
        job.attempts += 1
        if job.attempts > self.config.retries:
            self.cancel(job, "failed")
            return False
        backoff = self.config.backoff_entries * (1 << (job.attempts - 1))
        backoff += seeded_jitter(
            self.config.seed,
            (job.func_name, job.region_id, job.key, job.attempts),
            self.config.jitter)
        job.state = "pending"
        job.not_before = self.entry_clock + backoff
        self.log.event("stitch.retry", job.region, job.key,
                       attempt=job.attempts, backoff=backoff)
        return True

    def mark_hung(self, job: StitchJob) -> None:
        """An injected ``stitch.hang``: the job wedges until the
        watchdog's deadline clears it."""
        job.state = "hung"
        self.log.event("stitch.hang", job.region, job.key)

    # -- cancellation ------------------------------------------------------

    def cancel(self, job: StitchJob, reason: str) -> None:
        """Cancel a queued job -- unless its stitch is landing now."""
        if job is not self.landing:
            self.finish(job, "cancelled", reason)

    def cancel_region(self, func: str, region_id: int,
                      reason: str) -> None:
        """Cancel every job of a region (breaker trip, table
        invalidation)."""
        for job in [job for job in self.jobs.values()
                    if job.region == (func, region_id)]:
            self.cancel(job, reason)

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> QueueStats:
        """Counts over the run's ``stitch.*`` events, plus the jobs
        still queued."""
        log = self.log
        latencies = [e.args["latency"] for e in log.of_kind("stitch.land")]
        injected = [e.args["injected"] for e in log.of_kind("stitch.shed")]
        return QueueStats(
            config=self.config.describe(),
            enqueued=log.count("stitch.enqueue"), landed=len(latencies),
            shed=len(injected), dropped=sum(injected),
            expired=log.count("stitch.deadline"),
            cancelled=dict(Counter(
                e.args["reason"] for e in log.of_kind("stitch.cancel"))),
            retries=log.count("stitch.retry"),
            hung=log.count("stitch.hang"), pending=len(self.jobs),
            max_depth=max((e.args["depth"]
                           for e in log.of_kind("stitch.enqueue")),
                          default=0),
            drains=log.count("stitch.drain"), land_latencies=latencies)
