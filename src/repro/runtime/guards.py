"""Resource guards for the dynamic-compilation tier.

Two guard families keep a misbehaving region from taking the process
down (see ``docs/ROBUSTNESS.md``):

* :class:`StitchBudget` -- per-stitch ceilings on emitted words,
  unrolled loop iterations and simulated stitch cycles.  The stitcher
  checks them as it works and aborts with
  :class:`repro.errors.StitchBudgetExceeded`; the engine turns the
  abort into a fallback transfer, charging the partially spent
  stitcher cycles so break-even economics stay honest.

* :class:`RegionBreaker` -- a per-region circuit breaker.  After
  ``threshold`` consecutive stitch failures the region is pinned to
  the static fallback for ``backoff`` region entries; each re-trip
  while the streak is unbroken doubles the cooldown (exponential
  backoff measured in region-entry counts, the only clock the
  simulated runtime has) up to ``max_cooldown``, optionally spread by
  :func:`seeded_jitter`.  One success fully resets the breaker.
  Trips and resets are ``breaker.*`` events in the run's log.

:func:`seeded_jitter` is the deterministic jitter source shared by
the breaker and the async stitch queue's retry backoff (see
``repro.runtime.stitchqueue``): a stable hash, never host randomness,
so jittered schedules replay bit-identically from their seed.

Both are pure host-side bookkeeping: with no failures they never
change a simulated cycle or address, so faults-disabled runs stay
bit-identical to the seed goldens.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional

from .runlog import RunLog


def seeded_jitter(seed: int, token, spread: int) -> int:
    """Deterministic jitter in ``[0, spread]``.

    A stable CRC32 of ``(seed, token)`` -- not ``hash()``, which is
    salted per process, and not ``random``, which would entangle
    schedules that must stay independent.  ``token`` is any repr-able
    discriminator (region, key, attempt number...); ``spread <= 0``
    disables jitter entirely.
    """
    if spread <= 0:
        return 0
    digest = zlib.crc32(repr((seed, token)).encode("utf-8"))
    return digest % (spread + 1)


@dataclass(frozen=True)
class StitchBudget:
    """Per-stitch resource ceilings; ``None`` disables a knob."""

    #: max code words a single stitch may emit.
    max_words: Optional[int] = None
    #: max loop-record unrolled iterations a single stitch may follow.
    max_unroll: Optional[int] = None
    #: max simulated stitcher cycles a single stitch may spend.
    max_cycles: Optional[int] = None

    def enabled(self) -> bool:
        return (self.max_words is not None or self.max_unroll is not None
                or self.max_cycles is not None)


@dataclass(frozen=True)
class BreakerConfig:
    """Circuit-breaker tuning shared by every region of a program."""

    #: consecutive stitch failures before the region is pinned static.
    threshold: int = 3
    #: base cooldown, in region entries; doubles per re-trip.
    backoff: int = 8
    #: cooldown ceiling, in region entries: unbounded doubling would
    #: pin a long-running region's breaker far past any plausible
    #: recovery window, so growth saturates here.
    max_cooldown: int = 1024
    #: max seeded jitter entries added per trip (0 -- the default --
    #: keeps historical schedules bit-identical).
    jitter: int = 0
    #: seed for the trip-jitter hash (shared hook with the stitch
    #: queue's retry backoff).
    jitter_seed: int = 0


class RegionBreaker:
    """Per-region failure streak + exponential-backoff cooldown.

    States: *closed* (stitching allowed), *open* (``cooldown`` > 0,
    entries served by fallback), *half-open* (cooldown expired but the
    trip streak is unbroken: one probe stitch is allowed, and a single
    failure re-trips at double the previous cooldown).
    """

    def __init__(self, config: BreakerConfig, func: str, region_id: int,
                 log: Optional[RunLog] = None):
        self.config = config
        self.func = func
        self.region_id = region_id
        self.region = (func, region_id)
        #: the run's log, which records trips and resets.
        self.log = log if log is not None else RunLog()
        #: consecutive failures since the last success.
        self.consecutive = 0
        #: region entries left before stitching may be retried.
        self.cooldown = 0
        #: cumulative trips over the program run (seeds the jitter).
        self.trips = 0
        #: trips in the current unbroken failure streak (drives backoff).
        self._streak_trips = 0

    @property
    def resets(self) -> int:
        """Times a success closed a previously tripped breaker."""
        return self.log.count("breaker.reset", self.region)

    def should_attempt(self) -> bool:
        return self.cooldown == 0

    def on_entry_while_open(self) -> None:
        """A region entry served by fallback while the breaker is open."""
        if self.cooldown > 0:
            self.cooldown -= 1

    def on_failure(self) -> None:
        self.consecutive += 1
        half_open_refail = self._streak_trips > 0
        if self.consecutive >= self.config.threshold or half_open_refail:
            self._streak_trips += 1
            self.trips += 1
            cooldown = self.config.backoff * (1 << (self._streak_trips - 1))
            cooldown = min(cooldown, self.config.max_cooldown)
            cooldown += seeded_jitter(
                self.config.jitter_seed,
                (self.func, self.region_id, self.trips),
                self.config.jitter)
            self.cooldown = cooldown
            self.consecutive = 0
            self.log.event("breaker.trip", self.region,
                           cooldown=self.cooldown, streak=self._streak_trips)

    def on_success(self) -> None:
        self.consecutive = 0
        if self._streak_trips:
            self._streak_trips = 0
            self.log.event("breaker.reset", self.region)

    def snapshot(self) -> dict:
        """Trips and resets counted from the log, plus the state."""
        return {"trips": self.log.count("breaker.trip", self.region),
                "resets": self.resets, "cooldown": self.cooldown,
                "consecutive": self.consecutive}
