"""Adaptive tiering: the break-even model as a control loop.

The paper's Section 5 economics say dynamic compilation only pays when
a region's reuse amortizes the stitch cost -- yet the engine
historically stitched every region eagerly on its first entry.  This
module adds the missing control loop: a :class:`TierPolicy` decides,
per (region, key), *whether and when* a region entry is promoted from
the generic fallback tier (see :mod:`repro.runtime.fallback`) to
stitched code.

Three modes:

* ``eager`` -- the historical behavior and the default: every first
  entry stitches.  No controller is created, no ``tier:`` owner is
  charged, and every simulated observable is bit-identical to the
  pre-tiering engine (pinned by the accounting goldens).
* ``threshold:N`` -- a classic JIT hotness counter: a (region, key)
  runs the generic fallback tier until its Nth entry, which stitches.
* ``breakeven`` -- the paper's economics, live: a key is promoted only
  when the measured cost of its cold entries and a template-derived
  estimate of the stitch cost predict that the stitch amortizes within
  ``horizon`` future entries.

Cold entries execute the region's generic fallback code (table-driven,
built once per region) and pay a small counter-maintenance charge to a
``tier:<func>:<region>`` owner, so break-even accounting sees exactly
what the adaptive bookkeeping costs.

Promotion math (``breakeven`` mode), per (region, key):

* the key's first entry always runs cold -- the controller needs one
  measured execution;
* ``C`` = measured fallback cycles per cold entry of *this key*
  (fallback code is deterministic per key, so ``C`` is a pure function
  of the key -- which keeps promotion decisions order-independent, a
  property the tiering test layer checks);
* ``O`` = predicted stitch cost, estimated from the region's template
  (directives, instructions, holes, branch fixups priced by the
  :class:`~repro.machine.costs.StitcherCosts` model; loop unrolling is
  unknown before stitching, so ``O`` is a floor);
* ``S`` = predicted cycles saved per stitched execution,
  ``C * (1 - 1/assumed_speedup)``;
* predicted break-even count ``B = ceil(O / S)``; the key promotes at
  its ``B+1``-th entry, and never promotes when ``B > horizon``.

Speculative key-versioning: when a key earns promotion, up to
``speculate`` of its hottest cold sibling keys are marked; a marked
key stitches at its *next* entry instead of waiting out its own
threshold.  (A region's run-time-constants table is entry-local state
-- it is filled by set-up code on the way into an entry -- so the
earliest a sibling's version can be stitched is that sibling's next
entry.)  The per-region speculative version set is bounded by
``max_versions``.

Demotions: a promotion-eligible entry that ends up on the fallback
tier anyway (stitch failure, or a circuit breaker holding the region
open) counts as a demotion.  Promotions, demotions, speculative marks and
flipped decisions are ``tier.*`` events in the run's log, which
``RunResult.tier_stats`` and the ``tier.*`` metrics count.

The controller also feeds *hotness-weighted eviction*: every cached
entry's ``hotness`` is kept at the key's live entry count, which the
``cost-aware`` cache policy folds into its retention score (hotter
entries are costlier to lose).  Non-adaptive runs leave ``hotness`` at
zero, so their eviction order is unchanged.

Chaos: the ``tier.flip`` fault site inverts individual promotion
decisions.  A flipped decision is *economically* wrong but must never
be *semantically* wrong -- the differential oracle proves tiered runs
match the interpreter bit-for-bit whatever the schedule flips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple, Union

from ..machine.costs import StitcherCosts

Number = Union[int, float]

RegionId = Tuple[str, int]
Key = Tuple[Number, ...]

#: Cycles charged to the ``tier:`` owner per adaptive region entry
#: (hash the key, bump the counter -- the cheap profiling the paper's
#: economics assume can be had for almost nothing).
TIER_COUNTER_CYCLES = 4

#: Extra cycles charged when the controller runs the promotion
#: predicate on a cache miss (read the measurement, divide, compare).
TIER_DECIDE_CYCLES = 6

TIER_MODES = ("eager", "threshold", "breakeven")


@dataclass(frozen=True)
class TierPolicy:
    """When does a (region, key) deserve a stitch?

    Parsed from CLI specs (see :meth:`parse`); ``eager`` is the
    default everywhere and reproduces the historical engine exactly.
    """

    mode: str = "eager"
    #: ``threshold`` mode: promote at the key's Nth entry.
    threshold: int = 2
    #: ``breakeven`` mode: never promote a key whose predicted
    #: break-even count exceeds this many entries.
    horizon: int = 256
    #: ``breakeven`` mode: predicted speedup of stitched code over the
    #: generic fallback tier (the paper's Table 2 medians sit well
    #: above 2x; the estimate only gates *when* to stitch, never what
    #: the stitched code computes).
    assumed_speedup: float = 2.0
    #: pre-stitch marks handed to the K hottest sibling keys when a
    #: key earns promotion (0 disables speculation).
    speculate: int = 0
    #: bound on speculative versions per region.
    max_versions: int = 4

    def __post_init__(self) -> None:
        if self.mode not in TIER_MODES:
            raise ValueError("unknown tier mode %r (choose from %s)"
                             % (self.mode, ", ".join(TIER_MODES)))
        if self.threshold < 1:
            raise ValueError("tier threshold must be >= 1")
        if self.horizon < 1:
            raise ValueError("tier horizon must be >= 1")
        if self.assumed_speedup <= 1.0:
            raise ValueError("assumed_speedup must be > 1")
        if self.speculate < 0 or self.max_versions < 0:
            raise ValueError("speculate/max_versions must be >= 0")

    @property
    def adaptive(self) -> bool:
        return self.mode != "eager"

    @classmethod
    def parse(cls, spec: Optional[Union[str, "TierPolicy"]]
              ) -> "TierPolicy":
        """Parse a CLI tier spec.

        ``eager`` | ``threshold:N`` | ``breakeven[:HORIZON]``, with
        optional comma-separated options ``spec=K`` (speculative
        sibling marks), ``versions=V`` (speculative version bound) and
        ``speedup=F`` (breakeven's assumed speedup).  Examples::

            eager
            threshold:3
            threshold:4,spec=2,versions=3
            breakeven
            breakeven:64,speedup=1.5
        """
        if spec is None:
            return cls()
        if isinstance(spec, TierPolicy):
            return spec
        text = spec.strip()
        if not text:
            return cls()
        head, _, rest = text.partition(",")
        mode, _, arg = head.partition(":")
        mode = mode or "eager"
        if mode not in TIER_MODES:
            raise ValueError("unknown tier mode %r (choose from %s)"
                             % (mode, ", ".join(TIER_MODES)))
        kwargs: Dict[str, object] = {"mode": mode}
        if arg:
            try:
                value = int(arg)
            except ValueError:
                raise ValueError("bad tier argument %r in %r" % (arg, spec))
            if mode == "threshold":
                kwargs["threshold"] = value
            elif mode == "breakeven":
                kwargs["horizon"] = value
            else:
                raise ValueError("tier mode %r takes no argument" % mode)
        for clause in filter(None, rest.split(",")):
            name, sep, value_text = clause.partition("=")
            if not sep:
                raise ValueError("bad tier option %r (want NAME=VALUE)"
                                 % clause)
            try:
                if name == "spec":
                    kwargs["speculate"] = int(value_text)
                elif name == "versions":
                    kwargs["max_versions"] = int(value_text)
                elif name == "speedup":
                    kwargs["assumed_speedup"] = float(value_text)
                else:
                    raise ValueError("unknown tier option %r" % name)
            except ValueError as exc:
                if "tier option" in str(exc):
                    raise
                raise ValueError("bad tier option value %r in %r"
                                 % (value_text, clause))
        return cls(**kwargs)  # type: ignore[arg-type]

    def describe(self) -> str:
        if self.mode == "eager":
            return "eager"
        if self.mode == "threshold":
            text = "threshold:%d" % self.threshold
        else:
            text = "breakeven:%d" % self.horizon
        if self.speculate:
            text += ",spec=%d" % self.speculate
        if self.speculate or self.max_versions != TierPolicy.max_versions:
            text += ",versions=%d" % self.max_versions
        if self.assumed_speedup != TierPolicy.assumed_speedup:
            text += ",speedup=%g" % self.assumed_speedup
        return text

    def with_mode(self, mode: str, **kwargs) -> "TierPolicy":
        return replace(self, mode=mode, **kwargs)


@dataclass
class _RegionState:
    """Per-region adaptive bookkeeping."""

    #: key -> entries observed (hits, stitches, cold and degraded all
    #: count -- an entry is an entry).
    counts: Dict[Key, int] = field(default_factory=dict)
    #: keys with at least one successful stitch.
    promoted: Set[Key] = field(default_factory=set)
    #: keys marked for speculative promotion at their next entry.
    marks: Set[Key] = field(default_factory=set)
    #: key -> (measured fallback cycles, measured cold executions).
    measured: Dict[Key, List[int]] = field(default_factory=dict)
    #: key whose fallback execution is still accruing cycles (settled
    #: at the region's next entry).
    pending: Optional[Key] = None
    #: fallback-owner cycle reading at the last settlement.
    last_fallback_cycles: int = 0
    #: key -> predicted break-even entry count at decision time.
    predicted: Dict[Key, int] = field(default_factory=dict)
    #: speculative promotions (they spend the version budget).
    speculative_promotions: int = 0


class TierController:
    """Run-time state of one adaptive execution.

    Created by the engine's region runtime only when the policy is
    adaptive; eager runs never construct one, which is what keeps them
    bit-identical to the historical engine.
    """

    def __init__(self, policy: TierPolicy, vm,
                 regions: Dict[RegionId, "RegionCode"],  # noqa: F821
                 costs: StitcherCosts, log, faults=None):
        assert policy.adaptive, "eager runs need no controller"
        self.policy = policy
        self.vm = vm
        self.log = log
        self.regions = regions
        self.costs = costs
        self.faults = faults
        self.state: Dict[RegionId, _RegionState] = {}
        self._estimates: Dict[RegionId, int] = {}

    # -- bookkeeping helpers -----------------------------------------------

    def _state(self, region: RegionId) -> _RegionState:
        state = self.state.get(region)
        if state is None:
            state = self.state[region] = _RegionState()
        return state

    def count(self, func: str, region_id: int, key: Key) -> int:
        return self._state((func, region_id)).counts.get(key, 0)

    def _fallback_owner_cycles(self, region: RegionId) -> int:
        cell = self.vm._owner_cells.get("fallback:%s:%d" % region)
        return cell[0] if cell is not None else 0

    def _settle(self, region: RegionId, state: _RegionState) -> None:
        """Attribute fallback cycles accrued since the last settlement
        to the key whose execution produced them.  Region entries never
        nest into the same region (the fallback tier's documented
        reentrancy limit), so by the time the region is entered again
        the pending execution has fully completed."""
        current = self._fallback_owner_cycles(region)
        pending = state.pending
        if pending is not None:
            cell = state.measured.get(pending)
            if cell is None:
                cell = state.measured[pending] = [0, 0]
            cell[0] += current - state.last_fallback_cycles
            cell[1] += 1
            state.pending = None
        state.last_fallback_cycles = current

    def estimate_stitch_cycles(self, func: str, region_id: int) -> int:
        """Template-derived floor on what a stitch of this region will
        cost, in the stitcher's own cost model.  Loop unrolling and
        pool pressure are unknowable before the table is read, so the
        estimate is deliberately a floor -- it can only make the
        controller *more* willing to stitch, never over-conservative
        for loop-free regions."""
        region = (func, region_id)
        cached = self._estimates.get(region)
        if cached is not None:
            return cached
        code = self.regions[region]
        costs = self.costs
        instrs = sum(len(b.instrs) for b in code.blocks.values())
        holes = sum(len(b.holes) for b in code.blocks.values())
        fixups = sum(len(b.fixups) for b in code.blocks.values())
        estimate = (costs.per_region
                    + code.directive_count * costs.per_directive
                    + instrs * costs.per_instr_copied
                    + holes * costs.per_hole
                    + fixups * costs.per_branch_fixup)
        self._estimates[region] = estimate
        return estimate

    # -- engine hook points ------------------------------------------------

    def on_entry(self, func: str, region_id: int, key: Key) -> None:
        """Every region entry: bump the key's counter, charge the
        ``tier:`` owner, settle any pending cold-execution measurement."""
        region = (func, region_id)
        state = self._state(region)
        state.counts[key] = state.counts.get(key, 0) + 1
        self._settle(region, state)
        self.vm.charge("tier:%s:%d" % region, TIER_COUNTER_CYCLES)

    def decide(self, func: str, region_id: int, key: Key) -> bool:
        """On a cache miss: stitch now (True) or run cold (False)?"""
        region = (func, region_id)
        state = self._state(region)
        self.vm.charge("tier:%s:%d" % region, TIER_DECIDE_CYCLES)
        promote = self._predicate(region, state, key)
        if self.faults is not None and self.faults.should_fire("tier.flip"):
            promote = not promote
            self.log.event("tier.flip", region, key, promote=promote)
        return promote

    def _predicate(self, region: RegionId, state: _RegionState,
                   key: Key) -> bool:
        if key in state.promoted:
            # Eviction/invalidation re-entry of a proven-hot key:
            # re-stitch immediately, no cooling-off.
            return True
        if key in state.marks:
            return True
        count = state.counts.get(key, 0)
        if self.policy.mode == "threshold":
            return count >= self.policy.threshold
        # breakeven: the first entry always runs cold (it *is* the
        # measurement), after which the economics take over.
        if count < 2:
            return False
        cell = state.measured.get(key)
        if cell is None or cell[1] == 0:
            return False
        cold_per_exec = cell[0] / cell[1]
        saved = cold_per_exec * (1.0 - 1.0 / self.policy.assumed_speedup)
        if saved <= 0:
            return False
        overhead = self.estimate_stitch_cycles(*region)
        breakeven = math.ceil(overhead / saved)
        state.predicted[key] = breakeven
        if breakeven > self.policy.horizon:
            return False
        return count > breakeven

    def on_fallback(self, func: str, region_id: int, key: Key,
                    degraded: bool) -> None:
        """A region entry served from the fallback tier -- cold by
        policy, queued behind an async stitch job, or ``degraded``
        (fault/budget/error/breaker).  Its fallback cycles settle
        against this key at the region's next entry, so break-even
        measurements stay honest; a degraded entry that was
        promotion-eligible counts as a demotion."""
        region = (func, region_id)
        state = self._state(region)
        state.pending = key
        if degraded and (key in state.promoted or key in state.marks):
            self.log.event("tier.demote", region, key,
                           tier=self.policy.mode)

    def on_promote(self, func: str, region_id: int, key: Key,
                   entry) -> None:
        """A successful adaptive stitch: record it, seed the cached
        entry's hotness, and hand out speculative marks."""
        region = (func, region_id)
        state = self._state(region)
        speculative = key in state.marks and key not in state.promoted
        state.marks.discard(key)
        state.promoted.add(key)
        if speculative:
            state.speculative_promotions += 1
        count = state.counts.get(key, 0)
        entry.hotness = count
        self.log.event("tier.promote", region, key, tier=self.policy.mode,
                       count=count, speculative=speculative,
                       predicted_breakeven=state.predicted.get(key))
        if not speculative:
            self._mark_siblings(region, state, key)

    def _mark_siblings(self, region: RegionId, state: _RegionState,
                       key: Key) -> None:
        """Speculative key-versioning: when a key *earns* promotion,
        mark its hottest cold siblings to stitch at their next entry,
        bounded by the region's speculative version budget."""
        budget = self.policy.speculate
        if budget <= 0:
            return
        room = self.policy.max_versions \
            - state.speculative_promotions - len(state.marks)
        budget = min(budget, max(0, room))
        if budget <= 0:
            return
        siblings = sorted(
            ((count, k) for k, count in state.counts.items()
             if k != key and k not in state.promoted
             and k not in state.marks),
            key=lambda item: (-item[0], item[1]))
        for _, sibling in siblings[:budget]:
            state.marks.add(sibling)
            self.log.event("tier.speculate", region, sibling)

    def on_hit(self, func: str, region_id: int, key: Key,
               cached) -> None:
        """Cache hit in an adaptive run: refresh the entry's hotness
        for the cost-aware policy's eviction score."""
        cached.hotness = self.count(func, region_id, key)

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> Dict[RegionId, Dict[str, object]]:
        """Per-region tiering stats for ``RunResult.tier_stats``: the
        event counts come from the run's log, the rest is the
        controller's decision state."""
        log = self.log
        out: Dict[RegionId, Dict[str, object]] = {}
        for region, state in sorted(self.state.items()):
            predicted = [state.predicted[k] for k in sorted(state.predicted)]
            out[region] = {
                "mode": self.policy.describe(),
                "keys": len(state.counts),
                "keys_promoted": len(state.promoted),
                "promoted_keys": [repr(list(k))
                                  for k in sorted(state.promoted)],
                "promotions": log.count("tier.promote", region),
                "speculative_promotions": sum(
                    1 for event in log.of_kind("tier.promote")
                    if event.region == region and event.args["speculative"]),
                "demotions": log.count("tier.demote", region),
                "decision_flips": log.count("tier.flip", region),
                "predicted_breakeven": (
                    min(predicted) if predicted else None),
                "predicted_breakeven_by_key": {
                    repr(list(k)): v
                    for k, v in sorted(state.predicted.items())},
                "counters": {repr(list(k)): v
                             for k, v in sorted(state.counts.items())},
            }
        return out
