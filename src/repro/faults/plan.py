"""Deterministic fault injection: the seeded :class:`FaultPlan`.

A plan maps *fault sites* -- named points in the dynamic-compilation
pipeline -- to firing probabilities.  Each site consults the plan
(:meth:`FaultPlan.should_fire`) at the moment the real failure could
occur; when the draw fires, the site raises the same *typed* error a
genuine failure would raise, tagged ``injected = True`` (see
:func:`repro.errors.mark_injected`).  The engine's graceful-degradation
tier catches it and transfers the region to fallback execution, and the
differential oracle proves that (a) execution still matches the
interpreter bit-for-bit and (b) every injected fault is matched by an
observed fallback or checksum retry.

Determinism: the plan owns one seeded ``random.Random``; a draw is
consumed only at sites with a configured non-zero probability, in
execution order, so a given (program, seed, spec) triple always
injects the same faults.  A plan is single-run state -- the oracle
builds a fresh plan per run.

Fault-site catalog (see ``docs/ROBUSTNESS.md``):

====================  ====================================================
``stitch.table``      run-time-constants table / loop-record read
``stitch.hole``       hole patching inside the stitcher
``arena.pool``        constant-pool arena allocation at install
``arena.code``        code arena placement at install
``cache.compact``     the compaction pass
``cache.checksum``    the hit-time check of a cached entry
``tier.flip``         an adaptive tiering promotion decision
``queue.drop``        an async stitch-queue enqueue (job silently lost)
``stitch.hang``       an async stitch job's landing (job wedges)
====================  ====================================================

All sites except ``cache.checksum``, ``tier.flip``, ``queue.drop``
and ``stitch.hang`` raise; ``cache.checksum`` instead makes the
hit check *report a mismatch*, exercising the
invalidate-and-restitch recovery path, and ``tier.flip`` *inverts* a
tiering promotion decision (promote what would stay cold, or vice
versa) -- an economically wrong but semantically neutral perturbation
that the oracle uses to prove tiered execution is correct under any
promotion schedule.  ``tier.flip`` is consulted only by adaptive runs
(a ``tier`` other than eager), and the two queue sites only by async
runs (``stitch=async``) -- ``queue.drop`` eats an enqueue (an
injected shed) and ``stitch.hang`` wedges a ready job until the
watchdog's deadline clears it -- so configuring them never perturbs
other runs' seeded fault schedules.

Each injection is a ``fault.inject`` event in the log of the run the
plan serves (``RunResult.fault_counts`` counts them);
:attr:`FaultPlan.counts`, the total over every run, enforces ``limit``.

A clause may scope a site to one region with bracket syntax --
``stitch.hang[region]:1.0`` (every region of function ``region``) or
``stitch.hang[region.1]:1.0`` (just region 1) -- which is how the
chaos gate hangs a single region's compilation while proving its
siblings still land stitches.  Scope matching is deterministic and
consumes no randomness when the region does not match.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

#: Every site a plan may configure, in pipeline order.
FAULT_SITES = (
    "stitch.table",
    "stitch.hole",
    "arena.pool",
    "arena.code",
    "cache.compact",
    "cache.checksum",
    "tier.flip",
    "queue.drop",
    "stitch.hang",
)

#: Sites that recover without raising a typed error (no injected
#: fallback event): checksum reports a mismatch, tier.flip inverts a
#: decision, queue.drop sheds a job, stitch.hang wedges one.  The
#: oracle's fault accounting excludes them from the raised set.
NON_RAISING_SITES = frozenset(
    ("cache.checksum", "tier.flip", "queue.drop", "stitch.hang"))


class FaultPlan:
    """Seeded, probabilistic fault schedule over the named sites."""

    def __init__(self, probabilities: Dict[str, float], seed: int = 0,
                 limit: Optional[int] = None,
                 scopes: Optional[Dict[str, str]] = None):
        for site, prob in probabilities.items():
            if site not in FAULT_SITES:
                raise ValueError("unknown fault site %r (have: %s)"
                                 % (site, ", ".join(FAULT_SITES)))
            if not 0.0 <= prob <= 1.0:
                raise ValueError("fault probability for %s out of "
                                 "[0, 1]: %r" % (site, prob))
        self.probabilities = dict(probabilities)
        #: site -> region scope ("func" or "func.id"); a scoped site
        #: only fires at sites consulted for a matching region.
        self.scopes = dict(scopes or {})
        for site in self.scopes:
            if site not in self.probabilities:
                raise ValueError("scope for unconfigured site %r" % site)
        self.seed = seed
        #: stop injecting after this many total faults (None: no cap).
        self.limit = limit
        self._rng = random.Random(seed)
        #: site -> faults actually injected (over every run).
        self.counts: Dict[str, int] = {}
        #: the log of the run being served (set by the engine).
        self.log = None

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(cls, spec: Optional[str],
              seed: int = 0) -> Optional["FaultPlan"]:
        """``"all:P"`` or ``"site:p,site:p"``, optionally ``"...@SEED"``;
        a site may carry a region scope, ``"site[func.id]:p"``.

        ``None``, ``""`` and ``"off"`` mean no plan (returns None).
        ``all`` expands over :data:`FAULT_SITES`, so newly added sites
        are covered without touching any caller.
        """
        if spec is None:
            return None
        spec = spec.strip()
        if not spec or spec == "off":
            return None
        if "@" in spec:
            spec, _, seed_text = spec.rpartition("@")
            try:
                seed = int(seed_text)
            except ValueError:
                raise ValueError("bad fault-plan seed %r" % seed_text)
        probabilities: Dict[str, float] = {}
        scopes: Dict[str, str] = {}
        for clause in spec.split(","):
            clause = clause.strip()
            if not clause:
                continue
            site, sep, prob_text = clause.partition(":")
            if not sep:
                raise ValueError("bad fault clause %r (want SITE:PROB)"
                                 % clause)
            scope = None
            if site.endswith("]") and "[" in site:
                site, _, scope_text = site[:-1].partition("[")
                scope = scope_text.strip()
                if not scope:
                    raise ValueError("empty region scope in %r" % clause)
            try:
                prob = float(prob_text)
            except ValueError:
                raise ValueError("bad fault probability %r in %r"
                                 % (prob_text, clause))
            if site == "all":
                if scope is not None:
                    raise ValueError("'all' cannot carry a region scope")
                for name in FAULT_SITES:
                    probabilities[name] = prob
            else:
                probabilities[site] = prob
                if scope is not None:
                    scopes[site] = scope
                else:
                    scopes.pop(site, None)
        return cls(probabilities, seed=seed, scopes=scopes)

    def describe(self) -> str:
        """A spec string that parses back to this plan (site order,
        scopes and seed included) -- parity with
        :meth:`repro.runtime.tiering.TierPolicy.describe`."""
        if set(self.probabilities) == set(FAULT_SITES) and \
                len(set(self.probabilities.values())) == 1 and \
                not self.scopes:
            text = "all:%g" % next(iter(self.probabilities.values()))
        else:
            clauses = []
            for site in FAULT_SITES:
                if site not in self.probabilities:
                    continue
                scope = self.scopes.get(site)
                name = "%s[%s]" % (site, scope) if scope else site
                clauses.append("%s:%g" % (name, self.probabilities[site]))
            text = ",".join(clauses)
        return "%s@%d" % (text, self.seed)

    def _scope_matches(self, site: str, region) -> bool:
        scope = self.scopes.get(site)
        if scope is None:
            return True
        if region is None:
            return False
        func, region_id = region
        if "." in scope:
            func_part, _, id_part = scope.rpartition(".")
            return func == func_part and str(region_id) == id_part
        return func == scope

    # -- the one runtime question ------------------------------------------

    @property
    def total_injected(self) -> int:
        return sum(self.counts.values())

    def should_fire(self, site: str, region=None) -> bool:
        """Consult the plan at ``site``; count and report a firing.

        Sites with no configured (or zero) probability consume no
        randomness, so adding instrumentation to new sites never
        perturbs existing seeded schedules.  A scoped site likewise
        consumes none when ``region`` -- a ``(func, region_id)`` pair
        -- does not match its scope.
        """
        prob = self.probabilities.get(site)
        if not prob:
            return False
        if not self._scope_matches(site, region):
            return False
        if self.limit is not None and self.total_injected >= self.limit:
            return False
        if self._rng.random() >= prob:
            return False
        self.counts[site] = self.counts.get(site, 0) + 1
        if self.log is not None:
            self.log.event("fault.inject", region, site=site,
                           nth=self.total_injected)
        return True
