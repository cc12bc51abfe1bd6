"""Differential fuzzing CLI: the standing correctness harness.

Usage::

    python -m repro.fuzz --seed 0 --iters 200
    python -m repro.fuzz --seed 7 --iters 50 --max-stmts 20
    python -m repro.fuzz --seed 0 --iters 200 --corpus-dir tests/corpus
    python -m repro.fuzz --iters 150 --faults all:0.1   # chaos mode

Each iteration draws one whole program from
:mod:`repro.testing.genprog` (deterministically from ``seed`` plus the
iteration number), runs it through the three-way oracle
(:mod:`repro.testing.oracle`), and on divergence localizes the culprit
pass (:mod:`repro.testing.ablate`), shrinks the program to a minimal
reproducer and writes it under ``--corpus-dir``.

Exit status is 0 when every iteration agreed, 1 when any divergence
was found.  CI runs a bounded configuration of this command and
uploads whatever lands in the corpus directory as build artifacts.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import sys
import time
from typing import Dict, List, Optional, Tuple

from .backends import get_backend
from .codecache import CacheConfig
from .faults import FaultPlan
from .obs import trace as obs_trace
from .runtime.stitchqueue import StitchQueueConfig
from .runtime.tiering import TierPolicy
from .testing.ablate import (
    format_reproducer, localize_divergence, shrink_program,
)
from .obs import health as obs_health
from .testing.genprog import generate_program
from .testing.oracle import run_oracle


def random_cache_config(seed: int, iteration: int) -> CacheConfig:
    """A deterministic, usually-tiny cache configuration for one fuzz
    iteration, so eviction, free-list reuse, compaction and re-stitch
    paths get exercised alongside the default unbounded behavior."""
    rng = random.Random(seed * 7919 + iteration)
    roll = rng.random()
    if roll < 0.35:
        return CacheConfig()  # unbounded: the historical path
    policy = rng.choice(["lru", "cost-aware"])
    max_entries = rng.randint(1, 4)
    max_words = rng.choice([None, None, rng.randint(32, 512)])
    return CacheConfig(policy=policy, max_entries=max_entries,
                       max_words=max_words)


def random_tier_policy(seed: int, iteration: int) -> Optional[str]:
    """A deterministic tiering spec for one fuzz iteration (or None for
    the default eager behavior), so the cold/warm/hot state space --
    threshold promotion, break-even prediction, speculative marks --
    gets exercised alongside the historical stitch-on-first-entry
    path.  The draw is independent of :func:`random_cache_config` so
    tier x cache combinations cover the full cross product over a
    fuzz run."""
    rng = random.Random(seed * 104729 + iteration * 31 + 17)
    roll = rng.random()
    if roll < 0.40:
        return None  # eager: the historical path
    if roll < 0.70:
        spec = "threshold:%d" % rng.randint(1, 4)
    else:
        spec = "breakeven:%d" % rng.choice([8, 32, 128, 256])
    if rng.random() < 0.35:
        spec += ",spec=%d,versions=%d" % (rng.randint(1, 2),
                                          rng.randint(1, 4))
    return spec


def random_stitch_config(seed: int, iteration: int) -> Optional[str]:
    """A deterministic stitch-queue spec for one fuzz iteration (or
    None for the default synchronous stitching), so the async job
    lifecycle -- enqueue, deterministic drain, priority shed, retry
    backoff, deadline expiry, cancellation -- gets exercised alongside
    the historical stitch-at-entry path.  Independent mixer so stitch
    x tier x cache x backend combinations cover the cross product."""
    rng = random.Random(seed * 15485863 + iteration * 37 + 11)
    roll = rng.random()
    if roll < 0.45:
        return None  # sync: the historical path
    parts = []
    depth = rng.choice([1, 2, 4, 8])
    if depth != 8:
        parts.append("depth=%d" % depth)
    drain = rng.choice([1, 2, 4, 6])
    if drain != 4:
        parts.append("drain=%d" % drain)
    batch = rng.choice([1, 1, 2])
    if batch != 1:
        parts.append("batch=%d" % batch)
    if rng.random() < 0.30:
        parts.append("deadline=%d" % rng.choice([2_000, 20_000]))
    if rng.random() < 0.30:
        parts.append("retries=%d" % rng.randint(0, 3))
        parts.append("jitter=%d" % rng.randint(0, 3))
        parts.append("seed=%d" % rng.randint(0, 7))
    return "async" + (":" + ",".join(parts) if parts else "")


def random_backend(seed: int, iteration: int) -> Optional[str]:
    """A deterministic primary-backend draw for one fuzz iteration
    (None for the default rvm).  The oracle's standing cross-backend
    leg always runs the *other* backend, so this draw decides which
    backend drives the static/regactions/tiered legs -- randomizing it
    exercises pycode under every cache/fault/tier combination the
    other draws produce, not just the plain dynamic configuration."""
    rng = random.Random(seed * 65537 + iteration * 13 + 5)
    if rng.random() < 0.60:
        return None  # rvm: the historical path
    return "pycode"


def health_flags(report, faults_configured: bool) -> List[str]:
    """Cross-check one oracle report against the obs health rules.

    Two anomalies are worth surfacing:

    * the report *diverged* yet every dynamic leg's health report is
      green -- the rule set is blind to a real correctness failure
      ("green but diverged"); and
    * the report *agreed* with no faults configured, yet health rules
      fired anyway -- the run degraded (fallbacks, breaker trips,
      demotions) without changing observables ("silent degradation").

    Returns human-readable flag strings (empty when nothing anomalous).
    Only legs that carried a ``run_result`` (the VM legs) are checked.
    """
    flags: List[str] = []
    for leg in sorted(report.outcomes):
        outcome = report.outcomes[leg]
        result = getattr(outcome, "run_result", None)
        if result is None:
            continue
        health = obs_health.evaluate_result(result)
        if not report.ok and not report.compile_error and health.ok:
            flags.append("%s leg diverged yet health is green "
                         "(rules are blind to this failure)" % leg)
        elif report.ok and not faults_configured and not health.ok:
            fired = "; ".join(r.rule.describe() for r in health.fired)
            flags.append("%s leg agreed yet health fired [%s] "
                         "(silent degradation)" % (leg, fired))
    return flags


def fuzz_one(seed: int, iteration: int, max_stmts: int = 14,
             max_cycles: int = 200_000_000,
             cache_config: Optional[CacheConfig] = None,
             faults: Optional[str] = None,
             tier: Optional[str] = None,
             stitch: Optional[str] = None,
             backend: Optional[str] = None,
             health_log: Optional[List[str]] = None):
    """Generate and check one program.

    Returns ``(program, bad_report, annotation_rejected)``:
    ``bad_report`` is the first failing :class:`OracleReport` (or the
    report when every leg rejects the program -- a generator bug), or
    ``None`` when every argument agreed.  ``annotation_rejected`` is
    True when the dynamic path legitimately refused the region shape
    for some argument (the splitter's AnnotationError).
    ``cache_config``, ``faults`` (a fault-injection spec, see
    :meth:`FaultPlan.parse`), ``tier`` (a tiering spec, see
    :meth:`TierPolicy.parse`) and ``stitch`` (a stitch-queue spec,
    see :meth:`StitchQueueConfig.parse`) apply to the oracle's
    dynamic legs;
    ``backend`` picks the primary execution backend (the oracle's
    cross-backend leg covers the other one either way).
    When ``health_log`` is given, every oracle report is additionally
    cross-checked via :func:`health_flags` and anomaly strings are
    appended to it.
    """
    program = generate_program(seed * 1_000_003 + iteration,
                               max_stmts=max_stmts)
    source = program.source
    rejected = False
    for arg in program.args:
        report = run_oracle(source, [arg], max_cycles=max_cycles,
                            cache_config=cache_config, faults=faults,
                            tier=tier, stitch=stitch, backend=backend)
        rejected = rejected or report.annotation_reject
        if health_log is not None and not report.compile_error:
            for flag in health_flags(report, bool(faults)):
                health_log.append("iter %d arg %d: %s"
                                  % (iteration, arg, flag))
        if report.compile_error:
            return program, report, rejected
        if not report.ok:
            return program, report, rejected
    return program, None, rejected


def reproducer_config(text: str) -> Tuple[List[int], Dict[str, object]]:
    """A reproducer's ``// args:`` values, and the :func:`run_oracle`
    keyword arguments its ``// tier:``, ``// stitch:``,
    ``// backend:``, ``// faults:`` and ``// cache:`` headers record
    (None where a header is absent)."""
    match = re.search(r"^// args:\s*(.*)$", text, re.MULTILINE)
    args = [int(tok) for tok in match.group(1).split()] if match else []
    recorded: Dict[str, object] = {}
    for name in ("tier", "stitch", "backend", "faults", "cache"):
        match = re.search(r"^// %s:\s*(\S+)" % name, text, re.MULTILINE)
        recorded[name] = match.group(1) if match else None
    cache = recorded.pop("cache")
    recorded["cache_config"] = CacheConfig.parse(cache) if cache else None
    return args or [0], recorded


def _save_unshrunk(corpus_dir: str, name: str, program, report,
                   headers: Dict[str, object]) -> None:
    """Write a configuration-specific divergence unshrunk (ablation and
    shrinking rerun under the default configuration), with one header
    per configuration it ran under, so it replays the same way."""
    os.makedirs(corpus_dir, exist_ok=True)
    path = os.path.join(corpus_dir, name)
    with open(path, "w") as handle:
        for header, spec in headers.items():
            if isinstance(spec, CacheConfig):
                spec = spec.describe()
            if spec:
                handle.write("// %s: %s\n" % (header, spec))
        handle.write(format_reproducer(program, report, None))
    print("  wrote %s" % path)


def _describe_config(config: Dict[str, object]) -> str:
    cache = config["cache_config"]
    return " ".join(
        ["cache=%s" % (cache.describe() if cache else "unbounded")]
        + ["%s=%s" % (name, config[name])
           for name in ("faults", "tier", "stitch", "backend")
           if config[name]])


def _replay_corpus(directory: str, cache_config: Optional[CacheConfig],
                   max_cycles: int, faults: Optional[str] = None,
                   tier: Optional[str] = None,
                   stitch: Optional[str] = None,
                   backend: Optional[str] = None) -> int:
    """Replay every ``*.c`` reproducer in ``directory`` through the
    oracle, optionally under a bounded cache, injected faults, an
    adaptive tiering policy and/or a non-default execution backend --
    the CI proof that neither eviction nor graceful degradation nor
    tiering nor async stitch queueing nor the backend seam ever
    changes program results on known-tricky programs.  A reproducer
    saved with a ``// tier:``, ``// stitch:``, ``// backend:``,
    ``// faults:`` or ``// cache:`` header replays under that recorded
    configuration (it overrides the matching argument)."""
    import glob

    defaults = {"tier": tier, "stitch": stitch, "backend": backend,
                "faults": faults, "cache_config": cache_config}
    paths = sorted(glob.glob(os.path.join(directory, "*.c")))
    if not paths:
        print("no *.c reproducers under %s" % directory, file=sys.stderr)
        return 1
    failures = 0
    for path in paths:
        with open(path) as handle:
            text = handle.read()
        arg_list, recorded = reproducer_config(text)
        config = {name: default if recorded[name] is None
                  else recorded[name]
                  for name, default in defaults.items()}
        for arg in arg_list:
            report = run_oracle(text, [arg], max_cycles=max_cycles,
                                **config)
            if report.annotation_reject or report.ok:
                continue
            failures += 1
            print("%s (arg %d, %s):"
                  % (path, arg, _describe_config(config)))
            for divergence in report.divergences:
                print("  " + str(divergence))
    print("replay: %d reproducers under %s, %d failures"
          % (len(paths), _describe_config(defaults), failures))
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential fuzzing of the dynamic compiler: "
                    "random whole programs through interpreter, static "
                    "RVM and stitched execution.")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed (default 0); every generated "
                             "program derives from it deterministically")
    parser.add_argument("--iters", type=int, default=100,
                        help="number of programs to generate (default "
                             "100)")
    parser.add_argument("--max-stmts", type=int, default=14,
                        help="statement budget per generated region "
                             "(default 14)")
    parser.add_argument("--corpus-dir", default=None,
                        help="where to write minimized reproducers "
                             "(default: tests/corpus relative to the "
                             "repository, created on demand)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip ablation + shrinking on divergence "
                             "(faster triage loop)")
    parser.add_argument("--max-cycles", type=int, default=200_000_000,
                        help="per-run simulated cycle budget")
    parser.add_argument("--stats", action="store_true",
                        help="print the feature-coverage histogram")
    parser.add_argument("--trace-tail", type=int, default=2048,
                        metavar="N",
                        help="keep the last N pipeline/stitch trace "
                             "events per iteration and dump them next "
                             "to the reproducer on divergence "
                             "(0 disables; default 2048)")
    parser.add_argument("--cache", default=None, metavar="SPEC",
                        help="fix the dynamic legs' code-cache config "
                             "(POLICY[:ENTRIES[:WORDS]], e.g. lru:2) "
                             "instead of fuzzing random capacities")
    parser.add_argument("--no-cache-fuzz", action="store_true",
                        help="always run the default unbounded cache "
                             "(pre-codecache behavior)")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="inject deterministic faults into the "
                             "dynamic legs (SITE:PROB[,SITE:PROB...] or "
                             "all:PROB, optionally @SEED; e.g. "
                             "all:0.1) -- the oracle then proves the "
                             "degraded runs still match the interpreter")
    parser.add_argument("--tier", default=None, metavar="SPEC",
                        help="fix the tiering policy for the oracle's "
                             "adaptive leg (eager | threshold:N | "
                             "breakeven[:H], options spec=K/versions=V/"
                             "speedup=F) instead of fuzzing a random "
                             "policy per iteration")
    parser.add_argument("--no-tier-fuzz", action="store_true",
                        help="always run eager tiering (pre-tiering "
                             "behavior: no adaptive oracle leg)")
    parser.add_argument("--stitch", default=None, metavar="SPEC",
                        help="fix the stitch-queue config for the "
                             "oracle's dynamic legs (sync | "
                             "async[:depth=N,drain=N,...], see "
                             "StitchQueueConfig.parse) instead of "
                             "fuzzing a random queue per iteration")
    parser.add_argument("--no-stitch-fuzz", action="store_true",
                        help="always stitch synchronously at region "
                             "entry (pre-queue behavior)")
    parser.add_argument("--backend", default=None, metavar="NAME",
                        help="fix the primary execution backend (rvm or "
                             "pycode) instead of randomizing it per "
                             "iteration; the oracle's cross-backend leg "
                             "always covers the other one")
    parser.add_argument("--no-backend-fuzz", action="store_true",
                        help="always run the default rvm backend as "
                             "primary (the cross-backend leg still "
                             "runs pycode)")
    parser.add_argument("--replay", default=None, metavar="DIR",
                        help="replay DIR/*.c reproducers through the "
                             "oracle (honoring --cache) instead of "
                             "generating programs")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    fixed_cache = (CacheConfig.parse(args.cache)
                   if args.cache is not None else None)
    if args.faults is not None:
        FaultPlan.parse(args.faults)  # fail fast on a bad spec
    if args.tier is not None:
        TierPolicy.parse(args.tier)  # fail fast on a bad spec
    if args.stitch is not None:
        StitchQueueConfig.parse(args.stitch)  # fail fast on a bad spec
    if args.backend is not None:
        try:
            get_backend(args.backend)  # fail fast on an unknown name
        except ValueError as exc:
            print("error: --backend %s" % exc, file=sys.stderr)
            return 2
    if args.replay is not None:
        return _replay_corpus(args.replay, fixed_cache, args.max_cycles,
                              faults=args.faults, tier=args.tier,
                              stitch=args.stitch, backend=args.backend)

    corpus_dir = args.corpus_dir
    if corpus_dir is None:
        here = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        corpus_dir = os.path.join(here, "tests", "corpus")

    feature_counts: Dict[str, int] = {}
    divergences = 0
    compile_errors = 0
    annotation_rejects = 0
    health_log: List[str] = []
    health_printed = 0
    # Ring tracer: cheap enough to leave on, and on a divergence the
    # last N compile/stitch events become part of the reproducer.
    tracer = (obs_trace.Tracer(max_events=args.trace_tail, ring=True)
              if args.trace_tail > 0 else None)
    if tracer is not None:
        obs_trace.install(tracer)
    started = time.time()
    for i in range(args.iters):
        if tracer is not None:
            tracer.clear()
        if args.no_cache_fuzz:
            cache_config: Optional[CacheConfig] = None
        elif fixed_cache is not None:
            cache_config = fixed_cache
        else:
            cache_config = random_cache_config(args.seed, i)
        if args.no_tier_fuzz:
            tier_spec: Optional[str] = None
        elif args.tier is not None:
            tier_spec = args.tier
        else:
            tier_spec = random_tier_policy(args.seed, i)
        if args.no_stitch_fuzz:
            stitch_spec: Optional[str] = None
        elif args.stitch is not None:
            stitch_spec = args.stitch
        else:
            stitch_spec = random_stitch_config(args.seed, i)
        if args.no_backend_fuzz:
            backend_spec: Optional[str] = None
        elif args.backend is not None:
            backend_spec = args.backend
        else:
            backend_spec = random_backend(args.seed, i)
        program, bad, rejected = fuzz_one(
            args.seed, i, max_stmts=args.max_stmts,
            max_cycles=args.max_cycles, cache_config=cache_config,
            faults=args.faults, tier=tier_spec, stitch=stitch_spec,
            backend=backend_spec, health_log=health_log)
        # Snapshot the tail now, before ablation/shrinking reruns
        # overwrite the ring with events from other programs.
        trace_tail = list(tracer.events) if tracer is not None else []
        while health_printed < len(health_log):
            print("health flag: %s" % health_log[health_printed],
                  file=sys.stderr)
            health_printed += 1
        if rejected:
            annotation_rejects += 1
        for feature in program.features:
            feature_counts[feature] = feature_counts.get(feature, 0) + 1
        if bad is None:
            if not args.quiet and (i + 1) % 25 == 0:
                print("  %d/%d programs agreed (%.1fs)"
                      % (i + 1, args.iters, time.time() - started))
            continue
        if bad.compile_error:
            compile_errors += 1
            print("iter %d: generator emitted an invalid program "
                  "(all legs rejected): %s"
                  % (i, bad.outcomes["interp"].error), file=sys.stderr)
            continue
        divergences += 1
        print("=" * 70)
        print("iter %d (seed %d): DIVERGENCE with args=%s cache=%s%s%s%s%s"
              % (i, args.seed, bad.args,
                 cache_config.describe() if cache_config else "unbounded",
                 " faults=%s" % args.faults if args.faults else "",
                 " tier=%s" % tier_spec if tier_spec else "",
                 " stitch=%s" % stitch_spec if stitch_spec else "",
                 " backend=%s" % backend_spec if backend_spec else ""))
        for divergence in bad.divergences:
            print("  " + str(divergence))
        if stitch_spec is not None:
            # Is the bug queue-specific?  Ablation/shrink reruns stitch
            # synchronously, so a divergence that needs async queueing
            # must keep its original program and queue spec.
            recheck = run_oracle(program.source, bad.args,
                                 max_cycles=args.max_cycles,
                                 cache_config=cache_config,
                                 faults=args.faults, tier=tier_spec,
                                 backend=backend_spec)
            if recheck.ok:
                print("  divergence requires stitch=%s (vanishes sync); "
                      "writing unshrunk reproducer" % stitch_spec)
                _save_unshrunk(
                    corpus_dir, "seed%d_iter%03d_stitch.c" % (args.seed, i),
                    program, bad, {"stitch": stitch_spec, "tier": tier_spec,
                                   "backend": backend_spec,
                                   "faults": args.faults,
                                   "cache": cache_config})
                continue
        if tier_spec is not None:
            # Is the bug tiering-specific?  Ablation/shrink reruns run
            # eager, so a divergence that needs the adaptive leg must
            # keep its original program and policy spec.
            recheck = run_oracle(program.source, bad.args,
                                 max_cycles=args.max_cycles,
                                 cache_config=cache_config,
                                 faults=args.faults,
                                 backend=backend_spec)
            if recheck.ok:
                print("  divergence requires tier=%s (vanishes eager); "
                      "writing unshrunk reproducer" % tier_spec)
                _save_unshrunk(
                    corpus_dir, "seed%d_iter%03d_tier.c" % (args.seed, i),
                    program, bad, {"tier": tier_spec,
                                   "backend": backend_spec,
                                   "faults": args.faults,
                                   "cache": cache_config})
                continue
        if args.faults:
            # Is the bug fault-specific?  Ablation/shrink reruns run
            # fault-free, so a divergence that needs injected faults
            # must keep its original program and spec.
            recheck = run_oracle(program.source, bad.args,
                                 max_cycles=args.max_cycles,
                                 cache_config=cache_config,
                                 backend=backend_spec)
            if recheck.ok:
                print("  divergence requires faults=%s (vanishes "
                      "fault-free); writing unshrunk reproducer"
                      % args.faults)
                _save_unshrunk(
                    corpus_dir, "seed%d_iter%03d_faults.c" % (args.seed, i),
                    program, bad, {"faults": args.faults,
                                   "backend": backend_spec,
                                   "cache": cache_config})
                continue
        if cache_config is not None and cache_config.bounded:
            # Is the bug cache-specific?  The ablation/shrink tooling
            # reruns under the default cache, so a bounded-cache-only
            # divergence must keep its original program and config.
            recheck = run_oracle(program.source, bad.args,
                                 max_cycles=args.max_cycles,
                                 backend=backend_spec)
            if recheck.ok:
                print("  divergence requires cache=%s (vanishes "
                      "unbounded); writing unshrunk reproducer"
                      % cache_config.describe())
                _save_unshrunk(
                    corpus_dir, "seed%d_iter%03d_cache.c" % (args.seed, i),
                    program, bad, {"cache": cache_config,
                                   "backend": backend_spec})
                continue
        if args.no_shrink:
            continue
        print("  localizing culprit pass ...")
        ablation = localize_divergence(program.source, bad.args,
                                       max_cycles=args.max_cycles)
        print("  implicated: %s" % ablation.summary())
        print("  shrinking ...")
        before = len(program.source.splitlines())
        shrink_program(program, max_cycles=args.max_cycles)
        after = len(program.source.splitlines())
        print("  shrank %d -> %d lines" % (before, after))
        final = run_oracle(program.source, bad.args,
                           max_cycles=args.max_cycles)
        os.makedirs(corpus_dir, exist_ok=True)
        name = "seed%d_iter%03d.c" % (args.seed, i)
        path = os.path.join(corpus_dir, name)
        with open(path, "w") as handle:
            handle.write(format_reproducer(program, final, ablation))
        print("  wrote %s" % path)
        if trace_tail:
            trace_path = path + ".trace.jsonl"
            with open(trace_path, "w") as handle:
                for event in trace_tail:
                    handle.write(obs_trace.dumps_event(event) + "\n")
            print("  wrote %s (%d events)" % (trace_path,
                                              len(trace_tail)))

    if tracer is not None:
        obs_trace.install(None)
    elapsed = time.time() - started
    print("-" * 70)
    print("fuzz: %d programs, %d divergences, %d invalid, "
          "%d annotation-rejected, %d health flags, %.1fs (seed %d%s)"
          % (args.iters, divergences, compile_errors,
             annotation_rejects, len(health_log), elapsed, args.seed,
             ", faults=%s" % args.faults if args.faults else ""))
    if args.stats and feature_counts:
        print("feature coverage:")
        for feature in sorted(feature_counts,
                              key=lambda f: -feature_counts[f]):
            print("  %-18s %4d/%d"
                  % (feature, feature_counts[feature], args.iters))
    return 1 if divergences else 0


if __name__ == "__main__":
    sys.exit(main())
