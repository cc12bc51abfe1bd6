"""Differential fuzzing CLI: the standing correctness harness.

Usage::

    python -m repro.fuzz --seed 0 --iters 200
    python -m repro.fuzz --seed 7 --iters 50 --max-stmts 20
    python -m repro.fuzz --seed 0 --iters 200 --corpus-dir tests/corpus
    python -m repro.fuzz --iters 150 --config faults=all:0.1   # chaos

Each iteration draws one whole program from
:mod:`repro.testing.genprog` (deterministically from ``seed`` plus the
iteration number), draws a run configuration for it
(:func:`random_config`; ``--config`` pins the fields it names), runs
it through the three-way oracle (:mod:`repro.testing.oracle`), and on
divergence localizes the culprit pass (:mod:`repro.testing.ablate`),
shrinks the program to a minimal reproducer and writes it under
``--corpus-dir``.

Exit status is 0 when every iteration agreed, 1 when any divergence
was found.  CI runs a bounded configuration of this command and
uploads whatever lands in the corpus directory as build artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import random
import re
import sys
import time
from typing import Dict, List, Optional, Tuple

from .codecache import CacheConfig
from .obs import trace as obs_trace
from .runtime.config import RunConfig
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
    path."""
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
    the historical stitch-at-entry path."""
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


def random_config(seed: int, iteration: int) -> RunConfig:
    """The run configuration one fuzz iteration draws: backend, cache,
    tier and stitch from four independent mixers, so their
    combinations cover the cross product over a fuzz run.  Faults are
    never drawn (``--config faults=...`` pins them)."""
    return RunConfig(backend=random_backend(seed, iteration),
                     cache=random_cache_config(seed, iteration),
                     tier=random_tier_policy(seed, iteration),
                     stitch=random_stitch_config(seed, iteration))


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
             config: Optional[RunConfig] = None,
             health_log: Optional[List[str]] = None):
    """Generate and check one program.

    Returns ``(program, bad_report, annotation_rejected)``:
    ``bad_report`` is the first failing :class:`OracleReport` (or the
    report when every leg rejects the program -- a generator bug), or
    ``None`` when every argument agreed.  ``annotation_rejected`` is
    True when the dynamic path legitimately refused the region shape
    for some argument (the splitter's AnnotationError).  ``config``
    is the oracle's run configuration (see :func:`run_oracle`).
    When ``health_log`` is given, every oracle report is additionally
    cross-checked via :func:`health_flags` and anomaly strings are
    appended to it.
    """
    config = config or RunConfig()
    program = generate_program(seed * 1_000_003 + iteration,
                               max_stmts=max_stmts)
    source = program.source
    rejected = False
    for arg in program.args:
        report = run_oracle(source, [arg], max_cycles=max_cycles,
                            config=config)
        rejected = rejected or report.annotation_reject
        if health_log is not None and not report.compile_error:
            for flag in health_flags(report, config.faults is not None):
                health_log.append("iter %d arg %d: %s"
                                  % (iteration, arg, flag))
        if report.compile_error:
            return program, report, rejected
        if not report.ok:
            return program, report, rejected
    return program, None, rejected


def reproducer_config(text: str, base: Optional[RunConfig] = None
                      ) -> Tuple[List[int], RunConfig]:
    """A reproducer's ``// args:`` values, and ``base`` (default: the
    default config) with the fields its ``// config:`` header names
    replaced."""
    match = re.search(r"^// args:\s*(.*)$", text, re.MULTILINE)
    args = [int(tok) for tok in match.group(1).split()] if match else []
    match = re.search(r"^// config:(.*)$", text, re.MULTILINE)
    return args or [0], RunConfig.parse(match and match.group(1), base)


def _save_unshrunk(corpus_dir: str, name: str, program, report,
                   config: RunConfig) -> None:
    """Write a configuration-specific divergence unshrunk (ablation and
    shrinking rerun under the default configuration), with a
    ``// config:`` header recording the configuration it ran under, so
    it replays the same way."""
    os.makedirs(corpus_dir, exist_ok=True)
    path = os.path.join(corpus_dir, name)
    with open(path, "w") as handle:
        handle.write("// config: %s\n" % config.describe())
        handle.write(format_reproducer(program, report, None))
    print("  wrote %s" % path)


def _replay_corpus(directory: str, config: RunConfig,
                   max_cycles: int) -> int:
    """Replay every ``*.c`` reproducer in ``directory`` through the
    oracle under ``config`` -- the CI proof that neither eviction nor
    graceful degradation nor tiering nor async stitch queueing nor the
    backend seam ever changes program results on known-tricky
    programs.  A reproducer's ``// config:`` header overrides the
    fields it names."""
    import glob

    paths = sorted(glob.glob(os.path.join(directory, "*.c")))
    if not paths:
        print("no *.c reproducers under %s" % directory, file=sys.stderr)
        return 1
    failures = 0
    for path in paths:
        with open(path) as handle:
            text = handle.read()
        arg_list, recorded = reproducer_config(text, config)
        for arg in arg_list:
            report = run_oracle(text, [arg], max_cycles=max_cycles,
                                config=recorded)
            if report.annotation_reject or report.ok:
                continue
            failures += 1
            print("%s (arg %d, config %r):"
                  % (path, arg, recorded.describe() or "default"))
            for divergence in report.divergences:
                print("  " + str(divergence))
    print("replay: %d reproducers under config %r, %d failures"
          % (len(paths), config.describe() or "default", failures))
    return 1 if failures else 0


def _save_if_config_specific(program, report, config: RunConfig,
                             max_cycles: int, corpus_dir: str, seed: int,
                             iteration: int) -> bool:
    """Ablation and shrinking rerun under the default configuration,
    so a divergence that needs a non-default setting must keep its
    original program.  Reset stitch, tier, faults and cache to their
    defaults in turn; when a reset makes the divergence vanish, save
    the program unshrunk under the last config before that reset and
    return True."""
    default = RunConfig()
    for name in ("stitch", "tier", "faults", "cache"):
        reset = dataclasses.replace(config,
                                    **{name: getattr(default, name)})
        if reset == config:
            continue
        if run_oracle(program.source, report.args, max_cycles=max_cycles,
                      config=reset).ok:
            print("  divergence vanishes with %s at its default; "
                  "writing unshrunk reproducer under config %r"
                  % (name, config.describe()))
            _save_unshrunk(corpus_dir, "seed%d_iter%03d_%s.c"
                           % (seed, iteration, name), program, report,
                           config)
            return True
        config = reset
    return False


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
    parser.add_argument("--config", default="", metavar="SPEC",
                        help="pin the run-configuration fields SPEC "
                             "names (FIELD=SPEC tokens over backend, "
                             "cache, faults, tier, stitch; e.g. "
                             "\"faults=all:0.1 tier=eager\"); every "
                             "other field but faults is drawn per "
                             "iteration.  With --replay: the config "
                             "reproducers run under, where their "
                             "// config: headers do not override it")
    parser.add_argument("--replay", default=None, metavar="DIR",
                        help="replay DIR/*.c reproducers through the "
                             "oracle instead of generating programs")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    pinned = RunConfig.from_cli(args.config)
    if args.replay is not None:
        return _replay_corpus(args.replay, pinned, args.max_cycles)

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
        config = RunConfig.parse(args.config,
                                 random_config(args.seed, i))
        program, bad, rejected = fuzz_one(
            args.seed, i, max_stmts=args.max_stmts,
            max_cycles=args.max_cycles, config=config,
            health_log=health_log)
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
        print("iter %d (seed %d): DIVERGENCE with args=%s config %r"
              % (i, args.seed, bad.args, config.describe() or "default"))
        for divergence in bad.divergences:
            print("  " + str(divergence))
        if _save_if_config_specific(program, bad, config, args.max_cycles,
                                    corpus_dir, args.seed, i):
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
             ", config %r" % args.config if args.config else ""))
    if args.stats and feature_counts:
        print("feature coverage:")
        for feature in sorted(feature_counts,
                              key=lambda f: -feature_counts[f]):
            print("  %-18s %4d/%d"
                  % (feature, feature_counts[feature], args.iters))
    return 1 if divergences else 0


if __name__ == "__main__":
    sys.exit(main())
