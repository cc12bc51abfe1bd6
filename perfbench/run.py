"""The repo benchmark: ``warm``, ``cold`` and ``churn`` against the public
``repro`` API.

    python3 perfbench/run.py --workload warm --seed 1996 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1996

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: it alternates untraced and
traced rounds, prints the per-layer profile per backend and the tracing
overhead, and writes its spans to ``.perfbench-out/``.  ``--workload
all`` runs each workload in its own process, one after another.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run it from the
root of a checkout; it imports ``repro`` from ``src/`` there and exits
non-zero, printing no result, when that is missing.

Host times in the result are normalized by the reference kernel (see
``reference.py``); the printed summary gives the raw times next to them.
"""

import reference

#: this process's set-up time runs from here to the first timed request.
_SETUP = reference.SetupClock()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

#: set-up is measured in this many fresh processes (this one included)
#: and reported as the median.
SETUP_PROCESSES = 3

#: a run stops at the first round boundary past this many seconds, even
#: short of a whole cycle or its minimum request count (which then fails
#: the run).
MAX_SECONDS = 150

#: seconds a child process may take before it is killed.
CHILD_TIMEOUT = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="Seeded warm/cold/churn benchmark of the repro API.")
    parser.add_argument("--workload", required=True,
                        choices=["warm", "cold", "churn", "all"])
    parser.add_argument("--seed", type=int, default=1996,
                        help="input seed (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="timed seconds per run (at least 100 "
                             "requests are always timed)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: traced per-layer run instead of the "
                             "end-to-end run")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _child(argv) -> str:
    """Run this script in a fresh process and return its stdout."""
    done = subprocess.run([sys.executable, os.path.abspath(__file__)]
                          + argv, stdout=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT, universal_newlines=True,
                          cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError("%s exited with %d" % (" ".join(argv),
                                                  done.returncode))
    return done.stdout


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def timed_loop(workload, seconds: float, tracer=None):
    """Run whole cycles until ``seconds`` have passed and at least the
    workload's minimum number of requests has been timed.  Without a
    tracer, the reference kernel is timed right before each request;
    with one, rounds alternate untraced and traced and the kernel is
    not run.  Returns each request's latency, the kernel sample before
    it, its observables, cycles and stitched words, and the errors
    raised."""
    from workloads import observables, stitched_words

    perf = time.perf_counter
    sample = reference.sample
    round_size = workload.round_size
    cycle = round_size * workload.cycle_rounds
    minimum = workload.min_requests()
    latencies, samples, seen, cycles, words, errors = [], [], [], [], [], {}
    start = round_start = perf()
    traced = False
    i = 0
    while True:
        if i % round_size == 0:
            now = perf()
            if tracer is not None and i:
                account = tracer.traced if traced else tracer.untraced
                account[0] += round_size
                account[1] += now - round_start
                if traced:
                    tracer.uninstall()
            elapsed = now - start
            if (i % cycle == 0 and elapsed >= seconds and i >= minimum) \
                    or elapsed >= MAX_SECONDS:
                break
            traced = tracer is not None and (i // round_size) % 2 == 1
            if traced:
                tracer.install()
            round_start = perf()
        if traced:
            tracer.begin_request(i, workload.backend(i))
        elif tracer is None:
            samples.append(sample())
        t0 = perf()
        try:
            result = workload.request(i)
        except Exception:
            latencies.append(perf() - t0)
            errors[i] = traceback.format_exc()
            seen.append(None)
            cycles.append(None)
            words.append(None)
        else:
            latencies.append(perf() - t0)
            seen.append(observables(result))
            cycles.append(result.cycles)
            words.append(stitched_words(result))
        finally:
            if traced:
                tracer.end_request()
        i += 1
    return latencies, samples, seen, cycles, words, errors


def check_all(workload, seen, errors):
    """Failures per request index: raised, or wrong against the
    reference."""
    failures = dict(errors)
    for i, observed in enumerate(seen):
        if observed is not None:
            problem = workload.check(i, seen)
            if problem:
                failures[i] = problem
    for i in sorted(failures)[:5]:
        print("request %d failed: %s" % (i, failures[i]), file=sys.stderr)
    return failures


def prefix_mean(values, count):
    done = [v for v in values[:count] if v is not None]
    return sum(done) / len(done) if done else 0.0


def _table(rows, header):
    width = max(len(r[0]) for r in rows + [header])
    lines = ["%-*s  %s" % (width, header[0], "  ".join(header[1:]))]
    for row in rows:
        lines.append("%-*s  %s" % (width, row[0], "  ".join(row[1:])))
    return "\n".join(lines)


def end_to_end(args, workload, setups):
    from metrics import END_TO_END, GATED

    latencies, samples, seen, cycles, words, errors = timed_loop(
        workload, args.seconds)
    failures = check_all(workload, seen, errors)
    attempted = len(latencies)
    minimum = workload.min_requests()
    if attempted < minimum:
        print("only %d of %d requests in %d s" % (attempted, minimum,
                                                  MAX_SECONDS),
              file=sys.stderr)
        return None
    scaled = [reference.normalize(t, r) for t, r in zip(latencies, samples)]
    values = {
        "setup_s": statistics.median(s for s, _ in setups),
        "req_per_s": attempted / sum(scaled),
        "req_p50_ms": 1e3 * statistics.median(scaled),
        "req_p90_ms": 1e3 * statistics.quantiles(scaled, n=10)[8],
        "sim_cycles_per_req": prefix_mean(cycles, minimum),
        "stitched_words_per_req": prefix_mean(words, minimum),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": len(failures) / attempted,
    }
    print("%s seed=%d: %d requests, %d failed; reference kernel median "
          "%.1f us (nominal %.1f us)" % (
              workload.name, args.seed, attempted, len(failures),
              1e6 * statistics.median(samples), 1e6 * reference.REFERENCE_S))
    print("raw host times: set-up runs %s s; %.4g req/s, p50 %.4g ms, "
          "p90 %.4g ms" % (
              ", ".join("%.3f" % raw for _, raw in setups),
              attempted / sum(latencies), 1e3 * statistics.median(latencies),
              1e3 * statistics.quantiles(latencies, n=10)[8]))
    print(_table([(m.name, "%-10.6g" % values[m.name], "%-6s" % m.unit,
                   m.meaning) for m in END_TO_END],
                 ("metric", "%-10s" % "value", "%-6s" % "unit", "meaning")))
    return attempted, len(failures), {
        m.name: {"value": values[m.name], "unit": m.unit} for m in GATED}


def traced(args, workload, tracer):
    from metrics import PER_LAYER
    from tracer import Profile

    latencies, _, seen, cycles, words, errors = timed_loop(
        workload, args.seconds, tracer)
    failures = check_all(workload, seen, errors)
    views = [("rvm", Profile(tracer, ("rvm",))),
             ("pycode", Profile(tracer, ("pycode",))),
             ("all", Profile(tracer, ("rvm", "pycode")))]
    header = ("metric",) + tuple("%12s" % v for v, _ in views) \
        + ("unit", "moves / heavy in / light in")
    print("%s seed=%d traced: %d untraced + %d traced requests, %d failed"
          % (workload.name, args.seed, tracer.untraced[0],
             tracer.traced[0], len(failures)))
    print(_table([(m.name,) + tuple("%12.5g" % m.value(p) for _, p in views)
                  + (m.unit, "%s / %s / %s" % (m.moves, m.heavy, m.light))
                  for m in PER_LAYER], header))
    print()
    print("time accounting, ms per traced request (self times + GC + "
          "unattributed = wall):")
    names = sorted({name for _, p in views for name in p.span_names()})
    rows = [(name, [p.ms(name) for _, p in views]) for name in names]
    rows.append(("gc pauses", [p.gc_ms() for _, p in views]))
    rows.append(("unattributed", [p.ms("request") for _, p in views]))
    rows.append(("sum", [sum(r[1][k] for r in rows)
                         for k in range(len(views))]))
    rows.append(("traced wall", [p.wall_ms() for _, p in views]))
    lines = [(name,) + tuple("%12.4f" % ms for ms in values)
             for name, values in rows]
    print(_table(lines, ("span",) + tuple("%12s" % v for v, _ in views)))
    combined = views[-1][1]
    (n_u, s_u), (n_t, s_t) = tracer.untraced, tracer.traced
    print("tracing overhead: untraced %.3f req/s, traced %.3f req/s, "
          "ratio %.3f" % (n_u / s_u if s_u else 0.0,
                          n_t / s_t if s_t else 0.0,
                          combined.overhead_ratio()))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "spans-%s-seed%d.tsv" % (workload.name,
                                                       args.seed))
    tracer.write_spans(path)
    print("spans: %s" % os.path.relpath(path, ROOT))
    return len(latencies), len(failures), {
        m.name: {"value": m.value(combined), "unit": m.unit}
        for m in PER_LAYER}


def run_one(args) -> int:
    # (normalized, raw) set-up seconds of each process
    setups = []
    if not args.trace and not args.setup_only:
        # The other processes' set-up is not this process's.
        _SETUP.stop()
        for _ in range(SETUP_PROCESSES - 1):
            child = _last_json(_child(
                ["--workload", args.workload, "--seed", str(args.seed),
                 "--setup-only"]))
            setups.append((child["setup_s"], child["raw_setup_s"]))
        _SETUP.start()
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    from tracer import Tracer

    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        # Set-up runs traced too, so that its stitches count as earlier
        # stitches for the repeat ratio; its spans are discarded.
        tracer.install()
    for _ in workload.setup_steps():
        _SETUP.lap()
    _SETUP.stop()
    setups.append((_SETUP.normalized, _SETUP.raw))
    if tracer is not None:
        tracer.uninstall()
        tracer.discard()
    if args.setup_only:
        print(json.dumps({"setup_s": _SETUP.normalized,
                          "raw_setup_s": _SETUP.raw}))
        return 0
    outcome = traced(args, workload, tracer) if tracer is not None \
        else end_to_end(args, workload, setups)
    if outcome is None:
        return 1
    attempted, failed, metrics = outcome
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    from_children = {}
    for name in ("warm", "cold", "churn"):
        out = _child(["--workload", name, "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace)])
        sys.stdout.write(out)
        print()
        from_children[name] = _last_json(out)
    metrics = {"%s.%s" % (name, metric): value
               for name, result in from_children.items()
               for metric, value in result["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in from_children.values()),
        "attempted": sum(r["attempted"] for r in from_children.values()),
        "failed": sum(r["failed"] for r in from_children.values()),
        "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no repro sources under %s" % SRC, file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
