"""Outside-in layer profile: time the calls into each layer's public
entry points by wrapping them from the benchmark, not from inside the
program.

Which bindings are wrapped matters:

* the pipeline and runtime functions are patched on
  ``repro.runtime.engine``, the namespace the engine calls them through
  (patching their defining modules would miss every call the engine
  makes);
* ``ExecutionBackend.execute`` is wrapped once, on the base class, and
  split by ``self.name`` (neither backend overrides it);
* ``_RegionRuntime.lookup``/``.stitch`` are wrapped on the class:
  ``Program.run`` binds them into ``vm.rt_handlers`` on every call, so
  the class-level wrap is what the VM calls;
* ``compile_program`` is patched on the ``repro`` package, the name the
  workloads call.

Every timed request is a root span.  A span's self time is its duration
minus its child spans and minus the GC pauses (``gc.callbacks``) that
ran while it was the innermost span, so per request the self times of
all spans plus the GC pauses add up to the request's wall time exactly;
the root span's self time is the unattributed remainder.  Spans are kept
in memory and written out when the run ends.

Span records live in a flat ``array``, not in tuples: a tuple per span
would be a GC-tracked object, and that many of them would trigger extra
full collections, each of which walks every live VM's memory list.
"""

from __future__ import annotations

import gc
import itertools
import statistics
import time
import weakref
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

import repro
from repro.backends.base import ExecutionBackend
from repro.backends.pycode import PycodeBackend
from repro.codecache.cache import CodeCache
from repro.machine.vm import VM
from repro.runtime import engine
from repro.runtime.stitchqueue import StitchQueue
from repro.runtime.tiering import TierController

#: the names ``repro.runtime.engine`` imports into its own namespace.
ENGINE_FUNCTIONS = (
    "parse", "check", "build_module", "to_ssa", "optimize", "split_module",
    "from_ssa", "lower_module", "load_program", "stitch_entry",
    "build_fallback",
)

#: (class, method) pairs wrapped at class level.
METHODS = (
    (VM, "__init__"), (VM, "reset_for_rerun"),
    (PycodeBackend, "prepare_vm"), (PycodeBackend, "entry_installed"),
    (PycodeBackend, "block_installed"),
    (CodeCache, "lookup"), (CodeCache, "insert"), (CodeCache, "compact"),
    (engine._RegionRuntime, "lookup"), (engine._RegionRuntime, "stitch"),
    (TierController, "decide"), (StitchQueue, "on_entry"),
)

# A frame on the span stack: [child duration, own GC pause, GC pause
# inside children].
_CHILD, _GC_OWN, _GC_SUB = range(3)

#: fields of one span record: request, (backend, name) index, start,
#: duration, self time, GC pause inside, depth.
_FIELDS = 7


class Tracer:
    """Span recorder for one workload process."""

    def __init__(self):
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._gc_start = 0.0
        self._epoch = time.perf_counter()
        self._request_start = 0.0
        #: (backend, counter name) -> total.
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        #: backend -> entries-to-land latencies of landed stitch jobs.
        self.land_latencies: Dict[str, List[int]] = defaultdict(list)
        #: span records, ``_FIELDS`` numbers each.
        self.spans = array("d")
        #: (backend, span name) <-> index in the span records.
        self._keys: Dict[Tuple[str, str], int] = {}
        self._totals = None
        #: a serial per live ``Program``, assigned on its first traced run.
        self._programs = weakref.WeakKeyDictionary()
        self._serials = itertools.count()
        self._program = -1
        #: stitches seen so far: (program serial, cache key, fingerprint).
        self._stitched: set = set()
        self.request = -1
        self.backend = ""
        #: untraced/traced request counts and wall seconds, for the
        #: tracing-overhead ratio.
        self.untraced = [0, 0.0]
        self.traced = [0, 0.0]

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for name in ENGINE_FUNCTIONS:
            self._patch(engine, name,
                        self._span(name, getattr(engine, name)))
        for cls, method in METHODS:
            self._patch(cls, method,
                        self._span("%s.%s" % (cls.__name__, method),
                                   cls.__dict__[method]))
        self._patch(ExecutionBackend, "execute",
                    self._span(lambda args: "ExecutionBackend.execute:%s"
                               % args[0].name,
                               ExecutionBackend.__dict__["execute"]))
        self._patch(engine.Program, "run",
                    self._program_run(engine.Program.__dict__["run"]))
        self._patch(repro, "compile_program",
                    self._span("compile_program", repro.compile_program))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, wrapper) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    # -- spans -------------------------------------------------------------

    def begin_request(self, index: int, backend: str) -> None:
        self.request = index
        self.backend = backend
        self._stack.append([0.0, 0.0, 0.0])
        self._request_start = time.perf_counter()

    def end_request(self) -> None:
        end = time.perf_counter()
        self._close("request", self._stack.pop(), self._request_start, end)
        self.counts[self.backend, "requests"] += 1
        self.counts[self.backend, "wall_s"] += end - self._request_start

    def _close(self, name: str, frame: list, start: float,
               end: float) -> None:
        duration = end - start
        gc_total = frame[_GC_OWN] + frame[_GC_SUB]
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent[_CHILD] += duration
            parent[_GC_SUB] += gc_total
        key = (self.backend, name)
        index = self._keys.get(key)
        if index is None:
            index = self._keys[key] = len(self._keys)
        self.spans.extend((self.request, index, start - self._epoch,
                           duration,
                           duration - frame[_CHILD] - frame[_GC_OWN],
                           gc_total, len(stack)))

    def records(self):
        """Span records as (request, backend, name, start, duration,
        self, gc, depth) tuples."""
        names = {index: key for key, index in self._keys.items()}
        spans = self.spans
        for at in range(0, len(spans), _FIELDS):
            request, index, start, duration, own, gc_s, depth = \
                spans[at:at + _FIELDS]
            backend, name = names[int(index)]
            yield (int(request), backend, name, start, duration, own, gc_s,
                   int(depth))

    def totals(self):
        """(backend, span) -> self seconds, and -> duration less GC."""
        if self._totals is None:
            own: Dict[Tuple[str, str], float] = defaultdict(float)
            inclusive: Dict[Tuple[str, str], float] = defaultdict(float)
            for _, backend, name, _, duration, self_s, gc_s, _ \
                    in self.records():
                own[backend, name] += self_s
                inclusive[backend, name] += duration - gc_s
            self._totals = own, inclusive
        return self._totals

    def _span(self, name, fn: Callable) -> Callable:
        """Wrap ``fn`` in a span; ``name`` is a string or a function of
        the call's positional arguments.  Spans named in ``_AFTER`` also
        record counts from the call's result, at the layer boundary."""
        after = _AFTER.get(name) if isinstance(name, str) else None
        stack = self._stack
        perf = time.perf_counter
        close = self._close
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            span = name if isinstance(name, str) else name(args)
            frame = [0.0, 0.0, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf()
                stack.pop()
                close(span, frame, start, end)
                counts[tracer.backend, span + ".errors"] += 1
                raise
            end = perf()
            stack.pop()
            close(span, frame, start, end)
            if after is not None:
                after(tracer, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _program_run(self, run: Callable) -> Callable:
        """``Program.run`` plus the counts read from its result and from
        the program's pycode backend counters around the call."""
        span = self._span("Program.run", run)
        counts = self.counts
        tracer = self

        def wrapper(program, *args, **kwargs):
            serial = tracer._programs.get(program)
            if serial is None:
                serial = tracer._programs[program] = next(tracer._serials)
            tracer._program = serial
            backend = program.backend
            segments = getattr(backend, "segments_compiled", 0)
            hits = getattr(backend, "factory_cache_hits", 0)
            result = span(program, *args, **kwargs)
            b = tracer.backend
            counts[b, "pycode.segments"] += \
                getattr(backend, "segments_compiled", 0) - segments
            counts[b, "pycode.factory_hits"] += \
                getattr(backend, "factory_cache_hits", 0) - hits
            counts[b, "exec.instrs"] += sum(result.op_counts.values())
            stats = result.cache_stats
            counts[b, "cache.evictions"] += stats.evictions
            counts[b, "cache.compactions"] += stats.compactions
            counts[b, "rt.region_entries"] += \
                sum(result.region_entries.values())
            counts[b, "rt.fallback_entries"] += (
                len(result.cold_entries) + len(result.queued_entries)
                + len(result.fallbacks))
            queue = result.queue_stats
            if queue is not None:
                counts[b, "queue.enqueued"] += queue.enqueued
                counts[b, "queue.landed"] += queue.landed
                tracer.land_latencies[b].extend(queue.land_latencies)
            return result

        wrapper.__wrapped__ = run
        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        if not self._stack:
            return  # outside a traced request
        pause = time.perf_counter() - self._gc_start
        self._stack[-1][_GC_OWN] += pause
        self.counts[self.backend, "gc.pause_s"] += pause
        if info.get("generation") == 2:
            self.counts[self.backend, "gc.full"] += 1

    def note_stitch(self, entry) -> None:
        counts = self.counts
        b = self.backend
        counts[b, "stitch.ok"] += 1
        counts[b, "stitch.words"] += entry.words
        identity = (self._program, entry.key, entry.table_fingerprint)
        if identity in self._stitched:
            counts[b, "stitch.repeats"] += 1
        else:
            self._stitched.add(identity)

    def discard(self) -> None:
        """Forget every recorded span and count (keeps the stitches seen,
        so set-up stitches count as earlier stitches)."""
        self.counts.clear()
        self.land_latencies.clear()
        del self.spans[:]
        self._totals = None

    def write_spans(self, path: str) -> None:
        with open(path, "w") as out:
            out.write("request\tbackend\tspan\tstart_s\tduration_s\tself_s"
                      "\tgc_s\tdepth\n")
            for record in self.records():
                out.write("%d\t%s\t%s\t%.9f\t%.9f\t%.9f\t%.9f\t%d\n"
                          % record)


def _after_optimize(tracer, stats) -> None:
    tracer.counts[tracer.backend, "opt.rewrites"] += stats.total()


def _after_lower(tracer, compiled) -> None:
    tracer.counts[tracer.backend, "codegen.static_words"] += sum(
        len(function.code) for function in compiled.values())


def _after_lookup(tracer, entry) -> None:
    counts = tracer.counts
    counts[tracer.backend, "cache.lookups"] += 1
    if entry is not None:
        counts[tracer.backend, "cache.hits"] += 1


#: span name -> hook reading counts from the call's result.
_AFTER = {
    "optimize": _after_optimize,
    "lower_module": _after_lower,
    "stitch_entry": Tracer.note_stitch,
    "CodeCache.lookup": _after_lookup,
}


class Profile:
    """Per-request layer metrics over a subset of backends."""

    def __init__(self, tracer: Tracer, backends: Tuple[str, ...]):
        self.tracer = tracer
        self.backends = backends
        self.requests = self.count("requests")

    def _sum(self, table, name: str) -> float:
        return sum(table.get((b, name), 0) for b in self.backends)

    def count(self, name: str) -> float:
        return self._sum(self.tracer.counts, name)

    def self_seconds(self, name: str) -> float:
        return self._sum(self.tracer.totals()[0], name)

    def per_request(self, name: str) -> float:
        return self.count(name) / self.requests if self.requests else 0.0

    def ms(self, *spans: str) -> float:
        if not self.requests:
            return 0.0
        return 1e3 * sum(self.self_seconds(s) for s in spans) / self.requests

    def us(self, *spans: str) -> float:
        return 1e3 * self.ms(*spans)

    def inclusive_ms(self, span: str) -> float:
        if not self.requests:
            return 0.0
        return 1e3 * self._sum(self.tracer.totals()[1], span) / self.requests

    def ratio(self, numerator: str, base: str) -> float:
        """``numerator / base``; 0 when the base is 0."""
        den = self.count(base)
        return self.count(numerator) / den if den else 0.0

    def ratio_s(self, span: str, base: str) -> float:
        """Self seconds of ``span`` per unit of the ``base`` count."""
        den = self.count(base)
        return self.self_seconds(span) / den if den else 0.0

    def minstr_per_s(self, backend: str) -> float:
        seconds = self.self_seconds("ExecutionBackend.execute:%s" % backend)
        if backend not in self.backends or not seconds:
            return 0.0
        instrs = self.tracer.counts.get((backend, "exec.instrs"), 0)
        return instrs / seconds / 1e6

    def gc_ms(self) -> float:
        return 1e3 * self.per_request("gc.pause_s")

    def wall_ms(self) -> float:
        return 1e3 * self.per_request("wall_s")

    def queue_wait_p50(self) -> float:
        waits = [w for b in self.backends
                 for w in self.tracer.land_latencies.get(b, ())]
        return float(statistics.median(waits)) if waits else 0.0

    def overhead_ratio(self) -> float:
        """Untraced req/s over traced req/s, both from the same run."""
        (n_u, s_u), (n_t, s_t) = self.tracer.untraced, self.tracer.traced
        if not (n_u and s_u and n_t and s_t):
            return 0.0
        return (n_u / s_u) / (n_t / s_t)

    def span_names(self) -> List[str]:
        return sorted({name for (b, name) in self.tracer.totals()[0]
                       if b in self.backends and name != "request"})
