"""The benchmark's three workloads: ``warm``, ``cold`` and ``churn``.

Each is a closed loop with one client: request ``i`` starts when request
``i - 1`` has returned.  Every input and the request order are generated
from the seed when the workload object is built, before timing starts;
the program under test only ever sees the generated inputs.

A workload's schedule is made of *rounds*: ``warm`` runs each of its 14
programs once a round, ``cold`` each Table 2 workload kind once per
backend, ``churn`` each runtime configuration once per backend.  Rounds
make *cycles*, in which every size level or key cardinality is dealt
once.  Runs end on a cycle boundary, so every run times the same mix of
backends, configurations and sizes, whatever the seed.

Each workload checks every result against a reference that does not
come from the compiler under test (``Workload.expected`` of the Table 2
workloads, a pure-Python model of the cache-pressure program) and, where
the rvm and pycode backends run the same input, that they agree on every
simulated observable.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

import repro
from repro import CacheConfig
from repro.bench import cachepressure
from repro.bench import workloads as table2

BACKENDS = ("rvm", "pycode")

#: every run times at least this many requests (rounded up to whole
#: rounds), so that at least 10 samples lie beyond the 90th percentile.
MIN_REQUESTS = 100

#: rounds generated ahead of timing for ``warm`` and ``churn``; a run
#: that outlasts them starts over from the first round.
SCHEDULE_ROUNDS = 2000


def derive(seed: int, purpose: str) -> int:
    """A seed for one purpose, derived from the run's seed."""
    return random.Random("%d:%s" % (seed, purpose)).randrange(1 << 30)


def observables(result) -> tuple:
    """The simulated observables every backend must reproduce exactly."""
    return (result.value, result.float_value, tuple(result.output),
            result.cycles, result.cycles_by_owner, result.instrs_by_owner,
            result.op_counts)


def stitched_words(result) -> int:
    return sum(report.instrs_emitted for report in result.stitch_reports)


class Workload:
    """Base: subclasses build the schedule in ``__init__`` and compile
    in ``setup_steps``; ``request(i)`` is the timed call."""

    name = ""
    #: requests per round.
    round_size = 1
    #: rounds in which the schedule deals every size level or key
    #: cardinality once.
    cycle_rounds = 1

    def min_requests(self) -> int:
        """Whole cycles, at least ``MIN_REQUESTS``.  The simulated counts
        are averaged over exactly these first requests, so they repeat
        for a seed and every seed averages the same mix of sizes."""
        cycle = self.round_size * self.cycle_rounds
        return -(-MIN_REQUESTS // cycle) * cycle

    def backend(self, i: int) -> str:
        raise NotImplementedError

    def setup_steps(self):
        """Set-up, as a generator that yields after each step (a
        compile, a warm-up request), so that the caller can time the
        steps one by one."""
        raise NotImplementedError

    def setup(self) -> None:
        for _ in self.setup_steps():
            pass

    def request(self, i: int):
        raise NotImplementedError

    def check(self, i: int, seen: List[Optional[tuple]]) -> Optional[str]:
        """Why request ``i`` is wrong, or None.  ``seen[j]`` holds the
        observables of request ``j`` (None if it raised)."""
        raise NotImplementedError


def _mismatch(what: str, got, want) -> Optional[str]:
    if got == want:
        return None
    return "%s: got %r, want %r" % (what, got, want)


# ---------------------------------------------------------------------------
# warm: repeated calls to already compiled programs
# ---------------------------------------------------------------------------

#: Table 2 problem sizes for ``warm``.  At full size one program (rvm
#: scalar-matrix, 1/14 of the requests) runs 3x longer than any other,
#: which puts the 90th latency percentile on a cliff between two
#: programs; at half size the slowest programs are close together.
WARM_SCALE = 0.5


class Warm(Workload):
    """The seven Table 2 configurations under both backends, compiled
    and run once in set-up; each request is one ``Program.run()``."""

    name = "warm"

    def __init__(self, seed: int):
        self.configs = [(w, b) for w in table2.all_workloads(
            scale=WARM_SCALE, seed=seed) for b in BACKENDS]
        self.round_size = len(self.configs)
        rng = random.Random(derive(seed, "warm-order"))
        self.order: List[int] = []
        for _ in range(SCHEDULE_ROUNDS):
            self.order += rng.sample(range(self.round_size),
                                     self.round_size)
        self.programs: List = []
        self.reference: List[tuple] = []

    def _slot(self, i: int) -> int:
        return self.order[i % len(self.order)]

    def backend(self, i: int) -> str:
        return self.configs[self._slot(i)][1]

    def setup_steps(self):
        for w, b in self.configs:
            program = repro.compile_program(w.source, backend=b)
            result = program.run()
            problem = _mismatch("%s on %s" % (w.name, b), result.value,
                                w.expected)
            if problem:
                raise RuntimeError("set-up run failed: " + problem)
            self.programs.append(program)
            self.reference.append(observables(result))
            yield

    def request(self, i: int):
        return self.programs[self._slot(i)].run()

    def check(self, i, seen):
        slot = self._slot(i)
        w, b = self.configs[slot]
        # The rvm set-up run of the same configuration is the reference
        # for both backends: configs alternate rvm, pycode.
        rvm_slot = slot - (slot % 2)
        return (_mismatch("value", seen[i][0], w.expected)
                or _mismatch("observables vs rvm", seen[i],
                             self.reference[rvm_slot]))


# ---------------------------------------------------------------------------
# cold: compile a new program and run it once
# ---------------------------------------------------------------------------

# Calculator RPN opcodes, as the MiniC template interprets them.
_PUSH_CONST, _PUSH_X, _PUSH_Y, _ADD, _SUB, _MUL = range(6)


def rpn_expression(rng: random.Random, length: int
                   ) -> List[Tuple[int, int]]:
    """A well-formed RPN program of about ``length`` operations over x,
    y and small constants, keeping the stack at most 6 deep."""
    ops: List[Tuple[int, int]] = []
    depth = 0
    while len(ops) < length or depth > 1:
        if depth >= 2 and (len(ops) >= length or depth >= 6
                           or rng.random() < 0.45):
            ops.append((rng.choice((_ADD, _SUB, _MUL)), 0))
            depth -= 1
        else:
            kind = rng.choice((_PUSH_CONST, _PUSH_X, _PUSH_Y))
            ops.append((kind, rng.randint(1, 9) if kind == _PUSH_CONST
                        else 0))
            depth += 1
    return ops


def cold_variant(rng: random.Random, kind: int,
                 level: float) -> table2.Workload:
    """A seeded variant of one of the five Table 2 workloads.  ``level``
    in [0, 1) sets the sizes; the seed draws the RPN expression, the
    sparse pattern, the guard list, the record set and the key list.
    The sizes make each compile promote enough objects that a full GC
    lands on about one request in five, clear of the 90th latency
    percentile."""
    def size(lo: int, hi: int) -> int:
        return lo + int(level * (hi - lo + 1))

    if kind == 0:
        return table2.calculator_workload(
            xs=size(3, 5), ys=size(3, 5),
            ops=rpn_expression(rng, size(25, 41)))
    if kind == 1:
        return table2.scalar_matrix_workload(
            rows=size(4, 8), cols=size(8, 16), scalars=size(4, 8))
    if kind == 2:
        return table2.sparse_matvec_workload(
            size=size(20, 30), per_row=size(3, 5), reps=size(2, 4),
            seed=rng.randrange(1 << 30))
    if kind == 3:
        return table2.event_dispatcher_workload(
            nguards=size(12, 20), events=size(30, 70),
            seed=rng.randrange(1 << 30))
    keys = [(rng.randrange(4), rng.randrange(3))
            for _ in range(size(1, 3))]
    return table2.record_sorter_workload(
        count=size(60, 100), keys=keys, seed=rng.randrange(1 << 30))


#: rounds of variants generated ahead of timing (about twice what a
#: 30-second run uses today); a longer run starts over from the first.
COLD_ROUNDS = 40

#: size levels per workload kind and backend.  Each (kind, backend) is
#: dealt its levels from its own shuffled deck, so every seed's schedule
#: compiles the same sizes on the same backends in each cycle of
#: ``COLD_LEVELS`` rounds; only the programs' contents and order differ.
COLD_LEVELS = 5

#: size level of the untimed warm-up variants: the same for every seed,
#: so that set-up does the same amount of work whatever the seed.
COLD_WARMUP_LEVEL = 0.5


def cold_schedule(seed: int, rounds: int,
                  level: Optional[float] = None) -> List[table2.Workload]:
    """``rounds`` rounds of 10 variants: a seeded order of the five
    kinds, twice, so that with backends alternating request by request
    each kind runs once on each backend per round.  With ``level``,
    every variant has that size level instead of one dealt from the
    decks."""
    rng = random.Random(seed)
    decks = [[[] for _ in BACKENDS] for _ in range(5)]
    variants: List[table2.Workload] = []
    for _ in range(rounds):
        order = rng.sample(range(5), 5)
        for position, kind in enumerate(order + order):
            if level is None:
                deck = decks[kind][position % len(BACKENDS)]
                if not deck:
                    deck += rng.sample(range(COLD_LEVELS), COLD_LEVELS)
                size = (deck.pop() + 0.5) / COLD_LEVELS
            else:
                size = level
            variants.append(cold_variant(rng, kind, size))
    return variants


class Cold(Workload):
    """Each request compiles one new program with ``compile_program``
    and runs it once; the backend alternates request by request."""

    name = "cold"
    round_size = 10
    # Each (kind, backend) runs once a round, so its deck of levels
    # lasts COLD_LEVELS rounds.
    cycle_rounds = COLD_LEVELS

    def __init__(self, seed: int):
        self.variants = cold_schedule(seed, COLD_ROUNDS)
        # One untimed warm-up round fills process-wide caches (pycode's
        # segment factory cache); its inputs come from another seed.
        self.warmups = cold_schedule(derive(seed, "cold-warmup"), 1,
                                     COLD_WARMUP_LEVEL)

    def backend(self, i: int) -> str:
        return BACKENDS[i % 2]

    def setup_steps(self):
        for i, w in enumerate(self.warmups):
            result = repro.compile_program(
                w.source, backend=self.backend(i)).run()
            problem = _mismatch(w.name, result.value, w.expected)
            if problem:
                raise RuntimeError("warm-up request failed: " + problem)
            yield

    def request(self, i: int):
        w = self.variants[i % len(self.variants)]
        return repro.compile_program(w.source, backend=self.backend(i)).run()

    def check(self, i, seen):
        w = self.variants[i % len(self.variants)]
        return _mismatch("value", seen[i][0], w.expected)


# ---------------------------------------------------------------------------
# churn: the code cache under write pressure, plus the adaptive runtime
# ---------------------------------------------------------------------------

#: region entries per request (``n`` of the cache-pressure ``main``).
CHURN_ENTRIES = 120

#: runtime configurations, rotated pair by pair.
CHURN_CONFIGS = (
    {"cache": CacheConfig(policy="lru", max_entries=2),
     "tier": "eager", "stitch": "sync"},
    {"cache": CacheConfig(policy="cost-aware", max_entries=4),
     "tier": "eager", "stitch": "sync"},
    {"cache": CacheConfig(policy="lru", max_entries=4),
     "tier": "breakeven", "stitch": "async"},
)


def churn_reference(n: int, card: int, seed: int) -> int:
    """Pure-Python model of ``cachepressure.SOURCE``'s ``main``: the
    ``r = (r*29+13) % 64`` key stream, the skewed key choice, and the
    region sum ``v + sum(i*k + 1 for i < k+2)``."""
    r = seed
    total = 0
    for v in range(n):
        r = (r * 29 + 13) % 64
        k = r % 2 + card - 2 if r < 32 else r % card
        total += v + sum(i * k + 1 for i in range(k + 2))
    return total


#: key cardinalities; each configuration is dealt them from its own
#: shuffled deck, so every seed's first rounds give every configuration
#: the same mix.
CHURN_CARDS = tuple(range(4, 17))


#: key cardinality of the untimed warm-up pairs, the same for every seed.
CHURN_WARMUP_CARD = 10


def churn_inputs(seed: int, pairs: int,
                 card: Optional[int] = None) -> List[Tuple[int, int]]:
    """(cardinality, key-stream seed) per rvm/pycode request pair; with
    ``card``, every pair has that cardinality instead of one dealt from
    the decks."""
    rng = random.Random(seed)
    decks: List[List[int]] = [[] for _ in CHURN_CONFIGS]
    inputs = []
    for pair in range(pairs):
        if card is None:
            deck = decks[pair % len(CHURN_CONFIGS)]
            if not deck:
                deck += rng.sample(CHURN_CARDS, len(CHURN_CARDS))
            inputs.append((deck.pop(), rng.randrange(64)))
        else:
            inputs.append((card, rng.randrange(64)))
    return inputs


class Churn(Workload):
    """The cache-pressure program, compiled once per backend; requests
    come in rvm/pycode pairs with identical inputs, and the runtime
    configuration rotates pair by pair."""

    name = "churn"
    round_size = 2 * len(CHURN_CONFIGS)
    cycle_rounds = len(CHURN_CARDS)

    def __init__(self, seed: int):
        self.inputs = churn_inputs(seed,
                                   SCHEDULE_ROUNDS * len(CHURN_CONFIGS))
        self.warmup_inputs = churn_inputs(derive(seed, "churn-warmup"),
                                          len(CHURN_CONFIGS),
                                          CHURN_WARMUP_CARD)
        self.programs: Dict[str, object] = {}
        self._expected: Dict[Tuple[int, int], int] = {}

    def backend(self, i: int) -> str:
        return BACKENDS[i % 2]

    def _run(self, backend: str, pair: int, card: int, seed: int):
        config = CHURN_CONFIGS[pair % len(CHURN_CONFIGS)]
        return self.programs[backend].run(
            "main", [CHURN_ENTRIES, card, seed], **config)

    def setup_steps(self):
        for b in BACKENDS:
            self.programs[b] = repro.compile_program(cachepressure.SOURCE,
                                                     backend=b)
            yield
        for pair, (card, seed) in enumerate(self.warmup_inputs):
            for b in BACKENDS:
                result = self._run(b, pair, card, seed)
                problem = _mismatch("warm-up", result.value,
                                    self.expected(card, seed))
                if problem:
                    raise RuntimeError("warm-up request failed: " + problem)
                yield

    def request(self, i: int):
        pair = i // 2
        card, seed = self.inputs[pair % len(self.inputs)]
        return self._run(self.backend(i), pair, card, seed)

    def expected(self, card: int, seed: int) -> int:
        value = self._expected.get((card, seed))
        if value is None:
            value = self._expected[card, seed] = churn_reference(
                CHURN_ENTRIES, card, seed)
        return value

    def check(self, i, seen):
        card, seed = self.inputs[(i // 2) % len(self.inputs)]
        problem = _mismatch("value", seen[i][0], self.expected(card, seed))
        if problem or i % 2 == 0 or seen[i - 1] is None:
            return problem
        return _mismatch("observables vs rvm", seen[i], seen[i - 1])


WORKLOADS = {cls.name: cls for cls in (Warm, Cold, Churn)}
