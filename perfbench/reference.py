"""The reference kernel that every host time of the benchmark is scaled by.

The host this benchmark runs on is shared: other tenants' load makes the
same Python code run 20-60% slower for minutes at a time, so raw
wall-clock times of runs made minutes apart differ by more than any
regression worth catching.  The slowdown reaches all code running at the
same moment, so the benchmark times a fixed pure-Python kernel right
before each timed request and scales the request's time by it:

    normalized = measured * (REFERENCE_S / kernel time) ** ELASTICITY

A normalized time is the time the request would have taken on a host
where the kernel takes exactly ``REFERENCE_S``; it is reported in the
same unit as the raw time.  The kernel never calls into ``repro`` and
allocates no object the cyclic garbage collector tracks, so it neither
triggers collections nor moves the program's collection schedule.
"""

import time

#: the kernel's duration on the reference host, in seconds: about its
#: median on a 2-vCPU Xeon at 2.1 GHz with CPython 3.11.
REFERENCE_S = 0.0007

#: how the program's time moves with the kernel's.  Contention that makes
#: the kernel, pure interpreter work, take ``s`` times as long makes the
#: program take about ``s ** ELASTICITY`` times as long: part of the
#: program's time goes to waiting on memory, which that contention slows
#: less.  Over 20 runs of 30 s per workload on the host above, with
#: kernel medians from 0.41 to 0.96 ms, raw latencies and rates moved
#: with the kernel's median by a power of 0.68 to 0.94 (by workload and
#: metric); 0.85 keeps both the spread within ten runs and the shift
#: between two sets of ten small on every workload.
ELASTICITY = 0.85

_OPS = (lambda r, a: r + a,
        lambda r, a: r ^ a,
        lambda r, a: (r * a) & 0xFFFF)


class _Cell:
    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v


_CELLS = [_Cell(i) for i in range(64)]
_NAMES = ["n%d" % i for i in range(16)]
_TABLE = dict.fromkeys(_NAMES, 0)


def kernel() -> int:
    """A fixed amount of interpreter work of the kinds the program does
    on the host: closure calls, list indexing, attribute and dict updates
    and small-integer arithmetic.  Its data is a few kilobytes and every
    integer it makes replaces the one it was computed from, so its time
    depends neither on what the request before it left in the caches
    nor on the state of the program's heap."""
    # One name per statement: a multiple assignment of more than three
    # names builds a tuple, which the collector tracks.
    ops = _OPS
    cells = _CELLS
    names = _NAMES
    table = _TABLE
    r = 1
    for i in range(2000):
        r = ops[i % 3](r, i)
    for i in range(1200):
        cell = cells[i & 63]
        r = ops[i % 3](r, cell.v)
        cell.v = (cell.v + i) & 0xFFFF
        name = names[r & 15]
        table[name] = (table[name] + r) & 0xFF
    return r


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    perf = time.perf_counter
    t0 = perf()
    kernel()
    return perf() - t0


def normalize(seconds: float, kernel_seconds: float) -> float:
    """``seconds`` measured right after a kernel sample of
    ``kernel_seconds``, scaled to the reference host."""
    return seconds * (REFERENCE_S / kernel_seconds) ** ELASTICITY


class SetupClock:
    """Set-up time, normalized segment by segment.

    The clock starts when it is made.  ``lap()`` ends the current
    segment and starts the next; ``stop()`` ends it and leaves the clock
    stopped until ``start()``.  Each segment is scaled by a kernel sample
    taken right before it; the samples themselves are not counted."""

    def __init__(self):
        self.raw = 0.0
        self.normalized = 0.0
        self._since = None
        self._reference = 0.0
        kernel()  # the first call is slower: the interpreter specializes
        self.start()

    def start(self) -> None:
        self._reference = sample()
        self._since = time.perf_counter()

    def stop(self) -> None:
        segment = time.perf_counter() - self._since
        self.raw += segment
        self.normalized += normalize(segment, self._reference)
        self._since = None

    def lap(self) -> None:
        self.stop()
        self.start()
