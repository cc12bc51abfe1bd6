"""pycode's lazy compilation and its compiled loops' exits.

pycode runs a segment through rvm's per-instruction handlers until its
``COMPILE_AFTER``-th execution and compiles it then (see "Lazy
compilation" in :mod:`repro.backends.pycode`).  These tests hold the
shipped threshold to the seam contract at the switch -- a loop that
compiles mid-loop, a segment that compiles on a later run, an entry
whose counts and plans outlive its words, a fallback block whose
counts start over every run -- and pin the exits of compiled loops: a
loop that runs zero times, or whose cycle budget runs out as it is
entered, must end exactly as under rvm.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import compile_program
from repro.backends import PycodeBackend, RVMBackend
from repro.backends.pycode import _leaders
from repro.bench.cachepressure import SOURCE as PRESSURE
from repro.codecache import CachedEntry, CacheKey
from repro.dynamic.stitcher import StitchReport
from repro.machine.isa import ARG_BASE, MInstr, RV, ZERO
from repro.machine.vm import VM, VMError
from repro.obs.history import hostperf_workloads
from repro.testing.oracle import FirstExecutionPycode

#: the shipped compile threshold.
B = PycodeBackend.COMPILE_AFTER


def _is_stub(handler) -> bool:
    return getattr(handler, "_pycode_stub", False)


def _is_segment(handler) -> bool:
    return getattr(handler, "_pycode_segment", False)


def observables(result) -> tuple:
    return (result.value, result.float_value, tuple(result.output),
            result.cycles, result.cycles_by_owner, result.instrs_by_owner,
            result.op_counts)


# -- compiled loops from machine words ---------------------------------


def head_and_body_loop():
    """``s = 0; i = 0; while (i < n) { t = i + 3; s += t; i++; }``
    lowered as a test-and-exit head plus one body block that branches
    back to it: pycode fuses the two into one loop.  ``t`` is first
    written in the body, so a loop that leaves before its first
    iteration must still write it back unchanged."""
    code = [
        MInstr("lda", rd=1, ra=ZERO, imm=0),
        MInstr("lda", rd=2, ra=ZERO, imm=0),
        MInstr("cmplt", rd=3, ra=2, rb=ARG_BASE),   # 2: head
        MInstr("beq", ra=3),                        # exit when i >= n
        MInstr("addq", rd=4, ra=2, imm=3),          # 4: body
        MInstr("addq", rd=1, ra=1, rb=4),
        MInstr("addq", rd=2, ra=2, imm=1),
        MInstr("br"),                               # back to the head
        MInstr("mov", rd=RV, ra=1),                 # 8: exit
        MInstr("ret"),
    ]
    code[3].target = 8
    code[7].target = 2
    return code


def self_loop():
    """``s = 0; i = 0; do { t = i + 3; s += t; i++; } while (i < n)``:
    one block whose conditional branch targets its own leader."""
    code = [
        MInstr("lda", rd=1, ra=ZERO, imm=0),
        MInstr("lda", rd=2, ra=ZERO, imm=0),
        MInstr("addq", rd=4, ra=2, imm=3),          # 2: the loop
        MInstr("addq", rd=1, ra=1, rb=4),
        MInstr("addq", rd=2, ra=2, imm=1),
        MInstr("cmplt", rd=3, ra=2, rb=ARG_BASE),
        MInstr("bne", ra=3),                        # back to 2
        MInstr("mov", rd=RV, ra=1),
        MInstr("ret"),
    ]
    code[6].target = 2
    return code


LOOPS = {"head_and_body": head_and_body_loop, "self_loop": self_loop}


def run_words(backend, build, n: int, budget: int):
    """Run the words ``build`` returns on a fresh VM with ``n`` in the
    first argument register: the value, cycles and owner and opcode
    counts, or the type of the exception the run raised."""
    vm = VM(max_cycles=budget)
    entry = vm.install_code(build())
    backend.prepare_vm(vm, len(vm.code))
    try:
        value = backend.execute(vm, entry, [(ARG_BASE, n)])
    except Exception as exc:  # a host fault must show as a mismatch
        return type(exc)
    return (value, vm.cycles, vm.cycles_by_owner, vm.instrs_by_owner,
            vm.op_counts)


@pytest.mark.parametrize("shape", sorted(LOOPS))
@pytest.mark.parametrize("threshold", (1, B))
def test_loop_matches_rvm_at_every_budget(shape: str,
                                          threshold: int) -> None:
    """Every trip count from 0 to 2B and every cycle budget from 1 to
    one past the run's total: pycode returns rvm's value with rvm's
    cycles, owner and opcode counts, or raises rvm's exception.  At
    the shipped threshold a loop of n trips executes its leader n + 1
    times before it compiles, so from 15 trips on the segment compiles
    mid-loop (at 15, on the loop's last test) and is entered at every
    budget around that point; at a threshold of 1 the compiled loop
    is entered on the loop's first test."""
    build = LOOPS[shape]
    backend_cls = FirstExecutionPycode if threshold == 1 else PycodeBackend
    for n in range(2 * B + 1):
        total = run_words(RVMBackend(), build, n, 1 << 40)[1]
        for budget in range(1, total + 2):
            want = run_words(RVMBackend(), build, n, budget)
            got = run_words(backend_cls(), build, n, budget)
            assert got == want, (n, budget)
            assert (want is VMError) == (budget < total)


# -- zero-trip loops from MiniC ----------------------------------------

ZERO_TRIP = {
    "for": """
        int f(int k, int n) {
            dynamicRegion (k) {
                int s = 0;
                int i;
                for (i = 0; i < n; i++) s = s + i * k;
                return s;
            }
        }
        int main(int n) { return f(3, n) * 100 + f(5, n - 1); }
    """,
    "while": """
        int f(int k, int n) {
            dynamicRegion (k) {
                int s = 0;
                int i = 0;
                while (i < n) {
                    int t = i * k;
                    s = s + t;
                    i = i + 1;
                }
                return s;
            }
        }
        int main(int n) { return f(3, n) * 100 + f(5, n - 1); }
    """,
}


@pytest.mark.parametrize("mode", ("static", "dynamic"))
@pytest.mark.parametrize("shape", sorted(ZERO_TRIP))
def test_zero_trip_loop_matches_rvm(shape: str, mode: str) -> None:
    """A loop that runs zero times returns what rvm returns, compiled
    on its first execution or at the shipped threshold: ``B + 1`` runs
    that skip the loop (the last ones on the compiled segment), then
    runs of one, three and zero trips."""
    source = ZERO_TRIP[shape]
    args = [0] * (B + 1) + [2, 4, 1, 0]
    rvm = compile_program(source, mode=mode, backend="rvm")
    want = [observables(rvm.run("main", [n])) for n in args]
    for backend in ("pycode", FirstExecutionPycode()):
        pycode = compile_program(source, mode=mode, backend=backend)
        assert [observables(pycode.run("main", [n]))
                for n in args] == want


# -- lazy compilation at the shipped threshold -------------------------


def test_once_per_run_segment_compiles_on_run_b() -> None:
    """A static segment that runs once per run (``main``'s first) runs
    on its stub for B - 1 runs, compiles on run B and keeps the same
    compiled handler across every later ``reset_for_rerun``."""
    source = ZERO_TRIP["for"]
    rvm = compile_program(source, mode="static", backend="rvm")
    want = observables(rvm.run("main", [4]))
    pycode = compile_program(source, mode="static", backend="pycode")
    for run in range(1, B + 3):
        assert observables(pycode.run("main", [4])) == want
        handler = pycode._vm.handlers[pycode.compiled["main"].base]
        if run < B:
            assert _is_stub(handler), run
        elif run == B:
            assert _is_segment(handler)
            compiled = handler
        else:
            assert handler is compiled


class _RecordingPycode(PycodeBackend):
    """pycode that records each entry install's image and base."""

    def __init__(self):
        super().__init__()
        self.installs = []

    def entry_installed(self, vm, entry) -> None:
        self.installs.append((entry.canonical_words(), entry.base))
        super().entry_installed(vm, entry)


def test_entry_counts_and_plans_carry_across_installs() -> None:
    """Under a two-entry cache the cache-pressure program re-stitches
    every key on every run, evicts, revives and compacts, so one
    entry image is installed again and again at different bases.  Its
    counts and plans are keyed by the canonical image, not the base:
    compiled segments are replayed there, nothing compiles twice, and
    every run's observables equal rvm's."""
    args = [40, 8, 7]
    rvm = compile_program(PRESSURE, backend="rvm", cache="lru:2")
    pycode = compile_program(PRESSURE, backend=_RecordingPycode(),
                             cache="lru:2")
    revivals = compactions = 0
    compiled = []
    for _ in range(B + 2):
        want = rvm.run("main", args)
        got = pycode.run("main", args)
        assert observables(got) == observables(want)
        revivals += got.cache_stats.revivals
        compactions += got.cache_stats.compactions
        compiled.append(pycode.backend.segments_compiled)
    assert revivals and compactions
    bases = {}
    for image, base in pycode.backend.installs:
        bases.setdefault(image, set()).add(base)
    assert any(len(seen) > 1 for seen in bases.values())
    images = pycode.backend._entry_images[pycode._vm]
    assert len(images) == len(bases)
    assert pycode.backend.plans_replayed > 0
    assert compiled[-1] == compiled[-2]


@pytest.mark.parametrize("name", [name for name, _ in
                                  hostperf_workloads(quick=False)])
def test_no_stub_runs_after_b_runs(name: str) -> None:
    """After B runs of a Table 2 workload every segment the run
    executes is compiled (or known not to compile): run B + 1 goes
    through no counting stub."""
    workload = dict(hostperf_workloads(quick=False))[name]()
    program = compile_program(workload.source, backend="pycode")
    for _ in range(B):
        assert program.run().value == workload.expected
    before = program.backend.stub_runs
    assert before > 0
    assert program.run().value == workload.expected
    assert program.backend.stub_runs == before


def _install(vm, backend, words):
    """Install a hand-built entry over ``words`` the way the code cache
    does, and hand it to the backend."""
    entry = CachedEntry(key=CacheKey("f", 0, ()), code=words, relocs=[],
                        pool=[], entry_offset=0,
                        report=StitchReport("f", 0))
    entry.place(vm.install_code(words))
    backend.entry_installed(vm, entry)
    return entry


def test_leader_that_does_not_compile_is_never_rearmed() -> None:
    """An entry leader whose segment cannot compile (an opcode pycode
    does not lower) runs on its stub until execution B, then goes back
    to its per-instruction handler for good.  A second live copy of
    the image shares the count, so its next execution finds the same;
    a later install of the image arms no stub there."""
    def words():
        return [MInstr("lda", rd=1, ra=ZERO, imm=5), MInstr("bogus"),
                MInstr("ret")]

    def run(entry):
        with pytest.raises(VMError, match="unknown opcode"):
            backend.execute(vm, entry.entry_pc)

    backend = PycodeBackend()
    vm = VM()
    vm.install_code([MInstr("ret")])
    backend.prepare_vm(vm, 1)
    first = _install(vm, backend, words())
    second = _install(vm, backend, words())
    assert _is_stub(vm.handlers[first.entry_pc])
    assert _is_stub(vm.handlers[second.entry_pc])
    for _ in range(B):
        run(first)
    assert not _is_stub(vm.handlers[first.entry_pc])
    run(second)
    assert not _is_stub(vm.handlers[second.entry_pc])
    assert backend.stub_runs == B + 1
    third = _install(vm, backend, words())
    assert not _is_stub(vm.handlers[third.entry_pc])
    for entry in (first, second, third):
        run(entry)
    assert backend.stub_runs == B + 1
    assert backend.segments_compiled == 0


# -- one lazy path for static code, entries and fallback blocks --------

#: no entry reaches this many executions, so every region entry runs
#: cold on the region's fallback block.
ALL_COLD = "threshold:100000"


class _CountingPycode(PycodeBackend):
    """pycode that counts stub executions: right after each install
    hook, every handler the hook armed with a stub is wrapped in a
    counter, by pc and by kind of image; the stub replaces the wrapper
    when its leader compiles.  ``blocks`` records each fallback block
    as ``(base, words, armed pcs, handlers right after install)``."""

    def __init__(self):
        super().__init__()
        self.by_pc: Counter = Counter()
        self.by_kind: Counter = Counter()
        self.blocks = []

    def _wrap(self, vm, kind: str, start: int, end: int):
        armed = []
        for pc in range(start, end):
            stub = vm.handlers[pc]
            if _is_stub(stub):
                vm.handlers[pc] = self._counted(kind, stub)
                armed.append(pc)
        return armed

    def _counted(self, kind: str, stub):
        def counted(pc):
            self.by_pc[pc] += 1
            self.by_kind[kind] += 1
            return stub(pc)
        counted._pycode_stub = True
        return counted

    def prepare_vm(self, vm, static_words: int) -> None:
        super().prepare_vm(vm, static_words)
        self._wrap(vm, "static", 0, static_words)

    def entry_installed(self, vm, entry) -> None:
        super().entry_installed(vm, entry)
        self._wrap(vm, "entry", entry.base, entry.base + entry.words)

    def block_installed(self, vm, base: int, words: int,
                        entry_pc: int) -> None:
        super().block_installed(vm, base, words, entry_pc)
        fresh = vm.handlers[base:base + words]
        self.blocks.append((base, words,
                            self._wrap(vm, "fallback", base, base + words),
                            fresh))


def test_fallback_leaders_compile_on_their_bth_execution_in_the_run():
    """Every entry of the cache-pressure program runs cold on the
    fallback block.  Its leaders hold stubs right after install, and
    each compiles on its B-th execution within the run, so a short run
    leaves some on stubs and a long one compiles them all; observables
    equal rvm's either way.  Each run builds a fresh image: the same
    short run leaves the same leaders on stubs after a long one."""
    rvm = compile_program(PRESSURE, backend="rvm", tier=ALL_COLD)
    backend = _CountingPycode()
    pycode = compile_program(PRESSURE, backend=backend, tier=ALL_COLD)
    left = []
    for n in (5, B - 1, B, B + 1, 40, 5):
        backend.by_pc.clear()
        backend.blocks.clear()
        want = rvm.run("main", [n, 8, 7])
        got = pycode.run("main", [n, 8, 7])
        assert observables(got) == observables(want), n
        [(base, words, armed, fresh)] = backend.blocks
        assert armed
        assert not any(_is_segment(handler) for handler in fresh)
        handlers = pycode._vm.handlers
        for pc in armed:
            if _is_segment(handlers[pc]):
                assert backend.by_pc[pc] == B, (n, pc)
            else:
                assert _is_stub(handlers[pc]), (n, pc)
                assert backend.by_pc[pc] < B, (n, pc)
        left.append(sum(_is_stub(handlers[pc]) for pc in armed))
    assert left[0] == left[-1] > 0
    assert left[4] == 0
    assert backend.plans_replayed == 0


def test_continuation_points_are_armed_static_leaders():
    """Every absolute relocation target of every stitched entry, and
    every target outside a fallback block of a branch inside it, is a
    static leader that holds a stub or a compiled segment right after
    the install, or a pc whose segment cannot compile: no install has
    to arm a continuation point of its own."""
    class Checking(PycodeBackend):
        checked = 0

        def prepare_vm(self, vm, static_words: int) -> None:
            super().prepare_vm(vm, static_words)
            self.static = static_words
            self.leaders = set(_leaders(vm.code, 0, static_words, ()))

        def check(self, vm, pc: int) -> None:
            handler = vm.handlers[pc]
            assert pc in self.leaders, pc
            assert _is_stub(handler) or _is_segment(handler) \
                or not self._armable(vm.code, pc, self.static), pc
            self.checked += 1

        def entry_installed(self, vm, entry) -> None:
            super().entry_installed(vm, entry)
            for _index, kind, value in entry.relocs:
                if kind == "absolute":
                    self.check(vm, value)

        def block_installed(self, vm, base: int, words: int,
                            entry_pc: int) -> None:
            super().block_installed(vm, base, words, entry_pc)
            for instr in vm.code[base:base + words]:
                if instr.op in ("br", "beq", "bne", "jsr") \
                        and not base <= instr.target < base + words:
                    self.check(vm, instr.target)

    runs = [(workload().source, "main", None)
            for _name, workload in hostperf_workloads(quick=False)]
    runs += [(PRESSURE, "main", [40, 8, 7])]
    for source, func, args in runs:
        for tier in ("eager", ALL_COLD):
            backend = Checking()
            program = compile_program(source, backend=backend, tier=tier)
            for _ in range(2):
                program.run(func, args)
            assert backend.checked > 0


def test_stub_runs_counts_every_kind_of_image():
    """``stub_runs`` counts every leader execution through a stub: in
    the static image, in a stitched entry and in a fallback block."""
    backend = _CountingPycode()
    program = compile_program(PRESSURE, backend=backend, cache="lru:2",
                              tier="threshold:3")
    for _ in range(2):
        program.run("main", [40, 8, 7])
    assert set(backend.by_kind) == {"static", "entry", "fallback"}
    assert backend.stub_runs == sum(backend.by_kind.values())
