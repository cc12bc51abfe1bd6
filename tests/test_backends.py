"""Backend-seam tests: registry behavior, rvm identity, and pycode's
bit-for-bit observable parity with the rvm oracle.

The seam contract (:mod:`repro.backends.base`) says a backend may
spend host time however it likes but must never change a simulated
observable.  These tests pin that down across the configurations that
stress the install/evict/fallback lifecycle: plain runs, bounded
caches, injected faults, adaptive tiering, and the exact cycle count
at a budget trap.
"""

from __future__ import annotations

import gc
from typing import Dict

import pytest

import repro.backends as backends_mod
from repro.backends import (
    DEFAULT_BACKEND, PycodeBackend, RVMBackend, available_backends,
    get_backend, register_backend,
)
from repro.bench.workloads import (
    calculator_workload, event_dispatcher_workload, record_sorter_workload,
    scalar_matrix_workload, sparse_matvec_workload,
)
from repro.machine.isa import ARG_BASE, MInstr, RV, ZERO
from repro.machine.vm import VM, VMError
from repro.runtime.engine import compile_program

#: small configs keep runs fast while still covering unrolled loops,
#: const branches, float templates, two-block counted loops (the
#: scalar matrix), const-divisor arithmetic and data-dependent
#: branching (the sorter).
CASES = {
    "calculator": lambda: calculator_workload(xs=3, ys=3),
    "scalar_matrix": lambda: scalar_matrix_workload(rows=6, cols=8,
                                                    scalars=4),
    "sparse_matvec": lambda: sparse_matvec_workload(size=8, per_row=3,
                                                    reps=2),
    "event_dispatcher": lambda: event_dispatcher_workload(nguards=6,
                                                          events=30),
    "record_sorter": lambda: record_sorter_workload(count=24),
}

REPORT_FIELDS = (
    "func_name", "region_id", "instrs_emitted", "holes_patched",
    "directives", "const_branches_resolved", "dead_sides_eliminated",
    "branch_fixups", "pool_entries", "records_followed", "cycles",
    "entry", "pool_base",
)

CACHE_FIELDS = ("hits", "misses", "evictions", "compactions",
                "invalidations", "restitches", "live_entries",
                "live_code_words")


def full_snapshot(result) -> Dict[str, object]:
    """Every simulated observable of one run."""
    snap: Dict[str, object] = {
        "value": result.value,
        "float_value": result.float_value,
        "output": list(result.output),
        "cycles": result.cycles,
        "cycles_by_owner": dict(result.cycles_by_owner),
        "instrs_by_owner": dict(result.instrs_by_owner),
        "op_counts": dict(result.op_counts),
        "stitch_reports": [
            tuple(getattr(report, f) for f in REPORT_FIELDS)
            + (tuple(report.key), dict(report.loop_iterations),
               dict(report.peepholes))
            for report in result.stitch_reports
        ],
    }
    stats = result.cache_stats
    if stats is not None:
        snap["cache_stats"] = {f: getattr(stats, f) for f in CACHE_FIELDS}
    snap["tier_stats"] = result.tier_stats
    snap["fault_counts"] = dict(result.fault_counts or {})
    snap["fallback_reasons"] = [e.reason for e in result.fallbacks or []]
    return snap


# -- registry ---------------------------------------------------------


def test_default_backend_is_rvm() -> None:
    assert DEFAULT_BACKEND == "rvm"
    assert get_backend(None).name == "rvm"
    program = compile_program("int main(int x) { return x + 1; }")
    assert program.run("main", [4]).backend == "rvm"


def test_registry_lists_both_backends() -> None:
    assert available_backends() == ["pycode", "rvm"]
    assert isinstance(get_backend("rvm"), RVMBackend)
    assert isinstance(get_backend("pycode"), PycodeBackend)


def test_unknown_backend_error_names_registry() -> None:
    with pytest.raises(ValueError) as info:
        get_backend("sideways")
    assert "sideways" in str(info.value)
    assert "pycode, rvm" in str(info.value)


def test_backend_instance_passes_through() -> None:
    backend = PycodeBackend()
    assert get_backend(backend) is backend
    program = compile_program("int main(int x) { return x * 3; }",
                              backend=backend)
    result = program.run("main", [5])
    assert result.value == 15
    assert result.backend == "pycode"
    assert program.backend is backend


def test_register_backend_round_trip() -> None:
    class TaggedRVM(RVMBackend):
        name = "tagged-rvm"

    register_backend("tagged-rvm", TaggedRVM)
    try:
        assert "tagged-rvm" in available_backends()
        program = compile_program("int main(int x) { return x - 2; }",
                                  backend="tagged-rvm")
        result = program.run("main", [9])
        assert result.value == 7
        assert result.backend == "tagged-rvm"
    finally:
        backends_mod._REGISTRY.pop("tagged-rvm", None)
    with pytest.raises(ValueError):
        get_backend("tagged-rvm")


# -- rvm identity -----------------------------------------------------


@pytest.mark.parametrize("mode", ("static", "dynamic"))
def test_explicit_rvm_matches_default(mode: str) -> None:
    """``backend="rvm"`` must be byte-identical to passing nothing --
    the seam refactor cannot have changed the default path."""
    workload = CASES["calculator"]()
    default = compile_program(workload.source, mode=mode)
    explicit = compile_program(workload.source, mode=mode, backend="rvm")
    assert full_snapshot(default.run()) == full_snapshot(explicit.run())


# -- pycode parity ----------------------------------------------------


@pytest.mark.parametrize("mode", ("static", "dynamic"))
@pytest.mark.parametrize("name", sorted(CASES))
def test_pycode_matches_rvm(name: str, mode: str) -> None:
    """Every simulated observable bit-identical between backends, on
    the first run and on the cached-VM rerun."""
    workload = CASES[name]()
    rvm = compile_program(workload.source, mode=mode, backend="rvm")
    pycode = compile_program(workload.source, mode=mode,
                             backend="pycode")
    a = rvm.run()
    b = pycode.run()
    assert a.backend == "rvm" and b.backend == "pycode"
    assert full_snapshot(a) == full_snapshot(b)
    assert full_snapshot(rvm.run()) == full_snapshot(pycode.run())
    if mode == "dynamic":
        assert pycode.backend.segments_compiled > 0


@pytest.mark.parametrize("spec", ["lru:2", "cost-aware:2",
                                  "lru:4:256"])
def test_pycode_matches_rvm_under_cache_pressure(spec: str) -> None:
    """Eviction, compaction and re-stitch under a bounded cache must
    not open any observable gap between backends (the pycode overlay
    artifacts die with their entries)."""
    workload = CASES["event_dispatcher"]()
    rvm = compile_program(workload.source, mode="dynamic",
                          cache=spec, backend="rvm")
    pycode = compile_program(workload.source, mode="dynamic",
                             cache=spec, backend="pycode")
    for _ in range(2):
        assert full_snapshot(rvm.run()) == full_snapshot(pycode.run())


def test_pycode_matches_rvm_under_faults() -> None:
    """Injected stitch/cache faults degrade both backends to the same
    fallback decisions, fault counts and final observables."""
    workload = CASES["calculator"]()
    snaps = []
    for backend in ("rvm", "pycode"):
        program = compile_program(workload.source, mode="dynamic",
                                  backend=backend)
        result = program.run(faults="all:0.3@7")
        snaps.append(full_snapshot(result))
    assert snaps[0] == snaps[1]


def test_pycode_matches_rvm_under_tiering() -> None:
    """Adaptive tiering promotes through the seam: cold profiled
    entries, promotions and the resulting stitches agree."""
    workload = CASES["sparse_matvec"]()
    snaps = []
    for backend in ("rvm", "pycode"):
        program = compile_program(workload.source, mode="dynamic",
                                  tier="threshold:2", backend=backend)
        runs = [full_snapshot(program.run(tier="threshold:2"))
                for _ in range(2)]
        snaps.append(runs)
    assert snaps[0] == snaps[1]


def test_budget_trap_parity() -> None:
    """Exhausting the cycle budget must trap at the same simulated
    cycle count with the same message under either backend -- the
    pycode superhandlers precheck the budget so the trap point stays
    exact."""
    workload = CASES["scalar_matrix"]()
    outcomes = []
    for backend in ("rvm", "pycode"):
        program = compile_program(workload.source, mode="dynamic",
                                  backend=backend)
        try:
            program.run(max_cycles=20_000)
        except VMError as exc:
            outcomes.append((str(exc), program._vm.cycles))
        else:
            pytest.fail("budget of 20k cycles did not trap (%s)"
                        % backend)
    assert outcomes[0] == outcomes[1]
    assert "cycle budget exceeded" in outcomes[0][0]


def test_pycode_dispatch_backcompat() -> None:
    """The ``dispatch`` knob still selects the loop for non-overlay
    execution under pycode, and both loops agree."""
    workload = CASES["calculator"]()
    program = compile_program(workload.source, mode="dynamic",
                              backend="pycode")
    a = full_snapshot(program.run(dispatch="threaded"))
    b = full_snapshot(program.run(dispatch="naive"))
    assert a == b
    with pytest.raises(ValueError):
        program.run(dispatch="sideways")


def test_pycode_trap_messages_match_rvm() -> None:
    """Arithmetic traps inside generated closures carry the rvm
    wording and pc.  (The contract only requires the same exception
    type for fatal traps -- cycle accounting at the fault may differ
    because pycode charges segments in bulk -- but the message, pc
    included, is kept byte-identical.)"""
    source = """
    int main(int x) {
        int acc = 100;
        while (x >= 0) {
            acc = acc / x;
            x = x - 3;
        }
        return acc;
    }
    """
    outcomes = []
    for backend in ("rvm", "pycode"):
        program = compile_program(source, mode="static", backend=backend)
        try:
            program.run("main", [6])
        except VMError as exc:
            outcomes.append(str(exc))
        else:
            pytest.fail("division by zero did not trap (%s)" % backend)
    assert outcomes[0] == outcomes[1]
    assert "arithmetic trap" in outcomes[0]


# -- data memory ------------------------------------------------------


@pytest.mark.parametrize("backend", ("rvm", "pycode"))
def test_data_memory_is_not_gc_tracked(backend: str) -> None:
    """Data memory holds only ints and floats, so the cyclic GC never
    tracks it (and no collection walks it), whatever a run stores."""
    source = """
    int count;
    float total;
    int main(int x) {
        count = x + 1;
        total = x * 0.5;
        return count;
    }
    """
    program = compile_program(source, mode="static", backend=backend)
    assert program.run("main", [5]).value == 6
    vm, layout = program._vm, program.layout
    assert vm.load(layout.addr_of("count")) == 6
    assert vm.load(layout.addr_of("total")) == 2.5
    assert not gc.is_tracked(vm.memory)


def test_unwritten_heap_word_reads_zero_on_every_path() -> None:
    """A never-written heap word reads 0 through the rvm threaded
    handlers, the naive loop and a compiled pycode segment."""
    outcomes = []
    for path in ("threaded", "naive", "pycode"):
        vm = VM()
        entry = vm.install_code([
            MInstr("lda", rd=ARG_BASE, ra=ZERO, imm=4),
            MInstr("call_rt", name="alloc"),
            MInstr("ldq", rd=1, ra=RV, imm=2),  # never written
            MInstr("addq", rd=RV, ra=1, imm=7),
            MInstr("ret"),
        ])
        if path == "pycode":
            PycodeBackend().prepare_vm(vm, len(vm.code))
            assert getattr(vm.handlers[entry + 2], "_pycode_segment",
                           False)
        dispatch = "naive" if path == "naive" else "threaded"
        outcomes.append((vm.run(entry, dispatch=dispatch), vm.cycles))
        assert VM.HEAP_BASE + 2 not in vm.memory
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert outcomes[0][0] == (7, 0.0)
