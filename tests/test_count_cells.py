"""One count cell per executed instruction.

An executed rvm instruction adds its cost to the cycle total and bumps
the one count cell of its ``(owner, opcode, cost)``; the VM derives
``cycles_by_owner``, ``instrs_by_owner`` and ``op_counts`` from those
counts plus what ``charge()`` adds, with owners and opcodes in the order
they were first seen.  Its handlers bind what they read as default
arguments, so an installed instruction is one function and one
defaults tuple: no closure cell, and nothing that holds the VM.
"""

from __future__ import annotations

import pytest

from repro.backends import RVMBackend
from repro.backends.rvm import _HANDLER_TABLE, predecode
from repro.bench.cachepressure import SOURCE as PRESSURE
from repro.bench.workloads import calculator_workload, scalar_matrix_workload
from repro.machine.costs import op_cost
from repro.machine.isa import MInstr, RV, SP, ZERO
from repro.machine.vm import VM
from repro.runtime.engine import compile_program
from repro.testing.oracle import FirstExecutionPycode

#: one instruction of every handler spec.
SPEC_SAMPLES = {
    "load": MInstr("ldq", rd=1, ra=SP, imm=-8),
    "store": MInstr("stq", ra=SP, rb=1, imm=-8),
    "lda_const": MInstr("lda", rd=1, ra=ZERO, imm=7),
    "lda_add": MInstr("lda", rd=1, ra=2, imm=7),
    "ldih": MInstr("ldih", rd=1, imm=7),
    "alu_rr": MInstr("addq", rd=1, ra=2, rb=3),
    "alu_ri": MInstr("mulq", rd=1, ra=2, imm=3),
    "falu": MInstr("addt", rd=33, ra=34, rb=35),
    "mov": MInstr("mov", rd=1, ra=2),
    "br": MInstr("br", label="x"),
    "condbr": MInstr("beq", ra=1, label="x"),
    "jtab": MInstr("jtab", ra=1, extra=((), 0)),
    "negq": MInstr("negq", rd=1, ra=2),
    "ornot": MInstr("ornot", rd=1, ra=2),
    "fneg": MInstr("fneg", rd=33, ra=34),
    "cvtqt": MInstr("cvtqt", rd=33, ra=1),
    "cvttq": MInstr("cvttq", rd=1, ra=33),
    "jsr": MInstr("jsr", label="x"),
    "ret": MInstr("ret"),
    "jmp": MInstr("jmp", ra=1),
    "call_rt": MInstr("call_rt", name="print_int"),
    "halt": MInstr("halt"),
    "nop": MInstr("nop"),
    "unknown": MInstr("bogus"),
}


def _spec_of(handler) -> str:
    return handler.__code__.co_filename[len("<rvm-handler:"):-1]


def test_every_handler_spec_is_sampled():
    vm = VM()
    assert {_spec_of(predecode(vm, instr))
            for instr in SPEC_SAMPLES.values()} == set(_HANDLER_TABLE)


@pytest.mark.parametrize("spec", sorted(SPEC_SAMPLES))
def test_handlers_hold_no_cells(spec):
    vm = VM()
    handler = predecode(vm, SPEC_SAMPLES[spec])
    assert _spec_of(handler) == spec
    assert handler.__closure__ is None
    assert not any(isinstance(value, VM) for value in handler.__defaults__)


def test_r31_wrapper_holds_no_cells():
    vm = VM()
    handler = predecode(vm, MInstr("addq", rd=ZERO, ra=1, imm=1))
    assert handler.__code__.co_name == "handler"
    assert handler.__closure__ is None
    inner = handler.__defaults__[0]
    assert _spec_of(inner) == "alu_ri" and inner.__closure__ is None
    assert vm.regs in handler.__defaults__
    vm.regs[1] = 41
    assert handler(3) == 4 and vm.regs[ZERO] == 0


# -- accounting through install, overwrite, free, charge and rerun -----

#: two owners; slot 4 is never executed, slot 5 is overwritten by the
#: runtime call before control reaches it.
def _program():
    return [
        MInstr("lda", rd=1, ra=ZERO, imm=3, owner="fn:a"),
        MInstr("addq", rd=2, ra=1, imm=4, owner="fn:a"),
        MInstr("call_rt", name="mid", owner="fn:a"),
        MInstr("br", label="b", owner="fn:a"),
        MInstr("nop", owner="fn:a"),
        MInstr("mulq", rd=3, ra=2, rb=1, owner="fn:b"),
        MInstr("stq", ra=SP, rb=3, imm=-8, owner="fn:b"),
        MInstr("ldq", rd=RV, ra=SP, imm=-8, owner="fn:b"),
        MInstr("ret", owner="fn:b"),
    ]


def _mid(charge):
    """The runtime call: overwrite slot 5 with a third owner's word,
    free slot 4 and (if ``charge``) charge zero cycles to a new owner."""
    def handler(vm, instr):
        vm.write_code(5, [MInstr("subq", rd=3, ra=2, rb=1, owner="fn:c")])
        vm.fill_freed(4, 1)
        if charge:
            vm.charge("stitcher:x", 0)
        return 0
    return handler


def _views(vm):
    return (vm.cycles, list(vm.cycles_by_owner.items()),
            list(vm.instrs_by_owner.items()), list(vm.op_counts.items()))


def _expected(charge):
    """The views computed by hand from the executed trace."""
    trace = [("fn:a", "lda", ""), ("fn:a", "addq", ""),
             ("fn:a", "call_rt", "mid"), ("fn:a", "br", ""),
             ("fn:c", "subq", ""), ("fn:b", "stq", ""),
             ("fn:b", "ldq", ""), ("fn:b", "ret", "")]
    cycles = {"fn:a": 0, "fn:b": 0, "fn:c": 0}
    instrs = dict.fromkeys(cycles, 0)
    ops = {}
    for owner, op, name in trace:
        cycles[owner] += op_cost(op, name)
        instrs[owner] += 1
        ops[op] = ops.get(op, 0) + 1
    if charge:
        cycles["stitcher:x"] = 0
    # first seen: owners fn:a and fn:b at install, fn:c and the filler's
    # codecache at the runtime call, then the charged owner; opcodes in
    # install order (mulq is overwritten unexecuted, nop and freed never
    # run), subq from the overwrite.
    return (sum(cycles.values()), list(cycles.items()),
            list(instrs.items()),
            [(op, ops[op]) for op in ("lda", "addq", "call_rt", "br",
                                      "stq", "ldq", "ret", "subq")])


def _run_scenario(dispatch):
    vm = VM()
    code = _program()
    entry = vm.install_code(code)
    vm.code[3].target = 5
    vm.rt_handlers["mid"] = _mid(charge=True)
    first = dispatch(vm, entry)
    views = [_views(vm)]
    vm.reset_for_rerun(len(vm.code))
    assert _views(vm) == (0, [], [], [])
    vm.rt_handlers["mid"] = _mid(charge=False)
    second = dispatch(vm, entry)
    views.append(_views(vm))
    return (first, second), views


def _threaded(vm, entry):
    return vm.run(entry)


def _naive(vm, entry):
    return RVMBackend().run_naive(vm, vm.enter(entry))


def test_views_match_hand_totals_and_naive_loop():
    results, views = _run_scenario(_threaded)
    assert results == ((7 - 3, 0.0), (7 - 3, 0.0))
    assert views == [_expected(charge=True), _expected(charge=False)]
    assert _run_scenario(_naive) == (results, views)


def test_owner_cycles_reads_one_owner():
    vm = VM()
    entry = vm.install_code(_program())
    vm.code[3].target = 5
    vm.rt_handlers["mid"] = _mid(charge=True)
    vm.run(entry)
    vm.charge("fn:b", 5, instrs=2)
    for owner, cycles in vm.cycles_by_owner.items():
        assert vm.owner_cycles(owner) == cycles
    assert vm.owner_cycles("codecache") == 0
    assert vm.owner_cycles("never:seen") == 0
    assert vm.instrs_by_owner["fn:b"] == 3 + 2


# -- the mid-run contract ----------------------------------------------


def _probe(monkeypatch):
    """Record ``(runtime call, vm.cycles, owner cycles)`` at every
    ``call_rt`` boundary into the returned list."""
    seen = []
    original = VM._call_rt

    def probe(vm, instr):
        owners = vm.cycles_by_owner
        seen.append((instr.name, vm.cycles,
                     [(owner, vm.owner_cycles(owner)) for owner in owners]))
        assert [cycles for _, cycles in seen[-1][2]] \
            == list(owners.values())
        return original(vm, instr)

    monkeypatch.setattr(VM, "_call_rt", probe)
    return seen


CONTRACT_CASES = {
    "calculator": (lambda: calculator_workload(xs=3, ys=3).source, (), ""),
    "scalar_matrix": (lambda: scalar_matrix_workload(
        rows=4, cols=6, scalars=3).source, (), ""),
    "pressure_breakeven": (lambda: PRESSURE, (40, 4, 7),
                           "cache=lru:2 tier=breakeven"),
}


@pytest.mark.parametrize("name", sorted(CONTRACT_CASES))
def test_runtime_boundaries_see_rvm_counts_on_pycode(monkeypatch, name):
    """The mid-run contract: whenever a runtime service runs, pycode's
    bulk charges leave ``vm.cycles`` and every owner's cycles where
    rvm's per-instruction charges leave them (two runs each, the second
    on the reset VM, every segment compiled on its first execution)."""
    source, args, config = CONTRACT_CASES[name]
    source = source()
    seen = _probe(monkeypatch)
    runs = {}
    for label, backend in (("rvm", "rvm"),
                           ("pycode", FirstExecutionPycode())):
        program = compile_program(source, config=config or None,
                                  backend=backend)
        runs[label] = []
        for _ in range(2):
            program.run("main", list(args))
            runs[label].append(list(seen))
            seen.clear()
    assert runs["rvm"][0], "the run made no runtime call"
    assert runs["pycode"] == runs["rvm"]
