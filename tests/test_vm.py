"""RVM virtual-machine unit tests (hand-assembled code)."""

import tracemalloc

import pytest

from repro.machine.isa import (
    ARG_BASE, CPOOL, FREG_BASE, MInstr, RA, RV, SP, ZERO, fits_imm, reg_name,
)
from repro.backends import RVMBackend
from repro.machine.vm import VM, VMError

from helpers import NaiveRVM


def run_instrs(instrs, args=None, vm=None):
    vm = vm or VM()
    entry = vm.install_code(instrs)
    return vm, vm.run(entry, args or [])


def test_lda_immediate():
    vm, (result, _) = run_instrs([
        MInstr("lda", rd=RV, ra=ZERO, imm=42),
        MInstr("ret"),
    ])
    assert result == 42


def test_ldih_builds_large_constant():
    vm, (result, _) = run_instrs([
        MInstr("lda", rd=RV, ra=ZERO, imm=0),
        MInstr("ldih", rd=RV, imm=0x1234),
        MInstr("ldih", rd=RV, imm=0x5678),
        MInstr("ret"),
    ])
    assert result == 0x12345678


def test_alu_register_and_immediate_forms():
    vm, (result, _) = run_instrs([
        MInstr("lda", rd=1, ra=ZERO, imm=10),
        MInstr("lda", rd=2, ra=ZERO, imm=3),
        MInstr("mulq", rd=3, ra=1, rb=2),    # 30
        MInstr("addq", rd=RV, ra=3, imm=7),  # 37
        MInstr("ret"),
    ])
    assert result == 37


def test_memory_roundtrip():
    vm, (result, _) = run_instrs([
        MInstr("lda", rd=1, ra=ZERO, imm=99),
        MInstr("stq", rb=1, ra=ZERO, imm=0x2000),
        MInstr("ldq", rd=RV, ra=ZERO, imm=0x2000),
        MInstr("ret"),
    ])
    assert result == 99


def test_branch_taken_and_not_taken():
    # if (arg != 0) return 1 else return 2
    instrs = [
        MInstr("bne", ra=ARG_BASE, label="yes"),
        MInstr("lda", rd=RV, ra=ZERO, imm=2),
        MInstr("ret"),
        MInstr("lda", rd=RV, ra=ZERO, imm=1),
        MInstr("ret"),
    ]
    vm = VM()
    base = vm.install_code(instrs)
    instrs[0].target = base + 3
    assert vm.run(base, [(ARG_BASE, 5)])[0] == 1
    vm2 = VM()
    base2 = vm2.install_code([i.copy() for i in instrs])
    vm2.code[base2].target = base2 + 3
    assert vm2.run(base2, [(ARG_BASE, 0)])[0] == 2


def test_jsr_and_ret():
    # callee: return arg * 2
    vm = VM()
    callee = vm.install_code([
        MInstr("addq", rd=RV, ra=ARG_BASE, rb=ARG_BASE),
        MInstr("ret"),
    ])
    caller = vm.install_code([
        MInstr("mov", rd=9, ra=RA),  # save the return address
        MInstr("lda", rd=ARG_BASE, ra=ZERO, imm=21),
        MInstr("jsr", label="callee"),
        MInstr("mov", rd=RA, ra=9),
        MInstr("ret"),
    ])
    vm.code[caller + 2].target = callee
    assert vm.run(caller)[0] == 42


def test_indirect_jump():
    vm = VM()
    target = vm.install_code([
        MInstr("lda", rd=RV, ra=ZERO, imm=7),
        MInstr("ret"),
    ])
    entry = vm.install_code([
        MInstr("lda", rd=1, ra=ZERO, imm=target),
        MInstr("jmp", ra=1),
    ])
    assert vm.run(entry)[0] == 7


def test_float_ops():
    vm = VM()
    vm.memory[0x2000] = 2.5
    entry = vm.install_code([
        MInstr("ldt", rd=FREG_BASE + 1, ra=ZERO, imm=0x2000),
        MInstr("addt", rd=FREG_BASE + 0, ra=FREG_BASE + 1,
               rb=FREG_BASE + 1),
        MInstr("ret"),
    ])
    _, fval = vm.run(entry)
    assert fval == 5.0


def test_conversions():
    vm, (result, fval) = run_instrs([
        MInstr("lda", rd=1, ra=ZERO, imm=3),
        MInstr("cvtqt", rd=FREG_BASE, ra=1),
        MInstr("cvttq", rd=RV, ra=FREG_BASE),
        MInstr("ret"),
    ])
    assert result == 3
    assert fval == 3.0


def test_float_return_coerces_int_value():
    # cvtqt always produces a Python float, but fmov (and preloaded
    # arguments) can leave an int in f0; the run result must still be
    # the float value, not 0.0.
    vm, (_, fval) = run_instrs([
        MInstr("lda", rd=1, ra=ZERO, imm=4),
        MInstr("fmov", rd=FREG_BASE, ra=1),
        MInstr("ret"),
    ])
    assert fval == 4.0
    assert isinstance(fval, float)


def test_float_return_from_cvtqt():
    vm, (_, fval) = run_instrs([
        MInstr("lda", rd=1, ra=ZERO, imm=-7),
        MInstr("cvtqt", rd=FREG_BASE, ra=1),
        MInstr("ret"),
    ])
    assert fval == -7.0
    assert isinstance(fval, float)


def test_float_return_from_preloaded_register():
    vm = VM()
    entry = vm.install_code([MInstr("ret")])
    _, fval = vm.run(entry, [(FREG_BASE, 9)])  # int preload into f0
    assert fval == 9.0
    assert isinstance(fval, float)


def test_zero_register_reads_zero():
    vm, (result, _) = run_instrs([
        MInstr("lda", rd=ZERO, ra=ZERO, imm=55),  # write ignored
        MInstr("addq", rd=RV, ra=ZERO, imm=1),
        MInstr("ret"),
    ])
    assert result == 1


def test_division_by_zero_traps():
    with pytest.raises(VMError):
        run_instrs([
            MInstr("lda", rd=1, ra=ZERO, imm=1),
            MInstr("divq", rd=RV, ra=1, imm=0),
            MInstr("ret"),
        ])


def test_wild_load_faults():
    with pytest.raises(VMError):
        run_instrs([
            MInstr("lda", rd=1, ra=ZERO, imm=-5),
            MInstr("ldq", rd=RV, ra=1, imm=0),
            MInstr("ret"),
        ])


@pytest.mark.parametrize("backend", (RVMBackend(), NaiveRVM()),
                         ids=("threaded", "naive"))
def test_wild_store_faults(backend):
    """The address space ends at ``memory_words``: a store to the last
    word lands, a store one past it faults and leaves memory alone."""
    vm = VM(memory_words=1 << 16)
    entry = vm.install_code([
        MInstr("lda", rd=1, ra=ZERO, imm=5),
        MInstr("stq", rb=1, ra=ARG_BASE, imm=0),
        MInstr("ret"),
    ])
    backend.execute(vm, entry, [(ARG_BASE, vm.memory_words - 1)])
    assert vm.load(vm.memory_words - 1) == 5
    with pytest.raises(VMError, match="store to wild address 0x10000"):
        backend.execute(vm, entry, [(ARG_BASE, vm.memory_words)])
    with pytest.raises(VMError, match="store to wild address"):
        vm.store(vm.memory_words, 1)
    assert vm.memory_words not in vm.memory


def test_cycle_budget_enforced():
    vm = VM(max_cycles=100)
    entry = vm.install_code([
        MInstr("br", label="loop"),
    ])
    vm.code[entry].target = entry
    with pytest.raises(VMError):
        vm.run(entry)


def test_cycle_accounting_by_owner():
    instrs = [
        MInstr("lda", rd=1, ra=ZERO, imm=1, owner="a"),   # 1 cycle
        MInstr("ldq", rd=2, ra=ZERO, imm=0x2000, owner="b"),  # 3 cycles
        MInstr("mulq", rd=RV, ra=1, rb=2, owner="b"),     # 12 cycles
        MInstr("ret", owner="a"),                          # 2 cycles
    ]
    vm, _ = run_instrs(instrs)
    assert vm.cycles_by_owner["a"] == 3
    assert vm.cycles_by_owner["b"] == 15
    assert vm.instrs_by_owner["a"] == 2
    assert vm.cycles == 18


def test_charge_synthetic_cycles():
    vm = VM()
    vm.charge("stitcher:f:1", 500)
    assert vm.cycles == 500
    assert vm.cycles_by_owner["stitcher:f:1"] == 500


def test_reset_for_rerun_restores_pristine_state():
    vm = VM()
    entry = vm.install_code([
        MInstr("lda", rd=1, ra=ZERO, imm=99),
        MInstr("stq", rb=1, ra=ZERO, imm=0x2000),     # low-memory store
        MInstr("lda", rd=ARG_BASE, ra=ZERO, imm=4),
        MInstr("call_rt", name="alloc"),
        MInstr("stq", rb=1, ra=RV, imm=0),            # heap store
        MInstr("stq", rb=1, ra=RV, imm=0x1000),       # past the heap frontier
        MInstr("lda", rd=SP, ra=SP, imm=-8),
        MInstr("stq", rb=1, ra=SP, imm=0),            # stack store
        MInstr("stq", rb=1, ra=SP, imm=15),           # last word of memory
        MInstr("call_rt", name="print_int"),
        MInstr("mov", rd=RV, ra=1),
        MInstr("ret"),
    ])
    code_len = len(vm.code)
    first = vm.run(entry)
    first_cycles = vm.cycles
    first_owners = dict(vm.cycles_by_owner)
    stack_addr = vm.memory_words - 16  # sp after the frame push
    written = (0x2000, VM.HEAP_BASE, VM.HEAP_BASE + 0x1000, stack_addr,
               vm.memory_words - 1)
    assert [vm.load(addr) for addr in written] == [99] * len(written)

    vm.reset_for_rerun(code_len)
    assert vm.cycles == 0
    assert vm.cycles_by_owner == {}
    assert vm.op_counts == {}
    assert vm.output == []
    assert [vm.load(addr) for addr in written] == [0] * len(written)
    assert all(r == 0 for r in vm.regs)
    assert vm.heap_next == VM.HEAP_BASE

    assert vm.run(entry) == first
    assert vm.cycles == first_cycles
    assert dict(vm.cycles_by_owner) == first_owners
    assert [vm.load(addr) for addr in written] == [99] * len(written)


def test_default_vm_is_cheap_to_build():
    """Data memory is sparse: a default VM's 4M-word address space
    allocates nothing until it is written."""
    tracemalloc.start()
    try:
        vm = VM()
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vm.memory_words == 1 << 22
    assert peak < 1 << 20


def test_runtime_alloc():
    vm, (addr, _) = run_instrs([
        MInstr("lda", rd=ARG_BASE, ra=ZERO, imm=10),
        MInstr("call_rt", name="alloc"),
        MInstr("ret"),
    ])
    assert addr >= VM.HEAP_BASE


def test_runtime_print():
    vm, _ = run_instrs([
        MInstr("lda", rd=ARG_BASE, ra=ZERO, imm=123),
        MInstr("call_rt", name="print_int"),
        MInstr("ret"),
    ])
    assert vm.output == [123]


def test_runtime_pure_builtin():
    vm, (result, _) = run_instrs([
        MInstr("lda", rd=ARG_BASE, ra=ZERO, imm=3),
        MInstr("lda", rd=ARG_BASE + 1, ra=ZERO, imm=9),
        MInstr("call_rt", name="imax"),
        MInstr("ret"),
    ])
    assert result == 9


def test_unknown_runtime_call():
    with pytest.raises(VMError):
        run_instrs([MInstr("call_rt", name="bogus"), MInstr("ret")])


def test_unsigned_compare():
    vm, (result, _) = run_instrs([
        MInstr("lda", rd=1, ra=ZERO, imm=-1),   # huge unsigned
        MInstr("cmpult", rd=RV, ra=1, imm=5),
        MInstr("ret"),
    ])
    assert result == 0


def test_fits_imm():
    assert fits_imm(0) and fits_imm(32767) and fits_imm(-32768)
    assert not fits_imm(32768) and not fits_imm(-32769)


def test_reg_names():
    assert reg_name(ZERO) == "zero"
    assert reg_name(SP) == "sp"
    assert reg_name(RA) == "ra"
    assert reg_name(FREG_BASE + 3) == "f3"
    assert reg_name(5) == "r5"
