"""The RVM virtual machine: executes RVM code with cycle accounting.

The VM is the reproduction's stand-in for the paper's DEC Alpha 21064
and its hardware cycle counters: every executed instruction is charged
its cost-model cycles, attributed to the *owner* tag of the code it
belongs to (function body, region set-up code, stitched region code...),
which is what the measurement harness reads to reproduce Table 2.

Execution fast path
-------------------

Instructions are *predecoded* when installed: :meth:`VM.install_code`
resolves each :class:`MInstr` into a specialized handler function whose
operands, cycle cost and count cell are bound as default arguments,
evaluated once at predecode (immediate and register ALU forms get
distinct handlers), stored in a ``handlers`` list parallel to
``code``.  An installed instruction is one function and one defaults
tuple: no closure cell.  The interpreter loop is then threaded
dispatch -- ``pc = handlers[pc](pc)`` -- instead of an
opcode-comparison chain.  Branch targets (``instr.target`` /
``instr.extra``) are still read at execution time because the loader
and the stitcher resolve labels *after* installing code.

Each executed instruction records one event: it adds its cost to the
cycle total and bumps one *count cell*, shared by every instruction
with the same ``(owner, opcode, cost)`` and created when the first of
them is predecoded.  ``cycles_by_owner``, ``instrs_by_owner`` and
``op_counts`` are derived from those counts (plus what :meth:`VM.charge`
adds) on access -- all three from one walk by :meth:`VM.accounting` --
with owners and opcodes in the order they were first seen,
bit-identical to what per-instruction dict updates used to produce.  The simulated cost model is therefore completely independent
of the host-side speed of the dispatch implementation.

Runtime services (``call_rt``) cover allocation, printing, the pure
math builtins, and the two dynamic-compilation hooks
(``region_lookup`` / ``region_stitch``) that the runtime engine
installs handlers for, for the length of one run.  Predecoded
``call_rt`` handlers reach :meth:`VM._call_rt` through the run-scoped
slot ``_rt``, which the dispatch loop fills on entry and restores on
exit: nothing installed in a VM holds the VM, so a dropped program and
its VM are freed by reference counting, not by the cyclic collector.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from ..backends.rvm import RVMBackend, predecode as _predecode
from ..errors import ArenaExhausted, VMError  # noqa: F401  (re-exported)
from ..ir.values import wrap_int
from .costs import op_cost
from .isa import (
    ARG_BASE, FREG_BASE, FRV, MInstr, RA, RETURN_SENTINEL, RV, SP, ZERO,
)

Number = Union[int, float]


#: Pure builtin signatures: name -> (arg kinds, result kind).
_PURE_SIGS: Dict[str, Tuple[str, str]] = {
    "imax": ("ii", "i"), "imin": ("ii", "i"), "iabs": ("i", "i"),
    "fsqrt": ("f", "f"), "fsin": ("f", "f"), "fcos": ("f", "f"),
    "fexp": ("f", "f"), "flog": ("f", "f"), "fpow": ("ff", "f"),
    "fabs": ("f", "f"), "ffloor": ("f", "f"),
    "fmax": ("ff", "f"), "fmin": ("ff", "f"),
}

_RETURN_SENTINEL = RETURN_SENTINEL

#: One predecoded instruction: takes its own pc, returns the next pc.
Handler = Callable[[int], int]

#: The threaded dispatch loop ``VM.run`` delegates to (a bare VM
#: without an engine on top always executes rvm semantics; backend
#: overlays only change *which handlers* the loop finds installed).
_RVM = RVMBackend()


class VM:
    """A complete machine: code memory, data memory, registers.

    Data memory is sparse: ``memory`` maps address to word and holds
    only the words that have been written, and a never-written word
    reads 0.  ``memory_words`` is the size of the address space (every
    access checks ``0 <= addr < memory_words``; the stack starts just
    below its top), so a large address space costs nothing until it is
    written.  Ints and floats are not tracked by the cyclic GC, and
    neither is a plain dict holding only them, so no collection walks
    data memory.  Predecoded handlers bind the dict object: it is
    cleared in place, never rebound.
    """

    HEAP_BASE = 0x40000

    def __init__(self, memory_words: int = 1 << 22,
                 max_cycles: int = 4_000_000_000):
        self.memory_words = memory_words
        self.memory: Dict[int, Number] = {}
        self.code: List[MInstr] = []
        #: predecoded handlers, parallel to ``code``.
        self.handlers: List[Handler] = []
        self.regs: List[Number] = [0] * 64
        # Accounting lives in single-element list cells so handlers
        # can mutate them without attribute lookups; the public
        # counters are derived by the properties below.
        self._cyc = [0]
        self._maxc = [max_cycles]
        #: (owner, opcode, cost) -> [executions]: the one count cell an
        #: executed instruction bumps.
        self._counts: Dict[Tuple[str, str, int], List[int]] = {}
        #: owner -> [cycles, instrs, charged?, [(cost, count cell, opcode
        #: total)...]]: what charge() added (charged? marks owners
        #: touched by it, so zero-cycle charges still surface) and the
        #: owner's count cells, in the order owners were first seen.
        self._owners: Dict[str, list] = {}
        #: opcode -> [total], in the order each opcode's first count
        #: cell was made: scratch cells :meth:`accounting` sums into.
        self._op_totals: Dict[str, List[int]] = {}
        self.output: List[Number] = []
        #: the heap frontier: ``alloc`` bumps it.
        self.heap_next = self.HEAP_BASE
        #: name -> handler(vm, instr) -> int result for r0.
        self.rt_handlers: Dict[str, Callable[["VM", MInstr], int]] = {}
        #: the run-scoped runtime-call slot: ``call_rt`` handlers call
        #: ``rt[0](instr)``, and the dispatch loop holds ``_call_rt``
        #: here for the length of a run (see the module docstring).
        self._rt: List[Optional[Callable[[MInstr], None]]] = [None]
        #: the one ``freed`` filler word and its handler, shared by
        #: every freed slot (built by the first :meth:`fill_freed`).
        self._freed: Optional[Tuple[MInstr, Handler]] = None

    # -- accounting views --------------------------------------------------

    @property
    def cycles(self) -> int:
        return self._cyc[0]

    @property
    def max_cycles(self) -> int:
        return self._maxc[0]

    @max_cycles.setter
    def max_cycles(self, value: int) -> None:
        self._maxc[0] = value

    def accounting(self) -> Tuple[Dict[str, int], Dict[str, int],
                                  Dict[str, int]]:
        """``(cycles_by_owner, instrs_by_owner, op_counts)`` from one
        walk of the owners' count cells: owners in the order they were
        first seen (an owner only ``charge()`` touched is listed by
        cycles even at zero), opcodes in the order their first cell was
        made, and neither with a zero count."""
        op_totals = self._op_totals
        for total in op_totals.values():
            total[0] = 0
        cycles_by_owner: Dict[str, int] = {}
        instrs_by_owner: Dict[str, int] = {}
        for owner, (cycles, instrs, charged, cells) in self._owners.items():
            for cost, cell, total in cells:
                count = cell[0]
                cycles += cost * count
                instrs += count
                total[0] += count
            if instrs or charged:
                cycles_by_owner[owner] = cycles
            if instrs:
                instrs_by_owner[owner] = instrs
        return (cycles_by_owner, instrs_by_owner,
                {op: total[0] for op, total in op_totals.items() if total[0]})

    @property
    def cycles_by_owner(self) -> Dict[str, int]:
        return self.accounting()[0]

    @property
    def instrs_by_owner(self) -> Dict[str, int]:
        return self.accounting()[1]

    @property
    def op_counts(self) -> Dict[str, int]:
        """Executed-instruction histogram by opcode (cost-model input)."""
        return self.accounting()[2]

    def owner_cycles(self, owner: str) -> int:
        """The cycles charged to ``owner`` so far (0 if never seen)."""
        record = self._owners.get(owner)
        if record is None:
            return 0
        total = record[0]
        for cost, cell, _ in record[3]:
            total += cost * cell[0]
        return total

    def _owner(self, owner: str) -> list:
        record = self._owners.get(owner)
        if record is None:
            record = self._owners[owner] = [0, 0, False, []]
        return record

    def _count_cell(self, owner: str, op: str, cost: int) -> List[int]:
        """The count cell of ``(owner, op, cost)``, created (and its
        owner registered) on first sight."""
        key = (owner, op, cost)
        cell = self._counts.get(key)
        if cell is None:
            cell = self._counts[key] = [0]
            total = self._op_totals.get(op)
            if total is None:
                total = self._op_totals[op] = [0]
            self._owner(owner)[3].append((cost, cell, total))
        return cell

    # -- code & memory -----------------------------------------------------

    def install_code(self, instrs: List[MInstr]) -> int:
        """Append resolved code (predecoding it); returns its base."""
        base = len(self.code)
        code = self.code
        handlers = self.handlers
        for instr in instrs:
            instr.cost = op_cost(instr.op, instr.name or "")
            code.append(instr)
            handlers.append(_predecode(self, instr))
        return base

    def write_code(self, base: int, instrs: List[MInstr]) -> None:
        """Overwrite existing code slots (predecoding), for the code
        cache's free-list reuse of evicted regions' words.  The range
        must already be installed."""
        if base < 0 or base + len(instrs) > len(self.code):
            raise VMError("write_code outside installed code: %d+%d"
                          % (base, len(instrs)))
        code = self.code
        handlers = self.handlers
        for i, instr in enumerate(instrs):
            instr.cost = op_cost(instr.op, instr.name or "")
            code[base + i] = instr
            handlers[base + i] = _predecode(self, instr)

    def move_code(self, src: int, dst: int, words: int) -> None:
        """Relocate installed code to a lower address (compaction).

        Handlers move with their instructions -- they never bind their
        own pc, and branch handlers read ``instr.target`` at execution
        time, so the mover only has to re-point the caller-supplied
        relocations (``CachedEntry.place``), not re-predecode.
        The ascending copy is safe because ``dst < src``.
        """
        if not 0 <= dst < src or src + words > len(self.code):
            raise VMError("bad code move %d->%d (%d words)"
                          % (src, dst, words))
        code = self.code
        handlers = self.handlers
        for i in range(words):
            code[dst + i] = code[src + i]
            handlers[dst + i] = handlers[src + i]

    def fill_freed(self, base: int, words: int) -> None:
        """Fill released code words with trapping filler: executing a
        stale pc in an evicted region faults like any unknown opcode
        instead of silently running another entry's code.  Every slot
        gets the same filler word and handler (the handler reads the
        pc it reports from its argument)."""
        if base < 0 or base + words > len(self.code):
            raise VMError("fill_freed outside installed code: %d+%d"
                          % (base, words))
        if self._freed is None:
            filler = MInstr("freed", owner="codecache")
            filler.cost = op_cost("freed", "")
            self._freed = (filler, _predecode(self, filler))
        filler, handler = self._freed
        end = base + words
        self.code[base:end] = [filler] * words
        self.handlers[base:end] = [handler] * words

    def alloc(self, words: int) -> int:
        """Bump-allocate ``max(1, words)`` heap words below the top 64K
        words of the address space; a refused request leaves the heap
        frontier where it was."""
        need = max(1, words)
        addr = self.heap_next
        limit = self.memory_words - (1 << 16)
        if addr + need > limit:
            raise ArenaExhausted("heap exhausted", requested=need,
                                 free=max(0, limit - addr))
        self.heap_next = addr + need
        return addr

    def load(self, addr: int) -> Number:
        if not 0 <= addr < self.memory_words:
            raise VMError("load from wild address %#x" % addr)
        return self.memory.get(addr, 0)

    def store(self, addr: int, value: Number) -> None:
        if not 0 <= addr < self.memory_words:
            raise VMError("store to wild address %#x" % addr)
        self.memory[addr] = value

    def charge(self, owner: str, cycles: int, instrs: int = 0) -> None:
        """Attribute synthetic work (e.g. the stitcher's) to ``owner``."""
        record = self._owner(owner)
        self._cyc[0] += cycles
        record[0] += cycles
        record[1] += instrs
        record[2] = True

    # -- re-run support ----------------------------------------------------

    def reset_for_rerun(self, code_len: int) -> None:
        """Restore pristine post-install state, keeping the installed
        static code and its predecoded handlers.

        Truncates run-time-installed code (stitched regions) back to
        ``code_len``, zeroes registers and accounting, empties data
        memory in place and rewinds the heap.  The caller re-applies
        its initial data image afterwards.
        """
        del self.code[code_len:]
        del self.handlers[code_len:]
        regs = self.regs
        for i in range(64):
            regs[i] = 0
        self._cyc[0] = 0
        for cell in self._counts.values():
            cell[0] = 0
        for record in self._owners.values():
            record[0] = 0
            record[1] = 0
            record[2] = False
        self.output = []
        self.memory.clear()
        self.heap_next = self.HEAP_BASE

    # -- execution ------------------------------------------------------------

    def run(self, entry: int,
            int_args: Optional[List[Tuple[int, Number]]] = None
            ) -> Tuple[int, float]:
        """Execute from ``entry`` until the top-level return.

        ``int_args`` is a list of (register, value) pairs to preload
        (argument passing).  Returns ``(r0, f0)``.  Execution runs the
        predecoded handlers
        (:meth:`~repro.backends.rvm.RVMBackend.run_threaded`).
        """
        return _RVM.run_threaded(self, self.enter(entry, int_args))

    def enter(self, entry: int,
              int_args: Optional[List[Tuple[int, Number]]] = None) -> int:
        """Set up a top-level call of ``entry``: preload ``int_args``,
        the stack pointer, the return sentinel and the zero register.
        Returns the checked entry pc, where a dispatch loop starts
        (tests start the retained
        :meth:`~repro.backends.rvm.RVMBackend.run_naive` loop there)."""
        regs = self.regs
        for reg, value in int_args or []:
            regs[reg] = value
        regs[SP] = self.memory_words - 8
        regs[RA] = _RETURN_SENTINEL
        regs[ZERO] = 0
        if entry != _RETURN_SENTINEL \
                and not 0 <= entry < len(self.handlers):
            raise VMError("pc out of range: %d" % entry)
        return entry

    def _call_rt(self, instr: MInstr) -> None:
        name = instr.name or ""
        regs = self.regs
        farg_base = FREG_BASE + ARG_BASE  # float arg i lives in f16+i
        if name == "alloc":
            regs[RV] = self.alloc(int(regs[ARG_BASE]))
        elif name == "print_int":
            self.output.append(int(regs[ARG_BASE]))
        elif name == "print_float":
            self.output.append(float(regs[farg_base]))
        elif name in _PURE_SIGS:
            from ..ir.semantics import PURE_BUILTINS
            kinds, result = _PURE_SIGS[name]
            args = []
            for position, kind in enumerate(kinds):
                if kind == "i":
                    args.append(int(regs[ARG_BASE + position]))
                else:
                    args.append(float(regs[farg_base + position]))
            value = PURE_BUILTINS[name](*args)
            if result == "i":
                regs[RV] = wrap_int(int(value))
            else:
                regs[FRV] = float(value)
        elif name in self.rt_handlers:
            regs[RV] = self.rt_handlers[name](self, instr)
        else:
            raise VMError("unknown runtime call %r" % name)
