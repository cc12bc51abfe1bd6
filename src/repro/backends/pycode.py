"""The ``pycode`` backend: closure-composition host execution.

The rvm backend runs one Python closure per simulated instruction,
re-entering the threaded dispatch loop between every two of them.
This backend lowers each straight-line run of installed code (a
*segment*: leader pc up to and including the first control transfer or
runtime call) into **one** composed Python closure, generated as
source, compiled with :func:`compile`, and installed as an overlay in
``vm.handlers`` at the segment's leader pc once the segment has run
often enough to pay for the compile (see "Lazy compilation" below).
Holes are already bound -- the stitcher patched run-time constants
into the instruction words, so they appear in the generated source as
literals; const-branches were folded and unrolled loops flattened by
the stitcher, so they arrive here as long straight-line segments,
which is exactly what this backend is fastest at.

Execution still flows through the same threaded loop (``pc =
handlers[pc](pc)``); non-leader pcs keep their per-instruction rvm
handlers, so jumping into the middle of a segment (computed ``jmp``,
stale return address) executes instruction-at-a-time and stays
correct.  Segments may overlap -- a superhandler is just "execute
straight-line code from here", so compiling a second segment that
starts inside an existing one is always sound.

Register localization
---------------------

Within a segment the generated code keeps register values in Python
locals: the first read of a register materializes a local (with the
``int``/``float`` coercion its use demands, cached per register), every
write targets a local, and all written registers are flushed back to
``vm.regs`` immediately before the terminator -- so branch tests, the
``jsr`` link write, runtime calls and the next segment all observe
exactly the register file rvm would produce.  A per-register *kind*
(int/float/unknown) tracks what the local already is, eliding the
coercions rvm performs on every operand read; elision is sound because
the coercion of an already-coerced value is the identity.  Raw reads
(``mov``, store values) always see the uncoerced value.  The one
permitted divergence: a *fatal* trap in mid-segment (wild address,
division by zero) can leave earlier results of the same segment
unflushed -- such runs die with the same exception and message, and
the oracle compares status only.

Bit-identical accounting
------------------------

A segment charges its cycles in bulk: the generated prologue adds the
segment's total cost to the cycle counter and, once per distinct
``(owner, opcode, cost)``, that key's execution count to its VM count
cell (see :mod:`repro.machine.vm`).  Totals after the segment equal
the rvm backend's per-instruction charges, and because **runtime calls
terminate segments**, every ``call_rt`` handler (region lookup/stitch,
tiering decisions, the time-series sampler, allocation, printing)
observes exactly the same mid-run cycle counts as under rvm.  The
cycle budget is prechecked against the segment total; if the segment
would cross the budget, the superhandler defers to the saved
per-instruction handler chain, which charges instruction-by-instruction
and traps at exactly the pc rvm would trap at -- the precheck runs
before any register is localized, so the deferred chain starts from
pristine state.

Relocation safety comes from pc-relativity: superhandlers compute
every internal pc as ``pc + k`` from their call argument and read
branch targets from the captured :class:`MInstr` objects at run time,
so compaction (``move_code`` copies handler slots; ``place`` re-points
the same instruction objects) moves segments without recompilation.
Eviction safety comes from the VM's own lifecycle: ``write_code`` and
``fill_freed`` re-predecode the affected slots, which removes stale
overlays; the cache then re-runs :meth:`entry_installed` for whatever
replaces them.

Lazy compilation
----------------

Compiling a segment costs far more than running it once, so a
segment compiles only when it has run enough to pay for the compile:
the paper's Section 5 break-even rule, which
:mod:`repro.runtime.tiering` applies to stitching, applied to this
backend.  One path serves every image of installed code -- the static
image (:meth:`PycodeBackend.prepare_vm`), each stitched entry
(:meth:`PycodeBackend.entry_installed`) and each fallback block
(:meth:`PycodeBackend.block_installed`): the image's compiled
segments are replayed, and every other leader that can compile gets a
*counting stub*, one handler shared by the leaders of one install,
that counts the leader's executions and runs its per-instruction rvm
handler.  The ``B``-th execution (``PycodeBackend.COMPILE_AFTER``)
generates and compiles the segment, installs it over the stub and
runs it; a leader whose segment cannot compile gets its
per-instruction handler back for good.  A compiled segment's budget
deferral ``origin`` is always the per-instruction handler, never a
stub.  Stubs hold the VM and the backend only through weak
references, dereferenced only at that switch, so nothing installed
in a VM holds the VM.  Control that enters static code from an entry
or a fallback block (an ``ext:`` branch back into the owning
function, a ``func:`` call) lands on a static leader -- a function
base, or the pc after a ``br`` -- so it needs no stub of its own.

``B`` is derived, not tuned.  Measured on a 2-vCPU host over fresh
``cold`` variants, generating and compiling a segment costs 15-17 us
per instruction when its source is new and 4.6-4.8 us when the
factory cache already holds it, while a compiled instruction runs
0.22 us faster than its rvm handler (0.039 against 0.256 us, steady
scalar matrix).  So a compile pays back after about 21 executions
(factory hit) to 75 (new source).  A segment that has run 16 times
is almost always a loop that will run many more; ``cold``'s
pycode/rvm time ratio read 1.46 eager, 1.08 at ``B`` = 4 and 0.95 to
1.03 from 8 to 64, and peak RSS 53 MB eager, 40 MB at 4 and 23-28 MB
from 8 to 64.  A
larger ``B`` gains nothing there but lengthens the transient of a
program that is run many times (a segment that runs once per run
compiles on run ``B``), so ``B`` = 16.

Host-compile cost is kept off the steady path at four levels:

* lazy compilation (above) compiles only segments that run at least
  ``B`` times;
* compiled factories are memoized on their generated source
  (re-stitches of the same key produce identical source);
* the static image's stubs, counts and compiled overlays survive
  ``reset_for_rerun`` (only run-time handlers are truncated), so a
  segment that runs once per run compiles on run ``B``;
* each entry image, keyed by function, region and its
  base-independent words (``CachedEntry.canonical_words``), is kept
  per VM with each leader's execution count and compiled plan --
  factory, capture offsets and count cells -- so a re-stitch of the
  same key on a later run, a revival and a copy at another base all
  replay the compiled segments with no discovery and no source
  generation, and keep counting the rest where the last install left
  off.  Equal canonical words are equal code, and generated code is
  pc-relative, so one plan serves every base.  Count cells persist
  across :meth:`VM.reset_for_rerun` (they are zeroed in place), so
  replayed closures keep charging the right counters; the images are
  kept per VM and die with it.

A fallback block is rebuilt every run and is not a cache entry, so it
has no canonical image to carry counts by: each build gets a fresh
image, held only by its stubs, its counts start over every run and it
dies with its handlers at ``reset_for_rerun``.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import VMError
from ..ir.semantics import EvalTrap, binop_impl
from ..machine.isa import ALU_OPS, FALU_OPS, MInstr, RA, RD_WRITING_OPS, ZERO
from .base import ExecutionBackend

Handler = Callable[[int], int]

#: ops that end a segment (control transfers plus runtime calls --
#: the latter so rt handlers observe exact mid-run accounting).
_TERMINATORS = frozenset(
    ["br", "beq", "bne", "jtab", "jsr", "ret", "jmp", "halt", "call_rt"])

#: straight-line ops the code generator knows how to lower.
_STRAIGHT_OPS = frozenset(
    list(ALU_OPS) + list(FALU_OPS) + [
        "ldq", "ldt", "stq", "stt", "lda", "ldih", "mov", "fmov",
        "negq", "ornot", "fneg", "cvtqt", "cvttq", "nop",
    ])

#: ALU/FALU semantic names that can trap (lowered via the shared impl
#: behind a try/except); everything else is inlined as an expression.
_TRAPPING = frozenset(["div", "udiv", "mod", "umod", "fdiv"])

_MASK = "0xffffffffffffffff"
_SIGN = "0x8000000000000000"

#: generated source -> compiled factory (shared across backends: the
#: source is self-contained up to its capture arguments).
_FACTORY_CACHE: Dict[str, Callable] = {}

_EXEC_NAMESPACE = {"VMError": VMError, "EvalTrap": EvalTrap}


def _scaled_add(target: str, per: int, fix: int) -> List[str]:
    """``target += per * n + fix`` with zero terms elided."""
    if per and fix:
        return ["%s += %d * n + %d" % (target, per, fix)]
    if per:
        return ["%s += %d * n" % (target, per)]
    if fix:
        return ["%s += %d" % (target, fix)]
    return []


class _SegmentCodegen:
    """Generate the factory source + captures for one segment.

    Registers live in locals while the segment runs (see the module
    docstring).  Dataflow inside a segment is straight-line -- the only
    generated branches either raise or leave locals untouched -- so the
    per-register state here (current local, known kind, coercion
    aliases) is a sound forward analysis.
    """

    def __init__(self, vm, base_pc: int, instrs: Sequence[MInstr],
                 falls_through: bool, loop: bool = False,
                 body_instrs: Optional[Sequence[MInstr]] = None,
                 body_off: int = 0):
        self.vm = vm
        self.base_pc = base_pc
        self.instrs = instrs
        self.falls_through = falls_through
        #: loop form: the segment's terminator closes a cycle back to
        #: the leader -- either directly (self-loop) or through one
        #: straight body block (``body_instrs`` at leader-relative
        #: ``body_off``, ending in ``br`` to the leader) -- so the
        #: whole loop compiles to an in-closure ``while``.
        self.loop = loop
        self.body_instrs = body_instrs
        self.body_off = body_off
        #: loop-invariant regs whose coercion aliases may be hoisted
        #: out of the loop (filled by the first codegen pass).
        self.hoist_ok: frozenset = frozenset()
        #: the ``(owner, opcode, cost)`` keys of the count cells the
        #: segment charges -> their index among its cells.
        self.keys: Dict[Tuple[str, str, int], int] = {}
        self._reset()

    def _reset(self) -> None:
        self.body: List[str] = []
        self.setup: List[str] = []
        #: loop form only: raw register loads emitted before the loop,
        #: and the registers they load.
        self.preload: List[str] = []
        self.preloaded: set = set()
        #: leader-relative offsets of the captured instructions.
        self.capture_ks: List[int] = []
        self.captured_fns: List[Callable] = []
        self.needs: set = set()
        #: reg -> local currently holding its value (dirty or loaded).
        self.cur: Dict[int, str] = {}
        #: reg -> "int" | "float" | None (unknown) for the current local.
        self.kind: Dict[int, Optional[str]] = {}
        #: (reg, "i"|"f") -> local caching the coerced value.
        self.alias: Dict[Tuple[int, str], str] = {}
        #: written registers, in insertion order (writeback order).
        self.dirty: List[int] = []
        #: reg -> (condition expr, operand regs) for a reg last
        #: written by a comparison whose operands are still live:
        #: lets ``beq``/``bne`` branch on the condition directly
        #: (``reg != 0`` iff the condition held) instead of
        #: re-testing the stored 0/1.
        self.cmp_test: Dict[int, Tuple[str, frozenset]] = {}

    # -- capture helpers ---------------------------------------------------

    def _instr_ref(self, k: int) -> str:
        """A local naming the word at leader-relative offset ``k``."""
        name = "i%d" % len(self.capture_ks)
        self.setup.append("%s = instrs[%d]" % (name, len(self.capture_ks)))
        self.capture_ks.append(k)
        return name

    def _fn_ref(self, fn: Callable) -> str:
        name = "f%d" % len(self.captured_fns)
        self.captured_fns.append(fn)
        self.setup.append("%s = fns[%d]"
                          % (name, len(self.captured_fns) - 1))
        return name

    # -- register locals ---------------------------------------------------

    def _materialize(self, reg: int) -> str:
        """Loop form: the body must never read ``regs[]`` (iterations
        after the first see locals, not the register file), so the
        first read of any register emits a raw preload before the
        loop."""
        name = "r%d" % reg
        self.preload.append("%s = regs[%d]" % (name, reg))
        self.preloaded.add(reg)
        self.cur[reg] = name
        self.kind[reg] = None
        return name

    def _coerced(self, reg: int, fn: str, suffix: str) -> str:
        cur = self.cur.get(reg)
        if cur is not None and self.kind.get(reg) == fn:
            return cur
        name = self.alias.get((reg, suffix))
        if name is None:
            name = "r%d%s" % (reg, suffix)
            if self.loop:
                if cur is None:
                    cur = self._materialize(reg)
                line = "%s = %s(%s)" % (name, fn, cur)
                # a loop-invariant register's coercion is itself
                # invariant: hoist it out of the loop.
                if reg in self.hoist_ok:
                    self.preload.append(line)
                else:
                    self.body.append(line)
            else:
                src = cur if cur is not None else "regs[%d]" % reg
                self.body.append("%s = %s(%s)" % (name, fn, src))
            self.alias[(reg, suffix)] = name
        return name

    def _iread(self, reg: int) -> str:
        """A local holding ``int(regs[reg])``-equivalent."""
        return self._coerced(reg, "int", "i")

    def _fread(self, reg: int) -> str:
        """A local holding ``float(regs[reg])``-equivalent."""
        return self._coerced(reg, "float", "f")

    def _rread(self, reg: int) -> str:
        """The raw (uncoerced) value of ``reg``."""
        cur = self.cur.get(reg)
        if cur is None and self.loop:
            return self._materialize(reg)
        return cur if cur is not None else "regs[%d]" % reg

    def _write(self, reg: int, kind: Optional[str]) -> str:
        """Target local for a write to ``reg`` (caller emits the
        assignment).  Must be called *after* the operand reads."""
        name = "r%d" % reg
        if reg not in self.dirty:
            self.dirty.append(reg)
        self.cur[reg] = name
        self.kind[reg] = kind
        self.alias.pop((reg, "i"), None)
        self.alias.pop((reg, "f"), None)
        if self.cmp_test:
            self.cmp_test.pop(reg, None)
            for r in [r for r, (_, deps) in self.cmp_test.items()
                      if reg in deps]:
                del self.cmp_test[r]
        return name

    def _note_cmp(self, instr: MInstr, cond: str) -> None:
        """Record that ``instr.rd`` now holds ``1 if cond else 0``."""
        deps = frozenset(r for r in (instr.ra, instr.rb) if r is not None)
        if instr.rd not in deps:
            self.cmp_test[instr.rd] = (cond, deps)

    def _branch_cond(self, reg: int, nonzero: bool) -> str:
        """Condition string for ``regs[reg] != 0`` (or ``== 0``),
        preferring a fused comparison over re-testing the value."""
        fused = self.cmp_test.get(reg)
        if fused is not None:
            return fused[0] if nonzero else "not (%s)" % fused[0]
        return None

    def _wrap_write(self, rd: int, expr: str) -> None:
        """``local = wrap_int(expr)`` inlined.  The in-range guard
        keeps the common case on CPython's single-digit fast path; the
        overflow arm uses the total identity ``wrap_int(x) ==
        ((x + 2**63) & (2**64-1)) - 2**63``."""
        name = self._write(rd, "int")
        self.body.append("_t = %s" % expr)
        self.body.append(
            "%s = _t if %d <= _t <= %d else ((_t + %s) & %s) - %s"
            % (name, -(2 ** 63), 2 ** 63 - 1, _SIGN, _MASK, _SIGN))

    def _emit_writeback(self) -> None:
        for reg in self.dirty:
            self.body.append("regs[%d] = %s" % (reg, self.cur[reg]))

    # -- per-instruction lowering ------------------------------------------

    def _addr(self, ra: int, imm: int) -> str:
        base = self._iread(ra)
        if imm:
            self.body.append("_a = %s + %d" % (base, imm))
            return "_a"
        return base

    def _emit(self, k: int, instr: MInstr) -> None:
        op = instr.op
        out = self.body
        rd, ra, rb, imm = instr.rd, instr.ra, instr.rb, instr.imm
        if op == "ldq" or op == "ldt":
            self.needs.add("memory")
            a = self._addr(ra, imm)
            out.append("if not 0 <= %s < memlen:" % a)
            out.append("    raise VMError(\"load from wild address %%#x"
                       " at pc %%d\" %% (%s, pc + %d))" % (a, k))
            name = self._write(rd, None)
            out.append("try:")
            out.append("    %s = memory[%s]" % (name, a))
            out.append("except KeyError:")  # never written: reads 0
            out.append("    %s = 0" % name)
        elif op == "stq" or op == "stt":
            self.needs.add("memory")
            a = self._addr(ra, imm)
            val = self._rread(rb)
            out.append("if not 0 <= %s < memlen:" % a)
            out.append("    raise VMError(\"store to wild address %%#x"
                       " at pc %%d\" %% (%s, pc + %d))" % (a, k))
            out.append("memory[%s] = %s" % (a, val))
        elif op == "lda":
            if ra == ZERO:
                kind = "int" if isinstance(imm, int) else None
                name = self._write(rd, kind)
                out.append("%s = %r" % (name, imm))
            else:
                a = self._iread(ra)
                self._wrap_write(rd, "%s + %d" % (a, imm))
        elif op == "ldih":
            a = self._iread(rd)
            self._wrap_write(rd, "(%s << 16) | %d" % (a, imm & 0xFFFF))
        elif op in ALU_OPS:
            self._emit_alu(k, instr)
        elif op in FALU_OPS:
            self._emit_falu(k, instr)
        elif op == "mov" or op == "fmov":
            src = self._rread(ra)
            srckind = self.kind.get(ra) if ra in self.cur else None
            name = self._write(rd, srckind)
            if name != src:
                out.append("%s = %s" % (name, src))
        elif op == "negq":
            a = self._iread(ra)
            self._wrap_write(rd, "-%s" % a)
        elif op == "ornot":
            a = self._iread(ra)
            self._wrap_write(rd, "~%s" % a)
        elif op == "fneg":
            a = self._fread(ra)
            name = self._write(rd, "float")
            out.append("%s = -%s" % (name, a))
        elif op == "cvtqt":
            a = self._iread(ra)
            name = self._write(rd, "float")
            out.append("%s = float(%s)" % (name, a))
        elif op == "cvttq":
            a = self._fread(ra)
            self._wrap_write(rd, "int(%s)" % a)
        elif op == "nop":
            pass
        else:  # pragma: no cover - guarded by _STRAIGHT_OPS
            raise ValueError("uncompilable op %r" % op)
        if rd == ZERO and op in RD_WRITING_OPS:
            name = self._write(ZERO, "int")
            out.append("%s = 0" % name)

    def _emit_alu(self, k: int, instr: MInstr) -> None:
        out = self.body
        sem = ALU_OPS[instr.op]
        rd = instr.rd
        a = self._iread(instr.ra)
        if instr.rb is not None:
            b = self._iread(instr.rb)
        else:
            b = "(%d)" % instr.imm
        if sem in _TRAPPING:
            # a nonzero *constant* divisor (a stitched-in hole value or
            # literal immediate) can never trap: inline the C-semantics
            # division instead of calling the shared impl via
            # try/except.  Truncation toward zero / dividend-sign
            # remainder for positive divisors; unsigned ops mask the
            # dividend and re-wrap the (possibly >= 2**63) result.
            imm = instr.imm
            if instr.rb is None and isinstance(imm, int) and imm != 0:
                if sem == "div" and imm > 0:
                    name = self._write(rd, "int")
                    out.append("%s = %s // %d if %s >= 0 else -(-%s // %d)"
                               % (name, a, imm, a, a, imm))
                    return
                if sem == "mod" and imm > 0:
                    name = self._write(rd, "int")
                    out.append("%s = %s %% %d if %s >= 0 else"
                               " -(-%s %% %d)" % (name, a, imm, a, a, imm))
                    return
                if sem == "udiv" or sem == "umod":
                    pyop = "//" if sem == "udiv" else "%"
                    self._wrap_write(rd, "(%s & %s) %s %d"
                                     % (a, _MASK, pyop,
                                        imm & 0xFFFFFFFFFFFFFFFF))
                    return
            fn = self._fn_ref(binop_impl(sem))
            name = self._write(rd, "int")
            out.append("try:")
            out.append("    %s = %s(%s, %s)" % (name, fn, a, b))
            out.append("except EvalTrap as trap:")
            out.append("    raise VMError(\"arithmetic trap at pc %%d:"
                       " %%s\" %% (pc + %d, trap))" % k)
            return
        if sem == "add":
            self._wrap_write(rd, "%s + %s" % (a, b))
        elif sem == "sub":
            self._wrap_write(rd, "%s - %s" % (a, b))
        elif sem == "mul":
            self._wrap_write(rd, "%s * %s" % (a, b))
        elif sem == "and":
            self._wrap_write(rd, "%s & %s" % (a, b))
        elif sem == "or":
            self._wrap_write(rd, "%s | %s" % (a, b))
        elif sem == "xor":
            self._wrap_write(rd, "%s ^ %s" % (a, b))
        elif sem in ("shl", "lshr", "ashr"):
            if instr.rb is None and isinstance(instr.imm, int):
                b = "%d" % (instr.imm & 63)  # fold the count mask
            else:
                b = "(%s & 63)" % b
            if sem == "shl":
                self._wrap_write(rd, "%s << %s" % (a, b))
            elif sem == "lshr":
                self._wrap_write(rd, "(%s & %s) >> %s" % (a, _MASK, b))
            else:
                self._wrap_write(rd, "%s >> %s" % (a, b))
        elif sem in ("eq", "ne", "lt", "le"):
            cmp = {"eq": "==", "ne": "!=", "lt": "<", "le": "<="}[sem]
            name = self._write(rd, "int")
            cond = "%s %s %s" % (a, cmp, b)
            out.append("%s = 1 if %s else 0" % (name, cond))
            self._note_cmp(instr, cond)
        elif sem == "ult" or sem == "ule":
            name = self._write(rd, "int")
            cond = "%s & %s %s %s & %s" % (
                a, _MASK, "<" if sem == "ult" else "<=", b, _MASK)
            out.append("%s = 1 if %s else 0" % (name, cond))
            self._note_cmp(instr, cond)
        else:  # pragma: no cover - exhaustive over ALU_OPS
            raise ValueError("unhandled ALU semantic %r" % sem)

    def _emit_falu(self, k: int, instr: MInstr) -> None:
        out = self.body
        sem = FALU_OPS[instr.op]
        rd = instr.rd
        a = self._fread(instr.ra)
        b = self._fread(instr.rb)
        if sem in _TRAPPING:
            fn = self._fn_ref(binop_impl(sem))
            name = self._write(rd, "float")
            out.append("try:")
            out.append("    %s = %s(%s, %s)" % (name, fn, a, b))
            out.append("except EvalTrap as trap:")
            out.append("    raise VMError(\"float trap at pc %%d: %%s\""
                       " %% (pc + %d, trap))" % k)
            return
        if sem in ("fadd", "fsub", "fmul"):
            pyop = {"fadd": "+", "fsub": "-", "fmul": "*"}[sem]
            name = self._write(rd, "float")
            out.append("%s = %s %s %s" % (name, a, pyop, b))
        elif sem in ("feq", "fne", "flt", "fle"):
            cmp = {"feq": "==", "fne": "!=", "flt": "<", "fle": "<="}[sem]
            name = self._write(rd, "int")
            cond = "%s %s %s" % (a, cmp, b)
            out.append("%s = 1 if %s else 0" % (name, cond))
            self._note_cmp(instr, cond)
        else:  # pragma: no cover - exhaustive over FALU_OPS
            raise ValueError("unhandled FALU semantic %r" % sem)

    def _emit_terminator(self, k: int, instr: MInstr) -> None:
        out = self.body
        op = instr.op
        if op == "call_rt":
            self.needs.add("call_rt")
            out.append("rt[0](%s)" % self._instr_ref(k))
            out.append("return pc + %d" % (k + 1))
        elif op == "br":
            ref = self._instr_ref(k)
            out.append("_t = %s.target" % ref)
            self._check_target(out, "")
            out.append("return _t")
        elif op == "beq" or op == "bne":
            ref = self._instr_ref(k)
            cond = self._branch_cond(instr.ra, nonzero=op == "bne")
            if cond is None:
                # numeric truthiness is exactly ``!= 0``.
                cond = ("regs[%d]" if op == "bne"
                        else "not regs[%d]") % instr.ra
            out.append("if %s:" % cond)
            out.append("    _t = %s.target" % ref)
            self._check_target(out, "    ")
            out.append("    return _t")
            out.append("return pc + %d" % (k + 1))
        elif op == "jsr":
            ref = self._instr_ref(k)
            out.append("regs[%d] = pc + %d" % (RA, k + 1))
            out.append("_t = %s.target" % ref)
            self._check_target(out, "")
            out.append("return _t")
        elif op == "ret":
            out.append("_t = int(regs[%d])" % RA)
            out.append("if _t < 0 and _t != -2:")
            out.append("    raise VMError(\"pc out of range: %d\" % _t)")
            out.append("return _t")
        elif op == "jmp":
            out.append("_t = int(regs[%d])" % instr.ra)
            out.append("if _t < 0 and _t != -2:")
            out.append("    raise VMError(\"pc out of range: %d\" % _t)")
            out.append("return _t")
        elif op == "jtab":
            ref = self._instr_ref(k)
            out.append("_ts, _d = %s.extra" % ref)
            out.append("_ix = int(regs[%d]) - %d" % (instr.ra, instr.imm))
            out.append("_t = _ts[_ix] if 0 <= _ix < len(_ts) else _d")
            self._check_target(out, "")
            out.append("return _t")
        elif op == "halt":
            out.append("return -2")
        else:  # pragma: no cover - guarded by _TERMINATORS
            raise ValueError("unhandled terminator %r" % op)

    @staticmethod
    def _check_target(out: List[str], pad: str) -> None:
        out.append(pad + "if _t < 0:")
        out.append(pad + "    raise VMError(\"pc out of range: %d\" % _t)")

    # -- assembly ----------------------------------------------------------

    def generate(self) -> Tuple[str, Tuple[int, ...], tuple, tuple]:
        """Returns ``(source, capture offsets, fn captures, count
        cells)``; the captured instructions are the words at the
        leader-relative capture offsets."""
        lines = self._generate_loop() if self.loop \
            else self._generate_straight()
        source = "\n".join(lines) + "\n"
        cells = tuple(self.vm._count_cell(*key) for key in self.keys)
        return (source, tuple(self.capture_ks), tuple(self.captured_fns),
                cells)

    def _charges(self, instrs: Sequence[MInstr]):
        """The cost of ``instrs`` and their executions per count cell,
        ``{cell index: count}``, where a cell gets the next index when
        first seen (so a loop's blocks share them)."""
        cost = 0
        counts: Dict[int, int] = {}
        keys = self.keys
        for instr in instrs:
            cost += instr.cost
            j = keys.setdefault((instr.owner, instr.op, instr.cost),
                                len(keys))
            counts[j] = counts.get(j, 0) + 1
        return cost, counts

    def _generate_straight(self) -> List[str]:
        """Assemble the straight-line form: one bulk charge, then the
        instructions."""
        seg_cost, counts = self._charges(self.instrs)
        for k, instr in enumerate(self.instrs):
            if instr.op in _TERMINATORS:
                self._emit_writeback()
                self._emit_terminator(k, instr)
            else:
                self._emit(k, instr)
        if self.falls_through:
            self._emit_writeback()
            self.body.append("return pc + %d" % len(self.instrs))

        lines = self._factory_header()
        lines.append("    def seg(pc):")
        lines.append("        projected = cyc[0] + %d" % seg_cost)
        lines.append("        if projected > maxc[0]:")
        lines.append("            return origin(pc)")
        lines.append("        cyc[0] = projected")
        for j, count in counts.items():
            lines.append("        kc%d[0] += %d" % (j, count))
        for line in self.body:
            lines.append("        " + line)
        lines.append("    seg._pycode_segment = True")
        lines.append("    return seg")
        return lines

    def _factory_header(self) -> List[str]:
        lines = ["def _factory(vm, instrs, fns, origin, kcells):"]
        lines.append("    regs = vm.regs")
        lines.append("    cyc = vm._cyc")
        lines.append("    maxc = vm._maxc")
        if "memory" in self.needs:
            lines.append("    memory = vm.memory")
            lines.append("    memlen = vm.memory_words")
        if "call_rt" in self.needs:
            lines.append("    rt = vm._rt")
        for j in range(len(self.keys)):
            lines.append("    kc%d = kcells[%d]" % (j, j))
        for line in self.setup:
            lines.append("    " + line)
        return lines

    def _generate_loop(self):
        """Assemble the loop form: iterations run inside one Python
        ``while`` with registers held in locals throughout.

        Two shapes share this generator.  A *self-loop* is a single
        block whose terminator (``br``/``beq``/``bne``) targets its own
        leader.  A *fused loop* adds one straight body block: the head
        ends in a conditional branch whose one side enters the body
        (``body_off`` relative to the leader), and the body ends in
        ``br`` back to the leader -- the classic while-loop lowering.

        Accounting is kept in locals (``projected`` plus a completed-
        iteration counter ``n``) and flushed to the shared cells in
        bulk at every loop exit.  Exits are the only points where
        another party can observe the counters, because runtime calls
        terminate segments (a *fatal* mid-loop trap can observe stale
        counters and registers, but such runs die -- same contract as
        mid-segment traps in the straight-line form).  Per-block
        budget prechecks keep the trap point exact: on overrun the
        closure flushes the completed blocks, writes registers back
        and returns control to the per-instruction chain (the saved
        origin for the head; the head's own dispatch pc for the body),
        which charges instruction-by-instruction and traps exactly
        where rvm would.  Run-time guards on the captured branch
        targets re-validate the loop shape after any rebase; on
        mismatch the closure defers to the origin, which is always
        correct."""
        head = self.instrs
        body = self.body_instrs
        term = head[-1]
        cost_h, counts_h = self._charges(head)
        cost_b, counts_b = self._charges(body or ())

        def emit_blocks():
            """Emit head (minus terminator) and body (minus the final
            ``br``) through the register-localizing lowerer; returns
            (head lines, test value, fused condition, body lines)."""
            for k in range(len(head) - 1):
                self._emit(k, head[k])
            val = cond = None
            if term.op != "br":
                fused = self.cmp_test.get(term.ra)
                if fused is not None:
                    cond = fused[0]
                else:
                    val = self._rread(term.ra)
            head_lines = self.body
            self.body = []
            body_lines = []
            if body is not None:
                for idx in range(len(body) - 1):
                    self._emit(self.body_off + idx, body[idx])
                body_lines = self.body
                self.body = []
            return head_lines, val, cond, body_lines

        # Two codegen passes: the first discovers which registers the
        # loop writes, so the second hoists coercions of the loop-
        # invariant ones out of the loop.
        emit_blocks()
        self.hoist_ok = frozenset(
            r for r in self.cur if r not in self.dirty)
        self._reset()
        head_lines, test_val, fused_cond, body_lines = emit_blocks()

        term_ref = self._instr_ref(len(head) - 1)
        br_ref = None
        if body is not None:
            br_ref = self._instr_ref(self.body_off + len(body) - 1)
        writeback = ["regs[%d] = %s" % (r, self.cur[r])
                     for r in self.dirty]

        def flush(dh: int, db: int, corr: int) -> List[str]:
            """Cell updates for ``n + dh`` head and ``n + db`` body
            executions; ``corr`` backs the unexecuted block out of
            ``projected``."""
            ls = ["cyc[0] = projected" + (" - %d" % corr if corr else "")]
            for j in range(len(self.keys)):
                in_head, in_body = counts_h.get(j, 0), counts_b.get(j, 0)
                ls.extend(_scaled_add("kc%d[0]" % j, in_head + in_body,
                                      dh * in_head + db * in_body))
            return ls

        lines = self._factory_header()
        lines.append("    def seg(pc):")
        if body is not None and term.target == self.base_pc + self.body_off:
            # body on the taken side: re-validate both edges.
            lines.append("        if %s.target != pc + %d:"
                         % (term_ref, self.body_off))
            lines.append("            return origin(pc)")
        elif body is None:
            lines.append("        if %s.target != pc:" % term_ref)
            lines.append("            return origin(pc)")
        if br_ref is not None:
            lines.append("        if %s.target != pc:" % br_ref)
            lines.append("            return origin(pc)")
        def cond_str(cmp: str) -> str:
            """Condition for ``test cmp 0`` (cmp is ``==``/``!=``),
            through the fused comparison when one is available (numeric
            truthiness is exactly ``!= 0`` otherwise)."""
            if fused_cond is not None:
                return fused_cond if cmp == "!=" \
                    else "not (%s)" % fused_cond
            return test_val if cmp == "!=" else "not %s" % test_val

        lines.append("        projected = cyc[0]")
        lines.append("        _mx = maxc[0]")
        lines.append("        n = 0")
        for line in self.preload:
            lines.append("        " + line)
        # Every exit writes back every register the loop writes, so a
        # register first written inside the loop must be bound even
        # when the loop leaves before writing it (a zero-trip loop, a
        # budget deferral on entry): bind it to its current value.
        for reg in self.dirty:
            if reg not in self.preloaded:
                lines.append("        r%d = regs[%d]" % (reg, reg))
        lines.append("        while True:")
        if body is None:
            lines.append("            projected += %d" % cost_h)
            lines.append("            if projected > _mx:")
            for f in flush(0, 0, cost_h):
                lines.append("                " + f)
            for w in writeback:
                lines.append("                " + w)
            lines.append("                return origin(pc)")
            for line in head_lines:
                lines.append("            " + line)
            if term.op == "br":
                # self-loop on an unconditional branch: only the
                # budget check above ever leaves the loop.
                lines.append("            n += 1")
            else:
                # conditional self-loop: taken -> next iteration.
                taken_cmp = "==" if term.op == "beq" else "!="
                lines.append("            if %s:" % cond_str(taken_cmp))
                lines.append("                n += 1")
                lines.append("                continue")
                for line in flush(1, 0, 0) + writeback \
                        + ["return pc + %d" % len(head)]:
                    lines.append("            " + line)
            lines.append("    seg._pycode_segment = True")
            lines.append("    return seg")
            return lines

        body_taken = term.target == self.base_pc + self.body_off
        taken_cmp = "==" if term.op == "beq" else "!="
        cont_cmp = taken_cmp if body_taken \
            else ("!=" if term.op == "beq" else "==")

        def emit_exit(pad: str) -> None:
            if body_taken:
                # exit is the conditional's fall-through.
                lines.append(pad + "return pc + %d" % len(head))
            else:
                # exit is the conditional's (possibly absolute) target.
                lines.append(pad + "_t = %s.target" % term_ref)
                self._check_target(lines, pad)
                lines.append(pad + "return _t")

        # One merged budget check per iteration on the fast path; the
        # slow path (taken at most once per invocation, since budgets
        # only grow toward the limit) backs the body charge out and
        # replays the exact per-block sequence so deferral points and
        # observed counters match rvm instruction-for-instruction.
        lines.append("            projected += %d" % (cost_h + cost_b))
        lines.append("            if projected > _mx:")
        lines.append("                projected -= %d" % cost_b)
        lines.append("                if projected > _mx:")
        for f in flush(0, 0, cost_h):
            lines.append("                    " + f)
        for w in writeback:
            lines.append("                    " + w)
        lines.append("                    return origin(pc)")
        for line in head_lines:
            lines.append("                " + line)
        for f in flush(1, 0, 0):
            lines.append("                " + f)
        for w in writeback:
            lines.append("                " + w)
        # head ran but the body charge would cross the budget: hand
        # the body's pc to the per-instruction chain.
        lines.append("                if %s:" % cond_str(cont_cmp))
        lines.append("                    return pc + %d" % self.body_off)
        emit_exit("                ")
        for line in head_lines:
            lines.append("            " + line)
        lines.append("            if %s:" % cond_str(cont_cmp))
        for line in body_lines:
            lines.append("                " + line)
        lines.append("                n += 1")
        lines.append("                continue")
        for f in flush(1, 0, cost_b):
            lines.append("            " + f)
        for w in writeback:
            lines.append("            " + w)
        emit_exit("            ")
        lines.append("    seg._pycode_segment = True")
        lines.append("    return seg")
        return lines


def _leaders(code, start: int, end: int,
             entries: Sequence[int]) -> List[int]:
    """The sorted segment leaders of ``[start, end)``: ``start``, the
    given entry pcs, every in-range branch or jump-table target and
    every pc after a terminator."""
    leaders = set(pc for pc in entries if start <= pc < end)
    for p in range(start, end):
        op = code[p].op
        if op not in _TERMINATORS:
            continue
        if op in ("br", "beq", "bne", "jsr"):
            target = code[p].target
            if start <= target < end:
                leaders.add(target)
        elif op == "jtab":
            extra = code[p].extra
            if isinstance(extra, tuple) and len(extra) == 2:
                targets, default = extra
                for target in list(targets) + [default]:
                    if isinstance(target, int) and start <= target < end:
                        leaders.add(target)
        if p + 1 < end:
            leaders.add(p + 1)
    if start < end:
        leaders.add(start)
    return sorted(leaders)


def _spans(leaders: List[int], end: int):
    """``(leader, limit)`` pairs: a segment stops at the next leader."""
    return zip(leaders, leaders[1:] + [end])


class _Image:
    """Lazy-compile state of one image of installed code: a VM's static
    image, one canonical stitched-entry image (shared by every install
    of it: a re-stitch on a later run, a revival, a copy at another
    base) or one fallback block.  ``limits`` maps each leader offset
    that may compile to its segment limit (a leader whose segment does
    not compile leaves it, so no install arms it again), ``counts``
    holds the executions per offset and ``plans`` the compiled
    segments by offset.  ``base`` is where the image was built: the
    static image and a fallback block never move, so each is its own
    place, while an entry image is placed by each entry it serves."""

    __slots__ = ("base", "words", "limits", "counts", "plans")

    def __init__(self, backend: "PycodeBackend", code, base: int,
                 words: int, entries: Sequence[int] = ()):
        end = base + words
        self.base = base
        self.words = words
        self.limits: Dict[int, int] = {}
        for leader, limit in _spans(_leaders(code, base, end, entries),
                                    end):
            if backend._armable(code, leader, limit):
                self.limits[leader - base] = limit - base
        self.counts = [0] * words
        self.plans: Dict[int, tuple] = {}

    def compile(self, backend: "PycodeBackend", vm, pc: int, off: int,
                origin: Handler) -> Optional[Handler]:
        """The compiled segment of the leader at offset ``off``,
        installed at ``pc``, or None when it does not compile."""
        plan = self.plans.get(off)
        if plan is not None:  # compiled through another install
            backend.plans_replayed += 1
        elif off in self.limits:
            base = pc - off
            plan = backend._compile_segment(
                vm, pc, base + self.limits[off], base, base + self.words)
            if plan is None:
                del self.limits[off]
                return None
            self.plans[off] = plan
        else:  # another install found that it does not compile
            return None
        return backend._instantiate(vm, pc, plan, origin)


class PycodeBackend(ExecutionBackend):
    """Closure-composition overlays on the shared installed words."""

    name = "pycode"

    #: segments shorter than this keep their per-instruction handler
    #: (a one-instruction superhandler saves nothing).
    MIN_SEGMENT = 2

    #: a segment compiles on its ``COMPILE_AFTER``-th execution (see
    #: "Lazy compilation" in the module docstring for the derivation).
    COMPILE_AFTER = 16

    def __init__(self):
        #: host-side stats, read by perfbench's tracer and the tests.
        self.segments_compiled = 0
        self.factory_cache_hits = 0
        self.plans_replayed = 0
        #: leader executions through a counting stub, counted by the
        #: stubs in this shared cell (the backend holds only the entry
        #: images, not the static image or a fallback block's).
        self._stub_runs = [0]
        #: VM -> canonical entry image -> its _Image; weak, so the
        #: backend never holds a VM.
        self._entry_images: "weakref.WeakKeyDictionary" = \
            weakref.WeakKeyDictionary()

    @property
    def stub_runs(self) -> int:
        """Leader executions that went through a counting stub: in a
        static image, a stitched entry or a fallback block."""
        return self._stub_runs[0]

    # -- seam hooks --------------------------------------------------------

    def prepare_vm(self, vm, static_words: int) -> None:
        """Arm the static image; its stubs, counts and compiled
        segments survive ``reset_for_rerun``."""
        image = _Image(self, vm.code, 0, static_words)
        self._arm(vm, image, image)

    def entry_installed(self, vm, entry) -> None:
        """Arm the entry's canonical image, one per VM and
        ``(func, region, canonical words)``, so every install of it
        shares its counts and replays its plans."""
        images = self._entry_images.get(vm)
        if images is None:
            images = self._entry_images[vm] = {}
        key = (entry.key.func, entry.key.region_id,
               entry.canonical_words())
        image = images.get(key)
        if image is None:
            image = images[key] = _Image(self, vm.code, entry.base,
                                         entry.words, (entry.entry_pc,))
        self._arm(vm, image, entry)

    def block_installed(self, vm, base: int, words: int,
                        entry_pc: int) -> None:
        """Arm a fresh image of the fallback block: blocks are rebuilt
        every run, so its counts start over and it dies with its
        handlers at ``reset_for_rerun``."""
        image = _Image(self, vm.code, base, words, (entry_pc,))
        self._arm(vm, image, image)

    # -- lazy compilation --------------------------------------------------

    def _armable(self, code, leader: int, limit: int) -> bool:
        """Whether the segment at ``leader`` can compile at all: it
        starts with a straight-line op and has room for
        ``MIN_SEGMENT`` instructions before ``limit``."""
        return limit - leader >= self.MIN_SEGMENT \
            and code[leader].op in _STRAIGHT_OPS

    def _arm(self, vm, image: _Image, place) -> None:
        """Install ``image`` at ``place.base``, whose handlers are
        freshly predecoded: replay its compiled plans and arm one
        counting stub at its other leaders."""
        base = place.base
        handlers = vm.handlers
        stub = None
        for off in image.limits:
            plan = image.plans.get(off)
            if plan is not None:
                handlers[base + off] = self._instantiate(
                    vm, base + off, plan, handlers[base + off])
                self.plans_replayed += 1
                continue
            if stub is None:  # the offsets replayed so far get no stub
                stub = self._stub(vm, image, place,
                                  handlers[base:base + image.words])
            handlers[base + off] = stub

    def _stub(self, vm, image: _Image, place,
              origins: List[Handler]) -> Handler:
        """The counting stub of one install of ``image``.

        ``place.base`` is the install's current base (an entry's moves
        when compaction moves it, and handlers move with their words),
        so the stub finds its leader's offset from its pc.  A leader's
        first ``COMPILE_AFTER - 1`` executions run its per-instruction
        handler ``origins[off]``; the next one compiles the segment,
        installs it over the stub and runs it, and a leader whose
        segment does not compile gets its per-instruction handler back
        for good.  The VM's handlers hold the stub, so the stub holds
        the VM and this backend only through weak references,
        dereferenced only when a leader compiles."""
        vm_ref = weakref.ref(vm)
        backend_ref = weakref.ref(self)
        counts = image.counts
        after = self.COMPILE_AFTER
        runs = self._stub_runs

        def stub(pc):
            runs[0] += 1
            off = pc - place.base
            n = counts[off] + 1
            counts[off] = n
            if n < after:
                return origins[off](pc)
            handler = origins[off]
            backend = backend_ref()
            if backend is not None:
                handler = image.compile(backend, vm_ref(), pc, off,
                                        handler) or handler
            vm_ref().handlers[pc] = handler
            return handler(pc)

        stub._pycode_stub = True
        return stub

    # -- segment compilation -----------------------------------------------

    @staticmethod
    def _instantiate(vm, leader: int, plan: tuple,
                     origin: Handler) -> Handler:
        """The superhandler of ``plan`` at ``leader``: the factory bound
        to the words installed there, deferring to ``origin`` (always a
        per-instruction handler, never a stub)."""
        factory, ks, fns, kcells = plan
        code = vm.code
        return factory(vm, tuple(code[leader + k] for k in ks), fns,
                       origin, kcells)

    def _find_loop_body(self, vm, leader: int, head_len: int,
                        term: MInstr, start: int, end: int):
        """For a head block ending in ``beq``/``bne``, look for one
        straight body block on either side of the conditional that
        ends in ``br`` back to the leader -- the classic while-loop
        shape.  Returns ``(body instrs, leader-relative offset)`` or
        None.  The body must lie inside ``[start, end)`` so plan-cache
        replay can re-capture its words from the entry image."""
        code = vm.code
        for b in (term.target, leader + head_len):
            if not start <= b < end or b == leader:
                continue
            instrs: List[MInstr] = []
            p = b
            closed = False
            while p < end and len(instrs) < 512:
                instr = code[p]
                op = instr.op
                if op == "br":
                    instrs.append(instr)
                    closed = instr.target == leader
                    break
                if op in _TERMINATORS or op not in _STRAIGHT_OPS:
                    break
                instrs.append(instr)
                p += 1
            if closed and len(instrs) > 1:
                return instrs, b - leader
        return None

    def _compile_segment(self, vm, leader: int, limit: int, start: int,
                         end: int) -> Optional[tuple]:
        """Generate and compile the segment at ``leader``: straight-line
        code up to its first terminator or ``limit``, with a loop body
        looked for inside ``[start, end)``.  Returns its plan
        ``(factory, capture offsets, fns, count cells)`` for
        :meth:`_instantiate`, or None when it does not compile."""
        code = vm.code
        instrs: List[MInstr] = []
        falls_through = True
        p = leader
        while p < limit:
            instr = code[p]
            op = instr.op
            if op in _TERMINATORS:
                instrs.append(instr)
                falls_through = False
                break
            if op not in _STRAIGHT_OPS:
                return None  # freed / unknown op: stay interpretive
            instrs.append(instr)
            p += 1
        if len(instrs) < self.MIN_SEGMENT:
            return None
        # Loop shapes: a terminator branching back to the leader makes
        # a self-loop; a conditional whose one side runs one straight
        # block ending in ``br`` back to the leader makes a fused
        # while-loop.  Relocations preserve both shapes across
        # rebasing (the back edges are local relocs whose values are
        # leader-relative offsets) and the generated guards re-check
        # the captured targets at run time.
        loop = False
        body_instrs = None
        body_off = 0
        if not falls_through:
            term = instrs[-1]
            if term.op in ("br", "beq", "bne") and term.target == leader:
                loop = sum(i.cost for i in instrs) > 0
            elif term.op in ("beq", "bne"):
                found = self._find_loop_body(vm, leader, len(instrs),
                                             term, start, end)
                if found is not None:
                    body_instrs, body_off = found
                    loop = True
        gen = _SegmentCodegen(vm, leader, instrs, falls_through,
                              loop=loop, body_instrs=body_instrs,
                              body_off=body_off)
        source, ks, fns, kcells = gen.generate()
        factory = _FACTORY_CACHE.get(source)
        if factory is None:
            namespace = dict(_EXEC_NAMESPACE)
            exec(compile(source, "<pycode-segment>", "exec"), namespace)
            factory = _FACTORY_CACHE[source] = namespace["_factory"]
        else:
            self.factory_cache_hits += 1
        self.segments_compiled += 1
        return factory, ks, fns, kcells
