"""The execution-backend seam.

An :class:`ExecutionBackend` owns everything between a *lowered* piece
of code and its execution on the host.  The rest of the system speaks
backend-neutral forms only:

* the stitcher emits relocatable
  :class:`~repro.codecache.entry.CachedEntry` objects (instruction
  words + relocations + constant pool + entry offset);
* the fallback builder emits a plain instruction list plus symbolic
  labels;
* the loader emits per-function instruction lists.

The backend decides what *host artifact* those become.  The ``rvm``
backend is the bit-exact semantic oracle: per-instruction predecoded
closures driven by the threaded dispatch loop.  The ``pycode`` backend
overlays composed-closure "superhandlers" on top of the same installed
words (see :mod:`repro.backends.pycode`).

The seam contract (see ``docs/BACKENDS.md``):

* **Simulated observables are backend-invariant.**  Return value,
  floats, printed output, memory image, total cycles, per-owner
  cycle/instruction accounting and per-opcode counts must be
  bit-identical across backends for every successful run.  Trapping
  runs must trap with the same exception type (messages and the exact
  cycle count at the trap may differ -- the oracle compares status
  only for non-ok runs).
* **Runtime-service boundaries are exact.**  Whenever a ``call_rt``
  handler (region lookup, stitch, allocation, printing) runs,
  ``vm.cycles`` and the owner cells must hold exactly the value the
  ``rvm`` backend would show at that instruction -- tiering policies
  and the time-series sampler read them mid-run.
* **Install state is shared.**  Every backend installs the same words
  at the same addresses through the same cache/arena path, so cache
  stats, entry pcs, compaction behavior and golden accounting stay
  byte-identical.  Backend-specific artifacts ride alongside
  (``CachedEntry.artifacts``) and die with the entry.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

Number = Union[int, float]


class ExecutionBackend:
    """Base class: the ``rvm`` behavior, with every hook a no-op.

    Subclasses override the hooks they need; anything left alone
    behaves exactly like the historical single-backend engine.
    """

    #: registry name; also what ``--config backend=NAME`` selects and
    #: what the post-run summary prints.
    name = "abstract"

    # -- execution ---------------------------------------------------------

    def execute(self, vm, entry: int,
                int_args: Optional[List[Tuple[int, Number]]] = None,
                dispatch: str = "threaded") -> Tuple[int, float]:
        """Run ``vm`` from ``entry``; returns ``(r0, f0)``.

        The default drives the VM's own dispatch (which executes
        whatever handlers are installed -- including overlays a
        backend's install hooks put there).  ``dispatch="naive"`` is
        the retained instruction-at-a-time oracle loop; it reads
        ``vm.code`` directly and is backend-independent by design.
        """
        return vm.run(entry, int_args, dispatch=dispatch)

    # -- install hooks ------------------------------------------------------

    def prepare_vm(self, vm, static_words: int) -> None:
        """Called once per fresh VM, after the static image is loaded
        (``static_words`` = length of the static code).  Backends may
        compile the static image here; the work survives
        ``reset_for_rerun`` and so amortizes across repeated runs."""

    def entry_installed(self, vm, entry) -> None:
        """Called by the code cache after a
        :class:`~repro.codecache.entry.CachedEntry` is placed,
        relocated and checksummed.  Backends compile their per-entry
        artifact here and may record it in ``entry.artifacts``."""

    def install_block(self, vm, instrs) -> int:
        """Install a non-cache code block (fallback tier); returns its
        base address.  Must behave exactly like ``vm.install_code`` as
        far as addresses and accounting are concerned."""
        return vm.install_code(instrs)

    def block_installed(self, vm, base: int, words: int,
                        entry_pc: int) -> None:
        """Called after a block installed via :meth:`install_block` has
        had its branch targets resolved (fallback blocks resolve labels
        *after* installation)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<%s backend>" % self.name
