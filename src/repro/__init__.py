"""repro: a reproduction of "Fast, Effective Dynamic Compilation"
(Auslander, Philipose, Chambers, Eggers, Bershad -- PLDI 1996).

The package implements the paper's complete system for a C-like
language (MiniC) on a cycle-counting RISC virtual machine:

* programmer annotations: ``dynamicRegion [key(...)] (consts) { ... }``,
  ``unrolled`` loops, ``dynamic*`` / ``dynamic->`` / ``dynamic[]``;
* the static compiler: run-time constants analysis + reachability
  analysis over SSA-form CFGs, region splitting into set-up code and
  machine-code templates with holes, ordinary global optimization;
* the stitcher: the template-copying, hole-patching dynamic compiler
  with constant-branch elimination, complete loop unrolling, linearized
  large-constant tables, and value-based peephole optimizations;
* measurement: per-component cycle attribution reproducing the paper's
  Table 2 metrics (asymptotic speedup, overhead, breakeven point).

Quick start::

    from repro import compile_program

    program = compile_program(source, mode="dynamic")
    result = program.run()
    print(result.value, result.cycles)

See ``examples/quickstart.py`` for the paper's cache-lookup example
end to end.
"""

from .codecache import (
    CacheConfig, CacheKey, CacheStats, CachedEntry, CodeCache,
)
from .errors import (
    ArenaExhausted, ReproError, StitchBudgetExceeded,
)
from .faults import FAULT_SITES, FaultPlan
from .frontend.errors import (
    AnnotationError, CompileError, LexError, ParseError, TypeError_,
)
from .machine.costs import FUSED_STITCHER, StitcherCosts
from .machine.vm import VM, VMError
from .opt.pipeline import OptOptions, OptStats
from .runtime.config import RunConfig
from .runtime.engine import (
    EntryEvent, Program, RunResult, compile_ir_module, compile_program,
)
from .runtime.guards import BreakerConfig, StitchBudget, seeded_jitter
from .runtime.interp import Interpreter, InterpError, run_source
from .runtime.stitchqueue import QueueStats, StitchQueueConfig
from .runtime.tiering import TierPolicy
from .dynamic.stitcher import StitchError, StitchReport

__version__ = "1.0.0"

__all__ = [
    "AnnotationError",
    "ArenaExhausted",
    "BreakerConfig",
    "CacheConfig",
    "CacheKey",
    "CacheStats",
    "CachedEntry",
    "CodeCache",
    "CompileError",
    "EntryEvent",
    "FAULT_SITES",
    "FUSED_STITCHER",
    "FaultPlan",
    "Interpreter",
    "InterpError",
    "LexError",
    "OptOptions",
    "OptStats",
    "ParseError",
    "Program",
    "QueueStats",
    "ReproError",
    "RunConfig",
    "RunResult",
    "StitchBudget",
    "StitchBudgetExceeded",
    "StitchError",
    "StitchQueueConfig",
    "StitchReport",
    "StitcherCosts",
    "TierPolicy",
    "TypeError_",
    "VM",
    "VMError",
    "compile_ir_module",
    "compile_program",
    "run_source",
    "seeded_jitter",
    "__version__",
]
