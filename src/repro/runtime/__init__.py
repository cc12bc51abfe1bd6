"""Execution: the engine (compile + run + measure) and the reference
interpreter used as the semantic oracle."""

from .config import RunConfig
from .engine import (
    EntryEvent, Program, RunResult, compile_ir_module, compile_program,
)
from .interp import Interpreter, InterpError, run_source
from .stitchqueue import QueueStats, StitchJob, StitchQueue, StitchQueueConfig
from .tiering import TierController, TierPolicy

__all__ = [
    "EntryEvent", "Interpreter", "InterpError", "Program",
    "QueueStats", "RunConfig", "RunResult", "StitchJob", "StitchQueue",
    "StitchQueueConfig", "TierController", "TierPolicy",
    "compile_ir_module", "compile_program", "run_source",
]
