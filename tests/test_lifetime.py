"""A dropped program is freed by reference counting.

Nothing installed in a VM holds the VM: ``call_rt`` handlers reach the
runtime through the VM's run-scoped slot, and ``Program.run``
uninstalls the run's region services and the stitch queue's deadline
hook when the run ends, trap or not.  The compiler's tree and graph
walks run on explicit stacks, not self-recursive nested functions,
each of which would tie a reference cycle through its own closure
cell and keep the compile IR alive.  So a dropped ``Program``, its VM,
its IR and every run's services go the moment their last reference
does, and the cyclic collector finds nothing of them left to free.
Each case compiles a program and runs it twice with the collector
off, drops it, and checks both.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import compile_program
from repro.bench.cachepressure import SOURCE as PRESSURE
from repro.errors import VMError
from repro.obs.history import hostperf_workloads

BACKENDS = ("rvm", "pycode")
TABLE2 = dict(hostperf_workloads(quick=False))
PRESSURE_CONFIGS = ("cache=lru:2", "cache=cost-aware:4",
                    "cache=lru:4 tier=breakeven stitch=async",
                    "faults=all:0.1@3")


def _run(program, args, max_cycles):
    """One run's result, or its trap's message: the trap is caught
    here, so no stored traceback keeps the run's frames alive."""
    try:
        return program.run("main", list(args), max_cycles=max_cycles)
    except VMError as trap:
        return str(trap)


def traps_after_freeing(source, args=(), max_cycles=4_000_000_000,
                        **compile_options):
    """Compile ``source`` and run it twice with the collector disabled,
    then drop the program and its results: assert that the program and
    its VM are gone and that a collection finds no cyclic garbage.
    Returns the runs' trap messages."""
    gc.collect()
    gc.disable()
    try:
        program = compile_program(source, **compile_options)
        outcomes = [_run(program, args, max_cycles) for _ in range(2)]
        traps = [outcome for outcome in outcomes
                 if isinstance(outcome, str)]
        refs = (weakref.ref(program), weakref.ref(program._vm))
        del program, outcomes
        assert [ref() for ref in refs] == [None, None]
        assert gc.collect() == 0
    finally:
        gc.enable()
    return traps


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(TABLE2))
def test_table2_program_is_freed(name, backend):
    source = TABLE2[name]().source
    assert traps_after_freeing(source, backend=backend) == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_static_program_is_freed(backend):
    source = TABLE2["calculator"]().source
    assert traps_after_freeing(source, mode="static",
                               backend=backend) == []


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("config", PRESSURE_CONFIGS)
def test_cache_pressure_program_is_freed(config, backend):
    assert traps_after_freeing(PRESSURE, [120, 8, 7], config=config,
                               backend=backend) == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_trapped_program_is_freed(backend):
    source = TABLE2["calculator"]().source
    traps = traps_after_freeing(source, max_cycles=20_000,
                                backend=backend)
    assert traps == ["cycle budget exceeded"] * 2
