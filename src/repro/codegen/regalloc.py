"""Linear-scan register allocation.

Intervals are built over a linearized block layout from the block-level
liveness solution: a temp's interval spans from its first definition or
first block where it is live-in, to its last use or last block where it
is live-out.  This is the classic conservative interval construction
(lifetime "holes" are ignored), which is always correct and matches the
allocator technology of the paper's era.

Integer and floating-point temps allocate from separate register pools;
temps that do not fit spill to frame slots (addressed off ``sp`` above
the function's local-variable area).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.liveness import liveness
from ..ir.cfg import Function
from ..ir.values import Temp
from ..machine.isa import FLOAT_ALLOCATABLE, INT_ALLOCATABLE


@dataclass
class Location:
    """Where a temp lives: a register, or a spill slot in the frame."""

    reg: Optional[int] = None
    spill_slot: Optional[int] = None

    @property
    def spilled(self) -> bool:
        return self.spill_slot is not None

    def __repr__(self) -> str:
        if self.spilled:
            return "spill[%d]" % self.spill_slot
        return "reg%d" % self.reg


@dataclass
class Allocation:
    """Result of register allocation for one function."""

    locations: Dict[str, Location]
    num_spill_slots: int
    used_registers: List[int]
    block_order: List[str]

    def loc(self, temp: Temp) -> Location:
        return self.locations[temp.name]


def allocate(func: Function,
             int_pool: Optional[List[int]] = None,
             float_pool: Optional[List[int]] = None) -> Allocation:
    """Allocate registers for all temps of phi-free ``func``."""
    int_pool = list(int_pool if int_pool is not None else INT_ALLOCATABLE)
    float_pool = list(
        float_pool if float_pool is not None else FLOAT_ALLOCATABLE)
    live_in, live_out = liveness(func)

    # Linearize: entry first, then definition order.
    block_order = [func.entry] + [n for n in func.blocks if n != func.entry]
    positions: Dict[str, Tuple[int, int]] = {}
    counter = 0
    instr_pos: List[int] = []
    for name in block_order:
        start = counter
        counter += max(1, len(func.blocks[name].all_instrs()))
        positions[name] = (start, counter - 1)

    starts: Dict[str, int] = {}
    ends: Dict[str, int] = {}

    def extend(temp_name: str, pos: int) -> None:
        if temp_name not in starts:
            starts[temp_name] = pos
            ends[temp_name] = pos
        else:
            starts[temp_name] = min(starts[temp_name], pos)
            ends[temp_name] = max(ends[temp_name], pos)

    for name in block_order:
        block_start, block_end = positions[name]
        for temp_name in live_in[name]:
            extend(temp_name, block_start)
        for temp_name in live_out[name]:
            extend(temp_name, block_end)
        pos = block_start
        for instr in func.blocks[name].all_instrs():
            for value in instr.uses():
                if isinstance(value, Temp):
                    extend(value.name, pos)
            dst = instr.defs()
            if dst is not None:
                extend(dst.name, pos)
            pos += 1

    # Parameters are live from position 0 (they arrive in arg registers
    # and are copied out by the prologue).
    for param in func.params:
        if param.name in starts:
            extend(param.name, 0)

    # The name breaks ties: ``starts`` fills in the iteration order of
    # the liveness sets, which follows the process's string hashing.
    intervals = sorted(starts, key=lambda n: (starts[n], ends[n], n))
    locations: Dict[str, Location] = {}
    active_int: List[Tuple[int, str, int]] = []   # (end, name, reg)
    active_float: List[Tuple[int, str, int]] = []
    spill_count = 0
    used: List[int] = []

    def expire(active: List[Tuple[int, str, int]], pool: List[int],
               position: int) -> None:
        while active and active[0][0] < position:
            _, _, reg = active.pop(0)
            pool.append(reg)

    for temp_name in intervals:
        is_float = func.temp_types.get(temp_name) == "float"
        pool = float_pool if is_float else int_pool
        active = active_float if is_float else active_int
        start, end = starts[temp_name], ends[temp_name]
        expire(active, pool, start)
        if pool:
            reg = pool.pop(0)
            if reg not in used:
                used.append(reg)
            locations[temp_name] = Location(reg=reg)
            active.append((end, temp_name, reg))
            active.sort()
        else:
            # Spill the interval that ends last (classic heuristic).
            last_end, last_name, last_reg = active[-1]
            if last_end > end:
                active.pop()
                locations[last_name] = Location(spill_slot=spill_count)
                spill_count += 1
                locations[temp_name] = Location(reg=last_reg)
                active.append((end, temp_name, last_reg))
                active.sort()
            else:
                locations[temp_name] = Location(spill_slot=spill_count)
                spill_count += 1

    return Allocation(locations=locations, num_spill_slots=spill_count,
                      used_registers=sorted(used), block_order=block_order)
