"""Control-flow graph: basic blocks, functions, modules, region metadata.

A :class:`Function` holds an ordered mapping of block name to
:class:`BasicBlock`.  Dynamic-region membership and unrolled-loop
annotations (placed by the MiniC front end) live in
:class:`DynamicRegionInfo` records attached to the function; the static
compiler's analyses and the region splitter consume them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set

from .instructions import Instr, Jump, Phi, Terminator
from .values import Temp


class BasicBlock:
    """A straight-line sequence of instructions ended by a terminator.

    Phi instructions, when present, must be a prefix of ``instrs``.
    """

    __slots__ = ("name", "instrs", "terminator")

    def __init__(self, name: str):
        self.name = name
        self.instrs: List[Instr] = []
        self.terminator: Optional[Terminator] = None

    def append(self, instr: Instr) -> None:
        if self.terminator is not None:
            raise ValueError("block %s already terminated" % self.name)
        if instr.is_terminator():
            self.terminator = instr  # type: ignore[assignment]
        else:
            self.instrs.append(instr)

    def phis(self) -> List[Phi]:
        result = []
        for instr in self.instrs:
            if not isinstance(instr, Phi):
                break
            result.append(instr)
        return result

    def successors(self) -> List[str]:
        if self.terminator is None:
            return []
        return self.terminator.successors()

    def all_instrs(self) -> List[Instr]:
        """Instructions including the terminator."""
        if self.terminator is None:
            return list(self.instrs)
        return self.instrs + [self.terminator]

    def __repr__(self) -> str:
        return "<BasicBlock %s: %d instrs>" % (self.name, len(self.instrs))


@dataclass
class UnrolledLoopInfo:
    """An ``unrolled`` loop inside a dynamic region.

    ``header`` is the loop-head merge block; ``entry_pred`` the block
    that enters the loop from outside and ``latch`` the back-edge
    source.  ``body`` is the set of blocks in the loop.
    """

    loop_id: int
    header: str
    entry_pred: str
    latch: str
    body: Set[str] = field(default_factory=set)


@dataclass
class DynamicRegionInfo:
    """Metadata for one annotated ``dynamicRegion``."""

    region_id: int
    #: Source names annotated as run-time constants at region entry.
    const_vars: List[str]
    #: Source names used to key the region's code cache (may be empty).
    key_vars: List[str]
    #: First block of the region body.
    entry: str
    #: Block reached when the region body falls through its end.
    exit: str
    #: All blocks belonging to the region body.
    blocks: Set[str] = field(default_factory=set)
    unrolled_loops: List[UnrolledLoopInfo] = field(default_factory=list)
    #: SSA values of const_vars/key_vars reaching the region entry,
    #: recorded during SSA renaming (None before SSA conversion).
    const_temps: Optional[list] = None
    key_temps: Optional[list] = None

    def loop_of_block(self, name: str) -> Optional[UnrolledLoopInfo]:
        """The innermost unrolled loop containing block ``name``."""
        best: Optional[UnrolledLoopInfo] = None
        for loop in self.unrolled_loops:
            if name in loop.body and (best is None or
                                      loop.body < best.body):
                best = loop
        return best


class Function:
    """A function lowered to a CFG of three-address code."""

    def __init__(self, name: str, params: List[Temp]):
        self.name = name
        self.params = params
        self.blocks: Dict[str, BasicBlock] = {}
        self.entry: Optional[str] = None
        #: Temp name -> "int" | "float".
        self.temp_types: Dict[str, str] = {}
        #: Stack-frame slots (local arrays/structs and address-taken
        #: locals): symbol -> word offset within the frame.
        self.frame_slots: Dict[str, int] = {}
        self.frame_size: int = 0
        self.regions: List[DynamicRegionInfo] = []
        self._temp_counter = 0
        self._block_counter = 0

    # -- construction -----------------------------------------------------

    def new_block(self, prefix: str = "B") -> BasicBlock:
        self._block_counter += 1
        name = "%s%d" % (prefix, self._block_counter)
        while name in self.blocks:
            self._block_counter += 1
            name = "%s%d" % (prefix, self._block_counter)
        block = BasicBlock(name)
        self.blocks[name] = block
        if self.entry is None:
            self.entry = name
        return block

    def add_block(self, block: BasicBlock) -> BasicBlock:
        if block.name in self.blocks:
            raise ValueError("duplicate block name: %s" % block.name)
        self.blocks[block.name] = block
        if self.entry is None:
            self.entry = block.name
        return block

    def new_temp(self, kind: str = "int", prefix: str = "t") -> Temp:
        self._temp_counter += 1
        name = "%s%d" % (prefix, self._temp_counter)
        while name in self.temp_types:
            self._temp_counter += 1
            name = "%s%d" % (prefix, self._temp_counter)
        self.temp_types[name] = kind
        return Temp(name)

    def type_of(self, temp: Temp) -> str:
        return self.temp_types.get(temp.name, "int")

    # -- traversal --------------------------------------------------------

    def predecessors(self) -> Dict[str, List[str]]:
        """Block name -> list of predecessor block names (no duplicates)."""
        preds: Dict[str, List[str]] = {name: [] for name in self.blocks}
        for name, block in self.blocks.items():
            for succ in block.successors():
                if name not in preds[succ]:
                    preds[succ].append(name)
        return preds

    def rpo(self) -> List[str]:
        """Block names in reverse postorder from the entry."""
        if self.entry is None:
            return []
        visited: Set[str] = set()
        order: List[str] = []

        stack: List[tuple] = [(self.entry, iter(self.blocks[self.entry].successors()))]
        visited.add(self.entry)
        while stack:
            name, succs = stack[-1]
            advanced = False
            for succ in succs:
                if succ not in visited:
                    visited.add(succ)
                    stack.append((succ, iter(self.blocks[succ].successors())))
                    advanced = True
                    break
            if not advanced:
                order.append(name)
                stack.pop()
        order.reverse()
        return order

    def reachable_blocks(self) -> Set[str]:
        return set(self.rpo())

    def iter_instrs(self) -> Iterator[Instr]:
        for block in self.blocks.values():
            for instr in block.all_instrs():
                yield instr

    # -- maintenance ------------------------------------------------------

    def remove_unreachable_blocks(self) -> List[str]:
        """Delete unreachable blocks; fix phi args.  Returns removed names."""
        reachable = self.reachable_blocks()
        removed = [name for name in self.blocks if name not in reachable]
        for name in removed:
            del self.blocks[name]
        if removed:
            gone = set(removed)
            for block in self.blocks.values():
                for phi in block.phis():
                    phi.args = {
                        p: v for p, v in phi.args.items() if p not in gone
                    }
            for region in self.regions:
                region.blocks -= gone
                for loop in region.unrolled_loops:
                    loop.body -= gone
        return removed

    def split_critical_edges(self) -> List[tuple]:
        """Split edges from multi-successor blocks to multi-pred blocks.

        Returns a list of ``(new block, pred, succ)`` records.  Phi
        argument labels and region/loop membership are updated; callers
        holding their own block-membership sets (e.g. region plans) use
        the records to update them.
        """
        preds = self.predecessors()
        records: List[tuple] = []
        for name in list(self.blocks):
            block = self.blocks[name]
            succs = block.successors()
            if len(succs) <= 1 or block.terminator is None:
                continue
            for succ in list(dict.fromkeys(succs)):
                if len(preds[succ]) <= 1:
                    continue
                middle = self.new_block("crit")
                middle.append(Jump(succ))
                block.terminator.replace_successor(succ, middle.name)
                for phi in self.blocks[succ].phis():
                    if name in phi.args:
                        phi.args[middle.name] = phi.args.pop(name)
                for region in self.regions:
                    if name in region.blocks and succ in region.blocks:
                        region.blocks.add(middle.name)
                        for loop in region.unrolled_loops:
                            if name in loop.body and succ in loop.body:
                                loop.body.add(middle.name)
                records.append((middle.name, name, succ))
        return records

    def verify(self) -> None:
        """Check structural invariants; raise ValueError on violation."""
        if self.entry is None or self.entry not in self.blocks:
            raise ValueError("function %s: missing entry block" % self.name)
        for name, block in self.blocks.items():
            if block.terminator is None:
                raise ValueError("block %s has no terminator" % name)
            for succ in block.successors():
                if succ not in self.blocks:
                    raise ValueError(
                        "block %s branches to unknown block %s" % (name, succ)
                    )
            seen_non_phi = False
            for instr in block.instrs:
                if isinstance(instr, Phi):
                    if seen_non_phi:
                        raise ValueError(
                            "block %s: phi after non-phi instruction" % name
                        )
                else:
                    seen_non_phi = True
        preds = self.predecessors()
        for name, block in self.blocks.items():
            for phi in block.phis():
                if set(phi.args) != set(preds[name]):
                    raise ValueError(
                        "block %s: phi %r args %s do not match preds %s"
                        % (name, phi, sorted(phi.args), sorted(preds[name]))
                    )

    def __repr__(self) -> str:
        return "<Function %s: %d blocks>" % (self.name, len(self.blocks))


@dataclass
class GlobalData:
    """A module-level data object, laid out as a sequence of words."""

    name: str
    values: List[object]  # ints and floats
    mutable: bool = True


class Module:
    """A compilation unit: functions plus global data."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalData] = {}

    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise ValueError("duplicate function: %s" % func.name)
        self.functions[func.name] = func
        return func

    def add_global(self, data: GlobalData) -> GlobalData:
        if data.name in self.globals:
            raise ValueError("duplicate global: %s" % data.name)
        self.globals[data.name] = data
        return data

    def verify(self) -> None:
        for func in self.functions.values():
            func.verify()

    def __repr__(self) -> str:
        return "<Module %s: %d functions>" % (self.name, len(self.functions))
