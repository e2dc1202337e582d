"""Functions, CFG queries, and the tuned-loop descriptor.

A :class:`Function` is an ordered list of basic blocks plus a symbol
table of parameters.  Control-flow edges are *derived*: a block's
successors are its explicit branch targets plus, when it can fall
through, the next block in layout order.  Keeping edges derived (rather
than stored) means transforms can splice blocks freely without edge
bookkeeping; the control-flow cleanup passes re-canonicalize layout.

The :class:`LoopDescriptor` records the single loop flagged for tuning
by HIL mark-up (section 2.1: "we require that a loop be flagged as
important before it is empirically tuned").  All fundamental transforms
operate on this loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Union

from ..errors import IRError
from .block import BasicBlock
from .instructions import Instruction
from .operands import Imm, Operand, Reg, VReg
from .types import DType


@dataclass
class Param:
    """A function parameter: a name, a type, and for pointer parameters
    the element type of the array pointed to."""

    name: str
    dtype: DType
    elem: Optional[DType] = None  # element type when dtype is PTR
    reg: Optional[Reg] = None     # register holding the incoming value


@dataclass
class LoopDescriptor:
    """Shape of the loop selected for iterative tuning.

    * ``header``  — block evaluating the loop condition (test-at-top) or
      the single body entry (test-at-bottom after LC).
    * ``body``    — names of all blocks executed per iteration, in layout
      order; ``body[0]`` is the entry.
    * ``latch``   — block containing the back edge (counter update + test).
    * ``preheader`` / ``exit`` — unique entry and exit blocks.
    * ``counter`` — the induction variable register.
    * ``start`` / ``end`` / ``step`` — bounds as IR operands; direction is
      the sign of ``step``.
    * ``pointers``— array name -> pointer register advanced in the loop.
    * ``elem``    — element type of the arrays the loop walks.
    * ``ptr_incs``— array name -> elements advanced per source iteration.
    * ``unroll``  / ``vectorized`` — bookkeeping updated by transforms:
      how many *source* iterations one trip of the loop now covers.
    """

    header: str
    body: List[str]
    latch: str
    preheader: str
    exit: str
    counter: VReg
    start: Operand
    end: Operand
    step: int
    pointers: Dict[str, VReg] = field(default_factory=dict)
    elem: DType = DType.F64
    ptr_incs: Dict[str, int] = field(default_factory=dict)
    unroll: int = 1
    vectorized: bool = False
    veclen: int = 1
    # blocks of the scalar remainder ("cleanup") loop emitted by the
    # vectorizer/unroller; the timing model costs them separately
    cleanup_body: List[str] = field(default_factory=list)
    # block-fetch scheduling: memory traffic moves in large read/write
    # blocks (consumed by the timing model as a deeper write batch)
    block_fetch: bool = False

    @property
    def elems_per_iter(self) -> int:
        """Source-level elements consumed per trip of the transformed loop."""
        return self.unroll * self.veclen

    def body_blocks(self, fn: "Function") -> List[BasicBlock]:
        return [fn.block(name) for name in self.body]

    @property
    def is_single_block(self) -> bool:
        """True when the loop body is one straight-line block (the case
        SIMD vectorization and unrolling require)."""
        return len(self.body) == 1


@dataclass
class Function:
    name: str
    params: List[Param]
    blocks: List[BasicBlock] = field(default_factory=list)
    ret: Optional[Param] = None
    loop: Optional[LoopDescriptor] = None
    # scratch stack slots allocated (spills); maps slot index -> dtype
    stack_slots: Dict[int, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # block bookkeeping
    def block(self, name: str) -> BasicBlock:
        for b in self.blocks:
            if b.name == name:
                return b
        raise IRError(f"no block named {name!r} in {self.name}")

    def block_index(self, name: str) -> int:
        for i, b in enumerate(self.blocks):
            if b.name == name:
                return i
        raise IRError(f"no block named {name!r} in {self.name}")

    def has_block(self, name: str) -> bool:
        return any(b.name == name for b in self.blocks)

    def add_block(self, block: BasicBlock, after: Optional[str] = None) -> BasicBlock:
        if self.has_block(block.name):
            raise IRError(f"duplicate block name {block.name!r}")
        if after is None:
            self.blocks.append(block)
        else:
            self.blocks.insert(self.block_index(after) + 1, block)
        return block

    def remove_block(self, name: str) -> None:
        self.blocks.pop(self.block_index(name))

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"function {self.name} has no blocks")
        return self.blocks[0]

    # ------------------------------------------------------------------
    # derived CFG
    def successor_map(self) -> Dict[str, List[str]]:
        """``{block name: successor names}`` for every block, computed in
        one pass over the layout.  Edges are derived, so the map is a
        snapshot — recompute after splicing blocks."""
        blocks = self.blocks
        out: Dict[str, List[str]] = {}
        for i, b in enumerate(blocks):
            succs = list(dict.fromkeys(b.branch_targets()))
            if b.falls_through and i + 1 < len(blocks):
                nxt = blocks[i + 1].name
                if nxt not in succs:
                    succs.append(nxt)
            out[b.name] = succs
        return out

    def predecessors(self, name: str) -> List[str]:
        succ = self.successor_map()
        return [b for b, ss in succ.items() if name in ss]

    def reachable(self) -> set[str]:
        """Names of blocks reachable from the entry."""
        succ = self.successor_map()
        seen: set[str] = set()
        work = [self.entry.name]
        while work:
            cur = work.pop()
            if cur in seen:
                continue
            seen.add(cur)
            work.extend(s for s in succ[cur] if s not in seen)
        return seen

    # ------------------------------------------------------------------
    def instructions(self) -> Iterator[Instruction]:
        for b in self.blocks:
            yield from b.instrs

    def n_instructions(self) -> int:
        return sum(len(b) for b in self.blocks)

    def param(self, name: str) -> Param:
        for p in self.params:
            if p.name == name:
                return p
        raise IRError(f"no parameter {name!r} in {self.name}")

    def new_stack_slot(self, dtype) -> int:
        idx = len(self.stack_slots)
        self.stack_slots[idx] = dtype
        return idx

    def __repr__(self) -> str:
        return (f"<function {self.name}({', '.join(p.name for p in self.params)}): "
                f"{len(self.blocks)} blocks, {self.n_instructions()} instrs>")
