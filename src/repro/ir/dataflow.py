"""Dataflow analyses over the derived CFG.

Currently: classic backward liveness, used by the register allocator,
copy propagation (dead-copy removal), the verifier, and the transform
legality checks.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from .block import BasicBlock
from .function import Function
from .instructions import Instruction
from .operands import AReg, Mem, Reg, VReg


def block_uses_defs(block: BasicBlock) -> Tuple[Set[Reg], Set[Reg]]:
    """(use, def) sets of a block: ``use`` = registers read before any
    write in the block; ``def`` = registers written.

    The operand walk of ``regs_read``/``regs_written`` is inlined here:
    liveness rebuilds these sets for every block on every analysis, and
    the per-instruction list allocations were the hottest line in the
    compile profile."""
    uses: Set[Reg] = set()
    defs: Set[Reg] = set()
    uses_add = uses.add
    for instr in block.instrs:
        for s in instr.srcs:
            cls = s.__class__
            if cls is VReg or cls is AReg:
                if s not in defs:
                    uses_add(s)
            elif cls is Mem:
                b = s.base
                if b not in defs:
                    uses_add(b)
                ix = s.index
                if ix is not None and ix not in defs:
                    uses_add(ix)
        dst = instr.dst
        cls = dst.__class__
        if cls is VReg or cls is AReg:
            defs.add(dst)
        elif cls is Mem:
            # a memory destination's address registers are reads
            b = dst.base
            if b not in defs:
                uses_add(b)
            ix = dst.index
            if ix is not None and ix not in defs:
                uses_add(ix)
    return uses, defs


class Liveness:
    """Per-block live-in / live-out sets, computed to a fixed point, and
    the successor map they were computed over (``succ``)."""

    def __init__(self, fn: Function):
        self.fn = fn
        self.live_in: Dict[str, Set[Reg]] = {}
        self.live_out: Dict[str, Set[Reg]] = {}
        self._compute()

    def _compute(self) -> None:
        fn = self.fn
        live_in = self.live_in
        live_out = self.live_out
        # snapshot: one pass, not O(blocks^2)
        succ = self.succ = fn.successor_map()
        # per-block rows in reverse layout order: no per-sweep dict
        # lookups for use/defs/successors inside the fixed-point loop
        rows = []
        for b in reversed(fn.blocks):
            u, d = block_uses_defs(b)
            live_in[b.name] = set()
            live_out[b.name] = set()
            rows.append((b.name, u, d, succ[b.name]))
        changed = True
        while changed:
            changed = False
            for name, use, defs, ss in rows:
                if len(ss) == 1:    # the common case: no set union
                    out = set(live_in[ss[0]])
                else:
                    out = set()
                    for s in ss:
                        out |= live_in[s]
                inn = use | (out - defs)
                if out != live_out[name] or inn != live_in[name]:
                    live_out[name] = out
                    live_in[name] = inn
                    changed = True

    def per_instruction(self, block: BasicBlock) -> List[Set[Reg]]:
        """live_after[i]: registers live immediately *after* instruction i."""
        live = set(self.live_out[block.name])
        instrs = block.instrs
        result: List[Set[Reg]] = [None] * len(instrs)  # type: ignore
        for i in range(len(instrs) - 1, -1, -1):
            result[i] = live.copy()
            instr = instrs[i]
            for r in instr.regs_written():
                live.discard(r)
            live.update(instr.regs_read())
        return result

    def live_at_entry(self, block: BasicBlock) -> Set[Reg]:
        return self.live_in[block.name]


def max_register_pressure(fn: Function, rclasses) -> int:
    """Maximum number of simultaneously-live registers of the given
    class(es) anywhere in the function.  Used by tests and by unroll
    legality reasoning (beyond-8 pressure means spills on x86)."""
    if not isinstance(rclasses, (set, frozenset, list, tuple)):
        rclasses = (rclasses,)
    rclasses = set(rclasses)
    lv = Liveness(fn)
    peak = 0
    for b in fn.blocks:
        live_after = lv.per_instruction(b)
        entry = {r for r in lv.live_at_entry(b) if r.rclass in rclasses}
        peak = max(peak, len(entry))
        for live in live_after:
            n = sum(1 for r in live if r.rclass in rclasses)
            peak = max(peak, n)
    return peak
