"""Deep-cloning of IR functions and regions.

``clone_function`` lets the compiler keep the lowered HIL function
pristine while each ``compile(params)`` call mutates its own copy —
the iterative search compiles the same kernel hundreds of times.

``clone_region`` is the engine behind loop unrolling and remainder-loop
generation: it copies a set of blocks, renames labels with a suffix,
remaps internal branch targets, and renames the *private* registers
(those whose live range is contained within the region) while keeping
loop-carried registers (pointers, counters, accumulators) shared.
"""

from __future__ import annotations

import copy as _copy
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..ir import (BasicBlock, Function, Instruction, Label, LoopDescriptor,
                  Mem, Opcode, Param, Reg, VReg)
from ..ir.dataflow import Liveness
from ..ir.operands import is_reg


def clone_function(fn: Function) -> Function:
    """Structural deep copy.  Registers are shared (they are immutable
    value objects); blocks and instructions are fresh."""
    new_blocks = [BasicBlock(b.name, [i.copy() for i in b.instrs])
                  for b in fn.blocks]
    new_loop: Optional[LoopDescriptor] = None
    if fn.loop is not None:
        lp = fn.loop
        new_loop = LoopDescriptor(
            header=lp.header, body=list(lp.body), latch=lp.latch,
            preheader=lp.preheader, exit=lp.exit, counter=lp.counter,
            start=lp.start, end=lp.end, step=lp.step,
            pointers=dict(lp.pointers), elem=lp.elem,
            ptr_incs=dict(lp.ptr_incs), unroll=lp.unroll,
            vectorized=lp.vectorized, veclen=lp.veclen,
            cleanup_body=list(lp.cleanup_body),
            block_fetch=lp.block_fetch)
    new = Function(fn.name, list(fn.params), new_blocks, ret=fn.ret,
                   loop=new_loop, stack_slots=dict(fn.stack_slots))
    return new


def _retarget(instr: Instruction, mapping: Dict[str, str]) -> None:
    if instr.is_branch and instr.srcs and isinstance(instr.srcs[0], Label):
        tgt = instr.srcs[0].name
        if tgt in mapping:
            instr.srcs = (Label(mapping[tgt]),) + instr.srcs[1:]


def private_registers(fn: Function, region: List[str]) -> Set[VReg]:
    """Virtual registers defined in the region whose values never
    flow across a region iteration boundary: not live into the region
    entry and not live out of the region's last block toward code
    outside the region.  These are the registers unrolling renames."""
    lv = Liveness(fn)
    entry = region[0]
    live_in_entry = lv.live_in[entry]
    region_set = set(region)

    defined: Set[VReg] = set()
    for name in region:
        for instr in fn.block(name).instrs:
            for r in instr.regs_written():
                if isinstance(r, VReg):
                    defined.add(r)

    succ = lv.succ
    private: Set[VReg] = set()
    for r in defined:
        if r in live_in_entry:
            continue  # loop-carried (accumulator / pointer / counter)
        # live out of the region into non-region blocks?
        escapes = False
        for name in region:
            for s in succ[name]:
                if s not in region_set and r in lv.live_in.get(s, ()):
                    escapes = True
                    break
            if escapes:
                break
        if not escapes:
            private.add(r)
    return private


def clone_region(fn: Function, region: List[str], suffix: str,
                 shared: Optional[Set[Reg]] = None,
                 rename_private: bool = True,
                 reg_map: Optional[Dict[Reg, Reg]] = None,
                 ) -> Tuple[List[BasicBlock], Dict[str, str]]:
    """Clone the blocks named in ``region``.

    Returns the new blocks (in the same order) and the name mapping.
    Branch targets *inside* the region are remapped; branches out of the
    region keep their targets.  If ``rename_private``, registers private
    to the region get fresh VRegs (per-copy renaming used by unrolling);
    explicit ``reg_map`` entries take precedence.
    """
    mapping = {name: f"{name}{suffix}" for name in region}
    rmap: Dict[Reg, Reg] = dict(reg_map or {})
    if rename_private:
        # sorted by uid: this loop *mints* fresh VRegs, so iterating the
        # set in hash order (which depends on absolute uid values, i.e.
        # on how many compiles ran before) would hand out the new uids
        # in a history-dependent order and change downstream uid-keyed
        # decisions (allocation tie-breaks, spill-slot order)
        for r in sorted(private_registers(fn, region),
                        key=lambda r: r.uid):
            if shared and r in shared:
                continue
            if r not in rmap:
                rmap[r] = VReg(r.name, r.rclass, r.dtype)

    new_blocks: List[BasicBlock] = []
    for name in region:
        src = fn.block(name)
        blk = BasicBlock(mapping[name])
        for instr in src.instrs:
            ni = instr.substitute(rmap) if rmap else instr.copy()
            _retarget(ni, mapping)
            blk.instrs.append(ni)
        new_blocks.append(blk)
    return new_blocks, mapping
