"""FKO's analysis phase.

"Unlike a normal compiler, a compiler used in an iterative search needs
to be able to communicate key aspects of its analysis of the code being
optimized, as this strongly affects the optimization space to be
searched." (section 2.2.2)

:func:`analyze` reports, for the loop flagged for tuning:

* whether it can be SIMD vectorized (and why not, when it cannot);
* the maximum safe unrolling;
* the scalars that are valid targets for accumulator expansion;
* the arrays that are valid targets for prefetch (pointer-walked
  streams, minus any ``@NOPREFETCH`` mark-up);
* the arrays written (WNT candidates), and per-array sets/uses;
* architecture information (cache levels and line sizes) the search
  uses to seed distances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..ir import DType, Function, Mem, Opcode, RegClass, VReg, veclen
from ..ir.dataflow import Liveness
from ..ir.operands import is_reg
from ..machine.config import MachineConfig

#: opcodes the SIMD vectorizer knows how to widen
_VECTORIZABLE_OPS = {
    Opcode.FLD, Opcode.FST, Opcode.FSTNT, Opcode.FADD, Opcode.FSUB,
    Opcode.FMUL, Opcode.FABS, Opcode.FNEG, Opcode.FMOV,
    # loop plumbing that stays scalar
    Opcode.ADD, Opcode.SUB, Opcode.MOV, Opcode.PREFETCH, Opcode.NOP,
}


@dataclass
class ArrayInfo:
    name: str
    elem: DType
    loaded: bool = False
    stored: bool = False
    inc_per_iter: int = 0     # elements per source iteration


@dataclass
class KernelAnalysis:
    """What FKO reports back to the search driver."""

    has_tuned_loop: bool
    vectorizable: bool = False
    veclen: int = 1
    not_vectorizable_reasons: List[str] = field(default_factory=list)
    max_unroll: int = 1
    accumulators: List[VReg] = field(default_factory=list)
    prefetch_arrays: List[str] = field(default_factory=list)
    output_arrays: List[str] = field(default_factory=list)
    input_arrays: List[str] = field(default_factory=list)
    arrays: Dict[str, ArrayInfo] = field(default_factory=dict)
    counter_used_in_body: bool = False
    multi_block_body: bool = False
    #: arrays whose pointers are provably 16-byte aligned at every entry
    #: to the tuned loop (the allocator contract + no misaligning writes
    #: + the loop is not re-entered from an outer loop)
    aligned_arrays: Set[str] = field(default_factory=set)
    elem: DType = DType.F64
    # architecture info passed through to the search
    cache_line: int = 64
    cache_levels: Tuple[Tuple[int, int], ...] = ()   # (size, line) per level

    def describe(self) -> str:
        lines = []
        if not self.has_tuned_loop:
            return "no loop flagged for tuning"
        lines.append(f"element type: {self.elem.value}")
        lines.append(f"SIMD vectorizable: {'yes' if self.vectorizable else 'no'}"
                     + ("" if self.vectorizable else
                        f" ({'; '.join(self.not_vectorizable_reasons)})"))
        lines.append(f"max safe unroll: {self.max_unroll}")
        lines.append("accumulator-expansion targets: "
                     + (", ".join(r.name for r in self.accumulators) or "none"))
        lines.append("prefetchable arrays: "
                     + (", ".join(self.prefetch_arrays) or "none"))
        lines.append("output arrays: "
                     + (", ".join(self.output_arrays) or "none"))
        return "\n".join(lines)


MAX_UNROLL = 128


def _reachable_from(fn: Function, start: str) -> Set[str]:
    succ = fn.successor_map()
    seen: Set[str] = set()
    work = [start]
    while work:
        cur = work.pop()
        if cur in seen or cur not in succ:
            continue
        seen.add(cur)
        work.extend(succ[cur])
    return seen


def analyze(fn: Function, machine: Optional[MachineConfig] = None,
            noprefetch: Optional[Set[str]] = None) -> KernelAnalysis:
    noprefetch = noprefetch or set()
    loop = fn.loop
    result = KernelAnalysis(has_tuned_loop=loop is not None)
    if machine is not None:
        result.cache_line = machine.l1.line
        result.cache_levels = ((machine.l1.size, machine.l1.line),
                               (machine.l2.size, machine.l2.line))
    if loop is None:
        return result

    result.elem = loop.elem
    result.veclen = veclen(loop.elem)
    body_blocks = [fn.block(name) for name in loop.body]
    result.multi_block_body = len(loop.body) > 1

    # ------------------------------------------------------------ arrays
    arrays: Dict[str, ArrayInfo] = {}
    for blk in body_blocks:
        for instr in blk.instrs:
            mem = instr.mem
            if mem is None or mem.array is None:
                continue
            info = arrays.setdefault(
                mem.array,
                ArrayInfo(mem.array,
                          mem.dtype if isinstance(mem.dtype, DType)
                          else mem.dtype.elem))
            if instr.is_store:
                info.stored = True
            elif instr.op is not Opcode.PREFETCH:
                info.loaded = True
    for name, info in arrays.items():
        info.inc_per_iter = loop.ptr_incs.get(name, 0)
    result.arrays = arrays
    result.output_arrays = sorted(a for a, i in arrays.items() if i.stored)
    result.input_arrays = sorted(a for a, i in arrays.items() if i.loaded)
    result.prefetch_arrays = sorted(
        a for a, i in arrays.items()
        if i.inc_per_iter != 0 and a not in noprefetch)

    # ------------------------------------------------------- counter use
    counter = loop.counter
    counter_used = False
    for blk in body_blocks:
        for instr in blk.instrs:
            if any(r == counter for r in instr.regs_read()):
                counter_used = True
    result.counter_used_in_body = counter_used

    # ------------------------------------------------------ accumulators
    # "scalars that are exclusively the targets of floating point adds
    # within the loop" (section 2.2.2)
    lv = Liveness(fn)
    fp_live_in = {r for r in lv.live_in.get(loop.body[0], set())
                  if r.rclass in (RegClass.FP, RegClass.VEC)}
    acc_candidates: Dict[VReg, bool] = {}
    for blk in body_blocks:
        for instr in blk.instrs:
            for r in instr.regs_written():
                if r not in fp_live_in or not isinstance(r, VReg):
                    continue
                is_acc_add = (instr.op in (Opcode.FADD, Opcode.VADD)
                              and any(is_reg(s) and s == r for s in instr.srcs))
                prev = acc_candidates.get(r, True)
                acc_candidates[r] = prev and is_acc_add
    result.accumulators = sorted(
        (r for r, ok in acc_candidates.items() if ok), key=lambda r: r.uid)

    # ------------------------------------------------------- vectorizable
    reasons: List[str] = []
    if result.multi_block_body:
        reasons.append("loop body has internal control flow")
    if counter_used:
        reasons.append("loop counter value used inside body")
    bad_incs = [a for a, i in arrays.items() if i.inc_per_iter not in (0, 1)]
    if bad_incs:
        reasons.append(f"non-unit stride arrays: {', '.join(sorted(bad_incs))}")
    # the vectorizer widens each access into the aligned stream at the
    # walked pointer itself; an access at a non-zero offset (a stencil's
    # X[1]) would become an unaligned vector load
    offset_arrays = sorted({
        instr.mem.array for blk in body_blocks for instr in blk.instrs
        if instr.mem is not None and instr.mem.array is not None
        and instr.op is not Opcode.PREFETCH and instr.mem.disp != 0})
    if offset_arrays:
        reasons.append("non-zero-offset accesses: "
                       + ", ".join(offset_arrays))

    # loop-carried FP scalars must be accumulators or loop invariants
    for blk in body_blocks:
        for instr in blk.instrs:
            if instr.op in _VECTORIZABLE_OPS:
                continue
            reasons.append(f"unvectorizable op {instr.op.value}")
            break
        else:
            continue
        break
    written_in_body: Set[VReg] = set()
    for blk in body_blocks:
        for instr in blk.instrs:
            for r in instr.regs_written():
                if isinstance(r, VReg):
                    written_in_body.add(r)
    for r in fp_live_in:
        if r in written_in_body and r not in result.accumulators:
            reasons.append(f"loop-carried scalar {r.name!r} is not a "
                           "pure add accumulator")
    result.not_vectorizable_reasons = sorted(set(reasons))
    result.vectorizable = not reasons

    # ----------------------------------------------------- alignment
    # a pointer is aligned at loop entry if (a) the loop is entered only
    # once (its preheader is not re-reachable from its exit — nested
    # tuned loops restart with arbitrary offsets), and (b) any pointer
    # writes outside the loop move by multiples of the vector width
    loop_blocks = set(loop.body) | {loop.latch}
    reentered = loop.preheader in _reachable_from(fn, loop.exit)
    for arr, reg in loop.pointers.items():
        if reentered:
            continue
        ok = True
        for blk in fn.blocks:
            if blk.name in loop_blocks:
                continue
            for instr in blk.instrs:
                if any(r == reg for r in instr.regs_written()):
                    from ..ir import Imm as _Imm
                    if instr.op is Opcode.ADD \
                            and isinstance(instr.srcs[1], _Imm) \
                            and instr.srcs[1].value % 16 == 0:
                        continue
                    ok = False
        if ok:
            result.aligned_arrays.add(arr)

    # -------------------------------------------------------- max unroll
    # unrolling a countable loop with a remainder loop is always safe;
    # cap it so the search space stays sane and the front-end budget is
    # the binding constraint in practice
    result.max_unroll = MAX_UNROLL
    return result
