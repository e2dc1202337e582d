"""IR verifier.

Run after lowering and after every transform (in tests; the pipeline
runs it in debug mode) to catch malformed IR early.  Checks:

* block names are unique; branch targets resolve to existing blocks;
* terminators appear only as the last instruction of a block;
* operand arity/kind matches the opcode table;
* register classes are consistent with opcode expectations
  (e.g. VADD writes a VEC register, memory base/index are GP);
* every conditional branch is preceded in its block by a flag-setting
  instruction with no intervening flag clobber;
* no virtual register is read on some path before any definition
  (conservative: checked only for registers never defined at all, plus a
  stronger reaching-defs check on straight-line loop bodies).
"""

from __future__ import annotations

from typing import Set

from ..errors import IRVerifyError
from .block import BasicBlock
from .function import Function
from .instructions import Instruction, OP_INFO, Opcode
from .operands import AReg, Imm, Label, Mem, RegClass, VReg, is_reg


_VEC_DST = {Opcode.VMOV, Opcode.VLD, Opcode.VLDU, Opcode.VADD, Opcode.VSUB, Opcode.VMUL,
            Opcode.VABS, Opcode.VMAX, Opcode.VCMPGT, Opcode.VAND,
            Opcode.VANDN, Opcode.VOR, Opcode.VBCAST, Opcode.VZERO}
_FP_DST = {Opcode.FMOV, Opcode.FLD, Opcode.FADD, Opcode.FSUB, Opcode.FMUL,
           Opcode.FDIV, Opcode.FABS, Opcode.FNEG, Opcode.FMAX,
           Opcode.VHADD, Opcode.VHMAX}
_GP_DST = {Opcode.MOV, Opcode.LD, Opcode.ADD, Opcode.SUB, Opcode.IMUL,
           Opcode.NEG, Opcode.VMASK}


def _fail(fn: Function, block: BasicBlock, instr, msg: str) -> None:
    raise IRVerifyError(f"{fn.name}/{block.name}: {msg} (in: {instr!r})")


def verify(fn: Function) -> None:
    names = [b.name for b in fn.blocks]
    if len(names) != len(set(names)):
        dupes = {n for n in names if names.count(n) > 1}
        raise IRVerifyError(f"{fn.name}: duplicate block names {sorted(dupes)}")
    if not fn.blocks:
        raise IRVerifyError(f"{fn.name}: function has no blocks")

    name_set = set(names)
    defined: Set = set(p.reg for p in fn.params if p.reg is not None)
    read: Set = set()

    for block in fn.blocks:
        flags_valid = False
        for i, instr in enumerate(block.instrs):
            info = OP_INFO.get(instr.op)
            if info is None:
                _fail(fn, block, instr, f"unknown opcode {instr.op}")
            # arity
            if info.n_srcs >= 0 and len(instr.srcs) != info.n_srcs:
                _fail(fn, block, instr,
                      f"{instr.op.value} expects {info.n_srcs} srcs, "
                      f"got {len(instr.srcs)}")
            if info.has_dst and instr.dst is None:
                _fail(fn, block, instr, f"{instr.op.value} requires a dst")
            if not info.has_dst and instr.dst is not None:
                _fail(fn, block, instr, f"{instr.op.value} must not have a dst")
            # terminators only at block end
            if info.is_terminator and i != len(block.instrs) - 1:
                _fail(fn, block, instr, "terminator not at end of block")
            # nothing computational may follow a conditional branch:
            # liveness and DCE treat blocks as straight-line code
            if instr.op is Opcode.JCC and i != len(block.instrs) - 1:
                nxt = block.instrs[i + 1]
                if not OP_INFO[nxt.op].is_branch and nxt.op is not Opcode.RET:
                    _fail(fn, block, instr,
                          "computational instruction after conditional "
                          "branch in the same block")
            # branch targets resolve
            if info.is_branch:
                tgt = instr.target
                if tgt is None:
                    _fail(fn, block, instr, "branch without label target")
                if tgt.name not in name_set:
                    _fail(fn, block, instr, f"branch to unknown block {tgt.name!r}")
            # register-class consistency
            if is_reg(instr.dst) if instr.dst is not None else False:
                want = None
                if instr.op in _VEC_DST:
                    want = RegClass.VEC
                elif instr.op in _FP_DST:
                    want = RegClass.FP
                elif instr.op in _GP_DST:
                    want = RegClass.GP
                if want is not None and instr.dst.rclass is not want:
                    _fail(fn, block, instr,
                          f"dst class {instr.dst.rclass.value}, "
                          f"expected {want.value}")
            # memory operand address regs must be GP
            for op in instr.srcs:
                if op.__class__ is Mem:
                    if op.base.rclass is not RegClass.GP:
                        _fail(fn, block, instr, "memory base must be GP")
                    if op.index is not None and op.index.rclass is not RegClass.GP:
                        _fail(fn, block, instr, "memory index must be GP")
            if instr.dst is not None and instr.dst.__class__ is Mem:
                if instr.dst.base.rclass is not RegClass.GP:
                    _fail(fn, block, instr, "memory base must be GP")
                if instr.dst.index is not None \
                        and instr.dst.index.rclass is not RegClass.GP:
                    _fail(fn, block, instr, "memory index must be GP")
            # JCC needs valid flags
            if instr.op is Opcode.JCC:
                if instr.cond is None:
                    _fail(fn, block, instr, "jcc without condition")
                if not flags_valid:
                    _fail(fn, block, instr,
                          "conditional branch with no preceding compare "
                          "in this block (or flags clobbered in between)")
            if info.sets_flags:
                flags_valid = True
            elif info.clobbers_flags:
                flags_valid = False
            # stores: srcs = (mem, value)
            if info.is_store:
                if not isinstance(instr.srcs[0], Mem):
                    _fail(fn, block, instr, "store src[0] must be a Mem")
                if not is_reg(instr.srcs[1]):
                    _fail(fn, block, instr, "store src[1] must be a register")
            # loads: src = mem
            if info.is_load and not isinstance(instr.srcs[0], Mem):
                _fail(fn, block, instr, "load src must be a Mem")
            if instr.op is Opcode.PREFETCH:
                if instr.hint is None:
                    _fail(fn, block, instr, "prefetch without hint")
                if not isinstance(instr.srcs[0], Mem):
                    _fail(fn, block, instr, "prefetch src must be a Mem")
            for r in instr.regs_written():
                defined.add(r)
            for r in instr.regs_read():
                if r.__class__ is VReg:
                    read.add(r)

    # never-defined virtual registers that are read somewhere
    ghosts = {r for r in read if r not in defined}
    if ghosts:
        some = sorted(ghosts, key=lambda r: r.uid)[:4]
        raise IRVerifyError(
            f"{fn.name}: virtual registers read but never defined: {some}")

    # loop descriptor consistency
    if fn.loop is not None:
        lp = fn.loop
        for nm in [lp.header, lp.latch, lp.preheader, lp.exit, *lp.body]:
            if nm not in name_set:
                raise IRVerifyError(
                    f"{fn.name}: loop descriptor references unknown block {nm!r}")
        if lp.header not in fn.successor_map()[lp.latch]:
            raise IRVerifyError(
                f"{fn.name}: loop latch {lp.latch!r} has no back edge to "
                f"header {lp.header!r}")
