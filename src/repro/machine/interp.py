"""Functional interpreter: executes IR functions against a MemoryImage.

This is the "tester" half of the machine substrate: every compiled
kernel — at any point in the transform pipeline, before or after
register allocation — can be *run* and its outputs compared against the
NumPy reference.  IEEE semantics are respected per precision (f32
operations round to f32 at every step).

**Pre-decoded dispatch.**  A :class:`Program` decodes each instruction
once into a closure over its operands: register operands become slots
of a list-backed register file, immediates become constants, and the
destination's numpy converter, a branch's target block index and a
JCC's comparison are all looked up at decode time.  Running a block
calls its closures in order.  Decoding is lazy, per block, on the
block's first entry, so a block no run enters is never decoded.  One
:class:`Program` serves every run of one caller (the tester decodes the
winner once for all its sizes); each run binds a fresh register file
and memory image.  The decoded form is never stored on the
:class:`~repro.ir.Function`.

Invariants, each the behaviour of a plain one-instruction-at-a-time
interpreter:

* every instruction performs the same numpy scalar and vector
  operations, in the same order, as a direct reading of its operands;
* ``instructions_executed`` is exact, and the ``max_instructions``
  budget is checked per instruction: a block that would cross it is
  stepped one instruction at a time, so the fault fires before the
  (max+1)-th instruction runs and every earlier store is visible;
* every :class:`SimulationFault` (undefined register, unreadable
  operand, JCC without flags, vector store to a scalar reference,
  running off the end, memory bounds and alignment) is raised when the
  faulting instruction executes, never at decode; an error found while
  decoding is deferred the same way, and a branch to an undefined
  label raises ``KeyError`` when taken;
* :attr:`RunResult.regs` is the ``{Reg: value}`` map of every register
  the run defined.

The timing model (:mod:`repro.machine.timing`) is what the search
uses; the interpreter only checks answers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import SimulationFault
from ..ir import (AReg, Cond, DType, Function, Imm, Instruction, Mem,
                  Opcode, Reg, VecType, VReg)
from .memory import MemoryImage
from .registers import SP

_NP = {DType.F32: np.float32, DType.F64: np.float64}

#: a decoded instruction: ``op(regs, memory)``.  Control instructions
#: return a block index (int), an undefined label's name (str) or a
#: :class:`_Return`; every other closure returns None.
Op = Callable[[list, MemoryImage], object]

_UNDEF = object()   # the value of a register slot no write has defined
_FLAGS = 0          # register-file slot of the implicit flags register

_CONTROL = frozenset((Opcode.JMP, Opcode.JCC, Opcode.RET))
_FP_BINOPS = {Opcode.FADD: operator.add, Opcode.FSUB: operator.sub,
              Opcode.FMUL: operator.mul, Opcode.FDIV: operator.truediv,
              Opcode.FMAX: max}
_INT_BINOPS = {Opcode.ADD: operator.add, Opcode.SUB: operator.sub,
               Opcode.IMUL: operator.mul}
_CONDS = {Cond.EQ: operator.eq, Cond.NE: operator.ne, Cond.LT: operator.lt,
          Cond.LE: operator.le, Cond.GT: operator.gt, Cond.GE: operator.ge}


@dataclass
class RunResult:
    ret: Optional[Union[int, float]]
    instructions_executed: int
    regs: Dict[Reg, object] = field(default_factory=dict)


class _Return:
    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value


def _nop(R, M) -> None:
    return None


def _converter(dtype) -> Optional[Callable]:
    """The function rounding a value to ``dtype``'s precision, or None
    when values of ``dtype`` are stored as they are."""
    if isinstance(dtype, VecType):
        npdt = _NP[dtype.elem]
        return lambda v: np.asarray(v, dtype=npdt)
    return _NP.get(dtype)


def _deferred(exc: Exception) -> Op:
    """A closure raising ``exc``, an error found while decoding."""
    def raise_(R, M):
        raise exc.with_traceback(None)
    return raise_


class Program:
    """The decoded form of one :class:`Function`, shared by the runs of
    one caller.  Blocks decode on first entry (:meth:`_decode_block`),
    one closure per instruction (:meth:`_decode`)."""

    def __init__(self, fn: Function):
        self.fn = fn
        self._index = {b.name: i for i, b in enumerate(fn.blocks)}
        #: per block, None until its first entry: (the straight-line
        #: prefix's closures less its no-ops, the prefix's instruction
        #: count, the closures from the first control instruction on,
        #: every instruction's closure)
        self.blocks: List[Optional[Tuple[tuple, int, tuple, tuple]]] = \
            [None] * len(fn.blocks)
        self._slots: Dict[object, int] = {}
        self._sp = self._slot(SP)
        self._param_slots = [(p, self._slot(p.reg)) for p in fn.params
                             if p.reg is not None]

    # ------------------------------------------------------------------
    @property
    def n_slots(self) -> int:
        return len(self._slots) + 1

    def _slot(self, reg) -> int:
        """The register-file slot of ``reg`` (keyed like a ``{Reg: value}``
        dict, so equal registers share one slot)."""
        slot = self._slots.get(reg)
        if slot is None:
            slot = self._slots[reg] = len(self._slots) + 1
        return slot

    def regs(self, R: list) -> Dict[Reg, object]:
        """The ``{Reg: value}`` map of every register ``R`` defines."""
        return {reg: R[s] for reg, s in self._slots.items()
                if R[s] is not _UNDEF}

    # ------------------------------------------------------------------
    def run(self, mem: MemoryImage, stack_base: int,
            args: Dict[str, object], budget: int) -> RunResult:
        """Run from the entry block with a fresh register file."""
        R: list = [_UNDEF] * self.n_slots
        R[_FLAGS] = None
        R[self._sp] = stack_base
        for p, slot in self._param_slots:
            if p.name not in args:
                raise SimulationFault(f"missing argument {p.name!r}")
            val = args[p.name]
            R[slot] = _NP[p.dtype](val) if p.dtype.is_float else int(val)

        blocks, index = self.blocks, self._index
        executed = 0
        bi = 0
        while True:
            if bi >= len(blocks):
                raise SimulationFault("fell off the end of the function")
            dec = blocks[bi]
            if dec is None:
                dec = self._decode_block(bi)
                if len(R) < self.n_slots:
                    R.extend([_UNDEF] * (self.n_slots - len(R)))
            body, nbody, tail, ops = dec
            nxt = None
            if executed + len(ops) <= budget:
                for f in body:
                    f(R, mem)
                executed += nbody
                for f in tail:
                    executed += 1
                    nxt = f(R, mem)
                    if nxt is not None:
                        break
            else:  # the budget runs out in this block: step and check
                for f in ops:
                    executed += 1
                    if executed > budget:
                        raise SimulationFault(
                            f"instruction budget exceeded ({budget})")
                    nxt = f(R, mem)
                    if nxt is not None:
                        break
            if nxt is None:
                bi += 1
            elif nxt.__class__ is int:
                bi = nxt
            elif nxt.__class__ is _Return:
                return RunResult(nxt.value, executed, self.regs(R))
            else:
                bi = index[nxt]  # a taken branch to an undefined label

    def _decode_block(self, bi: int) -> Tuple[tuple, int, tuple, tuple]:
        instrs = self.fn.blocks[bi].instrs
        ops = tuple(self._decode(instr) for instr in instrs)
        k = 0
        while k < len(instrs) and instrs[k].op not in _CONTROL:
            k += 1
        body = tuple(op for op in ops[:k] if op is not _nop)
        dec = self.blocks[bi] = (body, k, ops[k:], ops)
        return dec

    def _decode(self, instr: Instruction) -> Op:
        try:
            return self._decode_op(instr)
        except Exception as exc:  # malformed IR faults when it runs
            return _deferred(exc)

    def _reader(self, op) -> Op:
        """A closure returning the value of source operand ``op``."""
        if isinstance(op, Imm):
            value = op.value
            return lambda R, M: value
        if isinstance(op, (VReg, AReg)):
            s = self._slot(op)

            def read_reg(R, M):
                v = R[s]
                if v is _UNDEF:
                    raise SimulationFault(
                        f"read of undefined register {op!r}")
                return v
            return read_reg
        if isinstance(op, Mem):
            addr = self._address(op)
            dt = op.dtype
            if isinstance(dt, VecType):
                elem, lanes = dt.elem, dt.lanes
                return lambda R, M: M.load(addr(R, M), elem, lanes)
            return lambda R, M: M.load(addr(R, M), dt)

        def unreadable(R, M):
            raise SimulationFault(f"cannot read operand {op!r}")
        return unreadable

    def _address(self, mem: Mem) -> Op:
        """A closure computing the byte address of ``mem``."""
        base, disp = mem.base, mem.disp
        if mem.index is None and isinstance(base, (VReg, AReg)):
            s = self._slot(base)

            def addr(R, M):
                b = R[s]
                if b is _UNDEF:
                    raise SimulationFault(
                        f"read of undefined register {base!r}")
                return int(b) + disp
            return addr
        rbase = self._reader(base)
        if mem.index is None:
            return lambda R, M: int(rbase(R, M)) + disp
        rindex, scale = self._reader(mem.index), mem.scale
        return lambda R, M: (int(rbase(R, M)) + disp
                             + int(rindex(R, M)) * scale)

    def _target(self, instr: Instruction):
        """A branch's target block index (an undefined label stays a
        name, looked up — and missed — only when the branch is taken)."""
        name = instr.target.name
        return self._index.get(name, name)

    # ------------------------------------------------------------------
    def _decode_op(self, instr: Instruction) -> Op:
        op = instr.op
        srcs = instr.srcs

        if op in (Opcode.MOV, Opcode.FMOV, Opcode.VMOV):
            r0, d = self._reader(srcs[0]), self._slot(instr.dst)
            conv = _converter(instr.dst.dtype)
            if conv is None:
                def mov(R, M):
                    R[d] = r0(R, M)
            else:
                def mov(R, M):
                    R[d] = conv(r0(R, M))
            return mov
        if op in (Opcode.LD, Opcode.FLD, Opcode.VLD):
            r0, d = self._reader(srcs[0]), self._slot(instr.dst)

            def load(R, M):
                R[d] = r0(R, M)
            return load
        if op is Opcode.VLDU:
            mem = srcs[0]
            addr, d = self._address(mem), self._slot(instr.dst)
            elem, lanes = mem.dtype.elem, mem.dtype.lanes

            def loadu(R, M):
                R[d] = M.load_unaligned(addr(R, M), elem, lanes)
            return loadu
        if op in (Opcode.ST, Opcode.FST, Opcode.FSTNT):
            mem, val = srcs
            addr, rv = self._address(mem), self._reader(val)
            dt = mem.dtype.elem if isinstance(mem.dtype, VecType) \
                else mem.dtype

            def store(R, M):
                M.store(addr(R, M), rv(R, M), dt)
            return store
        if op in (Opcode.VST, Opcode.VSTNT):
            mem, val = srcs
            vt = mem.dtype
            if not isinstance(vt, VecType):
                def bad_store(R, M):
                    raise SimulationFault(
                        f"vector store to scalar ref {mem!r}")
                return bad_store
            addr, rv = self._address(mem), self._reader(val)
            elem, lanes = vt.elem, vt.lanes

            def vstore(R, M):
                M.store(addr(R, M), rv(R, M), elem, lanes)
            return vstore
        if op is Opcode.VSTU:
            mem, val = srcs
            addr, rv = self._address(mem), self._reader(val)
            elem, lanes = mem.dtype.elem, mem.dtype.lanes

            def vstoreu(R, M):
                M.store_unaligned(addr(R, M), rv(R, M), elem, lanes)
            return vstoreu
        if op is Opcode.VBCAST:
            r0, d = self._reader(srcs[0]), self._slot(instr.dst)
            lanes, npdt = instr.dst.dtype.lanes, _NP[instr.dst.dtype.elem]

            def bcast(R, M):
                R[d] = np.full(lanes, r0(R, M), dtype=npdt)
            return bcast
        if op is Opcode.VZERO:
            d = self._slot(instr.dst)
            lanes, npdt = instr.dst.dtype.lanes, _NP[instr.dst.dtype.elem]

            def vzero(R, M):
                R[d] = np.zeros(lanes, dtype=npdt)
            return vzero

        if op in _INT_BINOPS:
            return self._int_binop(_INT_BINOPS[op], srcs, instr.dst)
        if op is Opcode.NEG:
            r0, d = self._reader(srcs[0]), self._slot(instr.dst)

            def neg(R, M):
                R[d] = -int(r0(R, M))
            return neg

        if op in _FP_BINOPS:
            return self._fp_binop(_FP_BINOPS[op], srcs, instr.dst)
        if op in (Opcode.FABS, Opcode.FNEG):
            r0, d = self._reader(srcs[0]), self._slot(instr.dst)
            fn = abs if op is Opcode.FABS else operator.neg
            conv = _converter(instr.dst.dtype) or (lambda v: v)

            def unop(R, M):
                R[d] = conv(fn(r0(R, M)))
            return unop

        if op in (Opcode.VADD, Opcode.VSUB, Opcode.VMUL, Opcode.VMAX,
                  Opcode.VABS, Opcode.VCMPGT, Opcode.VAND, Opcode.VANDN,
                  Opcode.VOR):
            return self._vector_op(op, srcs, instr.dst)

        if op is Opcode.VHADD:
            r0, d = self._reader(srcs[0]), self._slot(instr.dst)
            npdt = _NP[instr.dst.dtype]

            def hadd(R, M):
                src = np.asarray(r0(R, M))
                total = npdt(0)
                for lane in src:  # sequential adds, rounding at each step
                    total = npdt(total + npdt(lane))
                R[d] = total
            return hadd
        if op is Opcode.VHMAX:
            r0, d = self._reader(srcs[0]), self._slot(instr.dst)
            conv = _converter(instr.dst.dtype) or (lambda v: v)

            def hmax(R, M):
                R[d] = conv(np.asarray(r0(R, M)).max())
            return hmax
        if op is Opcode.VMASK:
            r0, d = self._reader(srcs[0]), self._slot(instr.dst)

            def vmask(R, M):
                mask = 0
                for i, lane in enumerate(np.asarray(r0(R, M))):
                    if lane != 0:
                        mask |= 1 << i
                R[d] = mask
            return vmask

        if op in (Opcode.CMP, Opcode.FCMP):
            r0, r1 = self._reader(srcs[0]), self._reader(srcs[1])

            def cmp(R, M):
                a = r0(R, M)
                b = r1(R, M)
                R[_FLAGS] = (float(a), float(b))
            return cmp
        if op is Opcode.TEST:
            r0, r1 = self._reader(srcs[0]), self._reader(srcs[1])

            def test(R, M):
                a = int(r0(R, M))
                b = int(r1(R, M))
                R[_FLAGS] = (float(a & b), 0.0)
            return test

        if op is Opcode.JMP:
            target = self._target(instr)
            return lambda R, M: target
        if op is Opcode.JCC:
            target, taken = self._target(instr), _CONDS[instr.cond]

            def jcc(R, M):
                flags = R[_FLAGS]
                if flags is None:
                    raise SimulationFault("JCC with no flags set")
                if taken(*flags):
                    return target
                return None
            return jcc
        if op is Opcode.RET:
            if not srcs:
                return lambda R, M: _Return(None)
            r0 = self._reader(srcs[0])

            def ret(R, M):
                v = r0(R, M)
                if isinstance(v, np.floating):
                    v = float(v)
                elif isinstance(v, (np.integer, int)):
                    v = int(v)
                return _Return(v)
            return ret
        if op in (Opcode.PREFETCH, Opcode.NOP):
            return _nop  # no architectural effect

        def unimplemented(R, M):  # pragma: no cover
            raise SimulationFault(f"unimplemented opcode {op!r}")
        return unimplemented

    def _int_binop(self, fn, srcs, dst) -> Op:
        d = self._slot(dst)
        a, b = srcs
        if isinstance(a, (VReg, AReg)) and isinstance(b, Imm):
            # the loop-control shape (``i = i + 1``): one register read
            s, k = self._slot(a), int(b.value)

            def int_ri(R, M):
                v = R[s]
                if v is _UNDEF:
                    raise SimulationFault(
                        f"read of undefined register {a!r}")
                R[d] = fn(int(v), k)
            return int_ri
        r0, r1 = self._reader(a), self._reader(b)

        def int_op(R, M):
            R[d] = fn(int(r0(R, M)), int(r1(R, M)))
        return int_op

    def _fp_binop(self, fn, srcs, dst) -> Op:
        r0, r1, d = self._reader(srcs[0]), self._reader(srcs[1]), \
            self._slot(dst)
        conv = _converter(dst.dtype)
        if conv is None:
            def fp_raw(R, M):
                a = r0(R, M)
                b = r1(R, M)
                R[d] = fn(a, b)
            return fp_raw

        def fp_op(R, M):
            a = r0(R, M)
            b = r1(R, M)
            R[d] = conv(fn(conv(a), conv(b)))
        return fp_op

    def _vector_op(self, op: Opcode, srcs, dst) -> Op:
        r0, d = self._reader(srcs[0]), self._slot(dst)
        npdt = _NP[dst.dtype.elem]
        if op is Opcode.VABS:
            def vabs(R, M):
                a = np.asarray(r0(R, M), dtype=npdt)
                R[d] = np.abs(a).astype(npdt)
            return vabs
        r1 = self._reader(srcs[1])
        zero = npdt(0)
        fn = {Opcode.VADD: operator.add,
              Opcode.VSUB: operator.sub,
              Opcode.VMUL: operator.mul,
              Opcode.VMAX: np.maximum,
              Opcode.VCMPGT: lambda a, b: (a > b).astype(npdt),
              # idealized blend semantics: keep lanes where mask != 0
              Opcode.VAND: lambda a, b: np.where(b != 0, a, zero),
              Opcode.VANDN: lambda a, b: np.where(a == 0, b, zero),
              Opcode.VOR: lambda a, b: np.where(a != 0, a, b)}[op]

        def vop(R, M):
            a = np.asarray(r0(R, M), dtype=npdt)
            b = np.asarray(r1(R, M), dtype=npdt)
            R[d] = fn(a, b).astype(npdt)
        return vop


class Interpreter:
    """One run of a function against a :class:`MemoryImage`.

    ``program`` shares an earlier decode of ``fn`` between runs; without
    it the run decodes ``fn`` afresh."""

    def __init__(self, fn: Function, memory: MemoryImage,
                 max_instructions: int = 20_000_000,
                 program: Optional[Program] = None):
        if program is not None and program.fn is not fn:
            raise ValueError("program was decoded from another function")
        self.fn = fn
        self.mem = memory
        self.max_instructions = max_instructions
        self.program = program or Program(fn)
        self.stack_base = memory.allocate_raw(
            max(64, 16 * (len(fn.stack_slots) + 4)), name="<stack>")

    def run(self, args: Dict[str, object]) -> RunResult:
        return self.program.run(self.mem, self.stack_base, args,
                                self.max_instructions)


def run_function(fn: Function, arrays: Dict[str, np.ndarray],
                 scalars: Optional[Dict[str, object]] = None,
                 max_instructions: int = 20_000_000,
                 program: Optional[Program] = None) -> RunResult:
    """Execute ``fn``: numpy arrays bind to pointer params (mutated in
    place), ``scalars`` bind to value params.  Returns the RET value.
    ``program`` — ``Program(fn)`` — lets several runs share one decode."""
    mem = MemoryImage()
    args: Dict[str, object] = dict(scalars or {})
    for p in fn.params:
        if p.dtype is DType.PTR:
            if p.name not in arrays:
                raise SimulationFault(f"missing array argument {p.name!r}")
            args[p.name] = mem.allocate(arrays[p.name], p.name)
    interp = Interpreter(fn, mem, max_instructions, program)
    return interp.run(args)
