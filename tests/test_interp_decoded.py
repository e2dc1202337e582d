"""The pre-decoded interpreter against a one-instruction-at-a-time oracle.

``_OracleInterpreter`` and ``_OracleMemory`` are the ``_step``-dispatch
interpreter and the linear-scan memory image the decoded interpreter
replaced, kept here verbatim as the reference.  Every case must give
the identical :class:`RunResult` — return value and its Python type,
``instructions_executed``, the final ``{Reg: value}`` map, the output
arrays' bytes — or the identical fault.
"""

from __future__ import annotations

import struct
from typing import Dict, Optional, Tuple

import numpy as np
import pytest

from repro.errors import SimulationFault
from repro.fko import FKO, TransformParams
from repro.ir import (Cond, DType, Function, Imm, Instruction, Mem, Opcode,
                      Reg, VecType)
from repro.ir.operands import is_reg
from repro.kernels import ALL_KERNEL_ORDER, get_kernel
from repro.machine import opteron, pentium4e
from repro.machine.interp import Program, RunResult, run_function
from repro.machine.registers import SP
from repro.timing.tester import DEFAULT_SIZES, make_inputs

_NP = {DType.F32: np.float32, DType.F64: np.float64}
_NP_DTYPE = {DType.F32: np.float32, DType.F64: np.float64,
             DType.I64: np.int64, DType.PTR: np.int64}
BUDGETS = (20_000_000, 50, 137)


# ----------------------------------------------------------------------
# the oracle
class _OracleMemory:
    def __init__(self) -> None:
        self._next = 0x1000
        self._allocs = []

    def allocate(self, array: np.ndarray, name: str = "") -> int:
        if array.ndim != 1:
            raise SimulationFault(f"only 1-D arrays supported ({name})")
        if not array.flags["C_CONTIGUOUS"]:
            raise SimulationFault(f"array {name!r} must be contiguous")
        base = (self._next + 63) // 64 * 64
        size = array.nbytes
        self._allocs.append((base, size, array, name))
        self._next = base + size + 64
        return base

    def allocate_raw(self, nbytes: int, name: str = "") -> int:
        return self.allocate(np.zeros(nbytes, dtype=np.uint8), name)

    def _find(self, addr: int, nbytes: int):
        for base, size, arr, name in self._allocs:
            if base <= addr and addr + nbytes <= base + size:
                return arr, addr - base
        raise SimulationFault(
            f"access of {nbytes} bytes at {addr:#x} is out of bounds")

    def load(self, addr: int, dtype: DType, lanes: int = 1):
        npdt = _NP_DTYPE[dtype]
        esize = dtype.size
        if lanes > 1 and addr % 16 != 0:
            raise SimulationFault(f"unaligned vector load at {addr:#x}")
        arr, off = self._find(addr, esize * lanes)
        view = arr.view(np.uint8)[off:off + esize * lanes]
        values = np.frombuffer(view.tobytes(), dtype=npdt)
        if lanes == 1:
            v = values[0]
            return int(v) if dtype.is_int else npdt(v)
        return values.copy()

    def store(self, addr: int, value, dtype: DType, lanes: int = 1) -> None:
        npdt = _NP_DTYPE[dtype]
        esize = dtype.size
        if lanes > 1 and addr % 16 != 0:
            raise SimulationFault(f"unaligned vector store at {addr:#x}")
        arr, off = self._find(addr, esize * lanes)
        if lanes == 1:
            data = np.array([value], dtype=npdt)
        else:
            data = np.asarray(value, dtype=npdt)
            if data.shape != (lanes,):
                raise SimulationFault(
                    f"vector store of shape {data.shape}, expected ({lanes},)")
        arr.view(np.uint8)[off:off + esize * lanes] = \
            np.frombuffer(data.tobytes(), dtype=np.uint8)

    def load_unaligned(self, addr: int, dtype: DType, lanes: int):
        npdt = _NP_DTYPE[dtype]
        esize = dtype.size
        arr, off = self._find(addr, esize * lanes)
        view = arr.view(np.uint8)[off:off + esize * lanes]
        return np.frombuffer(view.tobytes(), dtype=npdt).copy()

    def store_unaligned(self, addr: int, value, dtype: DType,
                        lanes: int) -> None:
        npdt = _NP_DTYPE[dtype]
        esize = dtype.size
        arr, off = self._find(addr, esize * lanes)
        data = np.asarray(value, dtype=npdt)
        if data.shape != (lanes,):
            raise SimulationFault(
                f"vector store of shape {data.shape}, expected ({lanes},)")
        arr.view(np.uint8)[off:off + esize * lanes] = \
            np.frombuffer(data.tobytes(), dtype=np.uint8)


class _ReturnType:
    pass


_RETURN = _ReturnType()


class _OracleInterpreter:
    def __init__(self, fn: Function, memory: _OracleMemory,
                 max_instructions: int = 20_000_000):
        self.fn = fn
        self.mem = memory
        self.max_instructions = max_instructions
        self.regs: Dict[Reg, object] = {}
        self.flags: Optional[Tuple[float, float]] = None
        self.stack_base = memory.allocate_raw(
            max(64, 16 * (len(fn.stack_slots) + 4)), name="<stack>")
        self.regs[SP] = self.stack_base
        self.entered = set()  # indices of the blocks control entered

    def _read(self, op, lanes_hint: int = 1):
        if isinstance(op, Imm):
            return op.value
        if is_reg(op):
            if op not in self.regs:
                raise SimulationFault(f"read of undefined register {op!r}")
            return self.regs[op]
        if isinstance(op, Mem):
            addr = self._addr(op)
            if isinstance(op.dtype, VecType):
                return self.mem.load(addr, op.dtype.elem, op.dtype.lanes)
            return self.mem.load(addr, op.dtype)
        raise SimulationFault(f"cannot read operand {op!r}")

    def _addr(self, mem: Mem) -> int:
        base = self._read(mem.base)
        addr = int(base) + mem.disp
        if mem.index is not None:
            addr += int(self._read(mem.index)) * mem.scale
        return addr

    def _write(self, reg: Reg, value) -> None:
        self.regs[reg] = value

    def _fp(self, reg_or_val, dtype) -> object:
        if isinstance(dtype, VecType):
            return np.asarray(reg_or_val, dtype=_NP[dtype.elem])
        if dtype in _NP:
            return _NP[dtype](reg_or_val)
        return reg_or_val

    def run(self, args: Dict[str, object]) -> RunResult:
        fn = self.fn
        for p in fn.params:
            if p.reg is None:
                continue
            if p.name not in args:
                raise SimulationFault(f"missing argument {p.name!r}")
            val = args[p.name]
            if p.dtype.is_float:
                val = _NP[p.dtype](val)
            else:
                val = int(val)
            self.regs[p.reg] = val

        block_idx = {b.name: i for i, b in enumerate(fn.blocks)}
        bi, ii = 0, 0
        executed = 0
        while True:
            if bi >= len(fn.blocks):
                raise SimulationFault("fell off the end of the function")
            block = fn.blocks[bi]
            if ii == 0:
                self.entered.add(bi)
            if ii >= len(block.instrs):
                bi += 1
                ii = 0
                continue
            instr = block.instrs[ii]
            executed += 1
            if executed > self.max_instructions:
                raise SimulationFault(
                    f"instruction budget exceeded ({self.max_instructions})")

            nxt = self._step(instr)
            if nxt is _RETURN:
                ret = None
                if instr.srcs:
                    ret = self._read(instr.srcs[0])
                    if isinstance(ret, np.floating):
                        ret = float(ret)
                    elif isinstance(ret, (np.integer, int)):
                        ret = int(ret)
                return RunResult(ret, executed, self.regs)
            if isinstance(nxt, str):
                bi = block_idx[nxt]
                ii = 0
            else:
                ii += 1

    def _step(self, instr: Instruction):
        op = instr.op
        R = self._read

        if op in (Opcode.MOV, Opcode.FMOV, Opcode.VMOV):
            val = R(instr.srcs[0])
            self._write(instr.dst, self._fp(val, instr.dst.dtype))
        elif op in (Opcode.LD, Opcode.FLD, Opcode.VLD):
            self._write(instr.dst, R(instr.srcs[0]))
        elif op is Opcode.VLDU:
            mem = instr.srcs[0]
            vt = mem.dtype
            self._write(instr.dst,
                        self.mem.load_unaligned(self._addr(mem), vt.elem,
                                                vt.lanes))
        elif op in (Opcode.ST, Opcode.FST, Opcode.FSTNT):
            mem, val = instr.srcs
            self.mem.store(self._addr(mem), R(val),
                           mem.dtype if not isinstance(mem.dtype, VecType)
                           else mem.dtype.elem)
        elif op in (Opcode.VST, Opcode.VSTNT):
            mem, val = instr.srcs
            vt = mem.dtype
            if not isinstance(vt, VecType):
                raise SimulationFault(f"vector store to scalar ref {mem!r}")
            self.mem.store(self._addr(mem), R(val), vt.elem, vt.lanes)
        elif op is Opcode.VSTU:
            mem, val = instr.srcs
            vt = mem.dtype
            self.mem.store_unaligned(self._addr(mem), R(val), vt.elem,
                                     vt.lanes)
        elif op is Opcode.VBCAST:
            vt = instr.dst.dtype
            val = R(instr.srcs[0])
            self._write(instr.dst,
                        np.full(vt.lanes, val, dtype=_NP[vt.elem]))
        elif op is Opcode.VZERO:
            vt = instr.dst.dtype
            self._write(instr.dst, np.zeros(vt.lanes, dtype=_NP[vt.elem]))

        elif op is Opcode.ADD:
            self._write(instr.dst, int(R(instr.srcs[0])) + int(R(instr.srcs[1])))
        elif op is Opcode.SUB:
            self._write(instr.dst, int(R(instr.srcs[0])) - int(R(instr.srcs[1])))
        elif op is Opcode.IMUL:
            self._write(instr.dst, int(R(instr.srcs[0])) * int(R(instr.srcs[1])))
        elif op is Opcode.NEG:
            self._write(instr.dst, -int(R(instr.srcs[0])))

        elif op in (Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV,
                    Opcode.FMAX):
            a, b = R(instr.srcs[0]), R(instr.srcs[1])
            dt = instr.dst.dtype
            fn = {Opcode.FADD: lambda x, y: x + y,
                  Opcode.FSUB: lambda x, y: x - y,
                  Opcode.FMUL: lambda x, y: x * y,
                  Opcode.FDIV: lambda x, y: x / y,
                  Opcode.FMAX: max}[op]
            self._write(instr.dst, self._fp(fn(self._fp(a, dt),
                                               self._fp(b, dt)), dt))
        elif op is Opcode.FABS:
            self._write(instr.dst,
                        self._fp(abs(R(instr.srcs[0])), instr.dst.dtype))
        elif op is Opcode.FNEG:
            self._write(instr.dst,
                        self._fp(-R(instr.srcs[0]), instr.dst.dtype))

        elif op in (Opcode.VADD, Opcode.VSUB, Opcode.VMUL, Opcode.VMAX,
                    Opcode.VABS, Opcode.VCMPGT, Opcode.VAND, Opcode.VANDN,
                    Opcode.VOR):
            vt = instr.dst.dtype
            a = np.asarray(R(instr.srcs[0]), dtype=_NP[vt.elem])
            if op is Opcode.VABS:
                res = np.abs(a)
            else:
                b = np.asarray(R(instr.srcs[1]), dtype=_NP[vt.elem])
                if op is Opcode.VADD:
                    res = a + b
                elif op is Opcode.VSUB:
                    res = a - b
                elif op is Opcode.VMUL:
                    res = a * b
                elif op is Opcode.VMAX:
                    res = np.maximum(a, b)
                elif op is Opcode.VCMPGT:
                    res = (a > b).astype(_NP[vt.elem])
                elif op is Opcode.VAND:
                    res = np.where(b != 0, a, _NP[vt.elem](0))
                elif op is Opcode.VANDN:
                    res = np.where(a == 0, b, _NP[vt.elem](0))
                else:  # VOR
                    res = np.where(a != 0, a, b)
            self._write(instr.dst, res.astype(_NP[vt.elem]))

        elif op is Opcode.VHADD:
            src = np.asarray(R(instr.srcs[0]))
            dt = instr.dst.dtype
            total = _NP[dt](0)
            for lane in src:
                total = _NP[dt](total + _NP[dt](lane))
            self._write(instr.dst, total)
        elif op is Opcode.VHMAX:
            src = np.asarray(R(instr.srcs[0]))
            self._write(instr.dst, self._fp(src.max(), instr.dst.dtype))
        elif op is Opcode.VMASK:
            src = np.asarray(R(instr.srcs[0]))
            mask = 0
            for i, lane in enumerate(src):
                if lane != 0:
                    mask |= 1 << i
            self._write(instr.dst, mask)

        elif op in (Opcode.CMP, Opcode.FCMP):
            a, b = R(instr.srcs[0]), R(instr.srcs[1])
            self.flags = (float(a), float(b))
        elif op is Opcode.TEST:
            a, b = int(R(instr.srcs[0])), int(R(instr.srcs[1]))
            self.flags = (float(a & b), 0.0)

        elif op is Opcode.JMP:
            return instr.target.name
        elif op is Opcode.JCC:
            if self.flags is None:
                raise SimulationFault("JCC with no flags set")
            a, b = self.flags
            taken = {Cond.EQ: a == b, Cond.NE: a != b, Cond.LT: a < b,
                     Cond.LE: a <= b, Cond.GT: a > b,
                     Cond.GE: a >= b}[instr.cond]
            if taken:
                return instr.target.name
        elif op is Opcode.RET:
            return _RETURN
        elif op in (Opcode.PREFETCH, Opcode.NOP):
            pass
        else:
            raise SimulationFault(f"unimplemented opcode {op!r}")
        return None


def oracle_run(fn: Function, arrays, scalars, max_instructions=20_000_000,
               entered: Optional[set] = None) -> RunResult:
    mem = _OracleMemory()
    args = dict(scalars or {})
    for p in fn.params:
        if p.dtype is DType.PTR:
            if p.name not in arrays:
                raise SimulationFault(f"missing array argument {p.name!r}")
            args[p.name] = mem.allocate(arrays[p.name], p.name)
    interp = _OracleInterpreter(fn, mem, max_instructions)
    try:
        return interp.run(args)
    finally:
        if entered is not None:
            entered |= interp.entered


# ----------------------------------------------------------------------
# comparison
def _bits(v):
    """A value's Python type and exact bits (NaN-safe, -0.0-aware)."""
    if isinstance(v, np.ndarray):
        return ("ndarray", v.dtype.str, v.shape, v.tobytes())
    if isinstance(v, np.generic):
        return (type(v).__name__, v.tobytes())
    if isinstance(v, float):
        return ("float", struct.pack("<d", v))
    return (type(v).__name__, v)


def _outcome(run):
    """``run()``'s result in comparable form, or its fault."""
    try:
        res = run()
    except Exception as exc:  # the fault itself is the outcome
        return ("fault", type(exc).__name__, str(exc))
    return ("ok", _bits(res.ret), res.instructions_executed,
            {reg: _bits(v) for reg, v in res.regs.items()})


def assert_equivalent(fn: Function, spec, sizes=None, budgets=BUDGETS,
                      entered: Optional[set] = None) -> int:
    """Run ``fn`` under both interpreters at every size and budget, one
    decoded program for all runs; returns the number of runs compared."""
    program = Program(fn)
    runs = 0
    for budget in budgets:
        rng = np.random.default_rng(0xC0FFEE)
        for n in sizes or spec.test_sizes or DEFAULT_SIZES:
            arrays, scalars = make_inputs(spec, n, rng)
            got = {k: v.copy() for k, v in arrays.items()}
            want = {k: v.copy() for k, v in arrays.items()}
            new = _outcome(lambda: run_function(
                fn, got, scalars, budget, program=program))
            old = _outcome(lambda: oracle_run(fn, want, scalars, budget,
                                              entered))
            where = f"{fn.name} N={n} budget={budget}"
            assert new == old, where
            for name in spec.array_args:
                assert got[name].tobytes() == want[name].tobytes(), \
                    f"{where}: array {name}"
            runs += 1
    return runs


# ----------------------------------------------------------------------
_FKO = {"p4e": FKO(pentium4e()), "opteron": FKO(opteron())}

MACHINES = ("p4e", "opteron")
#: every (unroll, ae) pair of unroll ∈ {1, 2, 3, 4, 8} × ae ∈ {1, 2, 3}
#: runs on every kernel; the pairs alternate between the two machines,
#: and sv alternates on each machine
GRID = [(MACHINES[i % 2], (i // 2) % 2 == 0, unroll, ae)
        for i, (unroll, ae) in enumerate(
            (u, a) for u in (1, 2, 3, 4, 8) for a in (1, 2, 3))]


@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize("kernel", ALL_KERNEL_ORDER)
def test_registry_grid_matches_oracle(kernel, machine):
    spec = get_kernel(kernel)
    for m, sv, unroll, ae in GRID:
        if m != machine:
            continue
        compiled = _FKO[machine].compile(
            spec.hil, TransformParams(sv=sv, unroll=unroll, ae=ae))
        assert assert_equivalent(compiled.fn, spec) > 0


def test_tiled_gemm_matches_oracle():
    spec = get_kernel("dgemm")
    params = TransformParams(sv=True, unroll=4) \
        .with_ext("tile:k", 2).with_ext("tile:j", 3)
    compiled = _FKO["p4e"].compile(spec.hil, params)
    assert compiled.fn.n_instructions() > 0
    assert assert_equivalent(compiled.fn, spec)


@pytest.mark.parametrize("kernel", ["ddot", "isamax", "daxpy", "sgemm"])
def test_virtual_registers_match_oracle(kernel):
    spec = get_kernel(kernel)
    compiled = _FKO["opteron"].compile(
        spec.hil, TransformParams(sv=True, unroll=4, ae=2,
                                  register_allocation="off"))
    assert assert_equivalent(compiled.fn, spec)


@pytest.mark.parametrize("kernel", ["ddot", "sdot", "dgemm"])
def test_spilling_config_matches_oracle(kernel):
    spec = get_kernel(kernel)
    compiled = _FKO["p4e"].compile(
        spec.hil, TransformParams(sv=True, unroll=16, ae=8))
    assert compiled.fn.stack_slots, "the config must spill"
    assert assert_equivalent(compiled.fn, spec)


def test_tester_decodes_each_entered_instruction_once(monkeypatch):
    """One ``test_function`` call decodes every instruction of every
    block some size enters exactly once, across all ten sizes, and never
    decodes a block no size enters.  Counted in decoder calls, never
    wall time, so per-run re-decoding cannot come back unnoticed."""
    from repro.timing.tester import test_function

    spec = get_kernel("idamax")
    fn = _FKO["p4e"].compile(spec.hil, TransformParams(sv=False,
                                                       unroll=16)).fn
    entered: set = set()
    assert_equivalent(fn, spec, budgets=(BUDGETS[0],), entered=entered)
    never = set(range(len(fn.blocks))) - entered
    assert never, "the unrolled body must keep some NEWMAX blocks cold"

    decoded: Dict[int, int] = {}
    decode = Program._decode

    def counting(self, instr):
        decoded[id(instr)] = decoded.get(id(instr), 0) + 1
        return decode(self, instr)

    monkeypatch.setattr(Program, "_decode", counting)
    test_function(fn, spec)
    assert len(spec.test_sizes or DEFAULT_SIZES) == 10

    want = {id(instr) for bi in entered for instr in fn.blocks[bi].instrs}
    assert set(decoded) == want
    assert set(decoded.values()) == {1}
    assert not {id(instr) for bi in never
                for instr in fn.blocks[bi].instrs} & set(decoded)
