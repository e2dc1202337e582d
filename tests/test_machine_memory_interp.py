"""Tests for the memory image and the functional interpreter."""

import numpy as np
import pytest

from repro.errors import SimulationFault
from repro.hil import compile_hil
from repro.ir import (Cond, DType, Function, IRBuilder, Imm, Instruction,
                      Label, Mem, Opcode, Param, RegClass, VReg, sse)
from repro.machine import MemoryImage, run_function
from repro.machine.interp import Interpreter


class TestMemoryImage:
    def test_alignment(self):
        mem = MemoryImage()
        a = mem.allocate(np.zeros(10), "a")
        b = mem.allocate(np.zeros(10), "b")
        assert a % 64 == 0 and b % 64 == 0
        assert b >= a + 80  # red zone

    def test_scalar_roundtrip(self):
        mem = MemoryImage()
        arr = np.zeros(4)
        base = mem.allocate(arr, "x")
        mem.store(base + 8, 3.25, DType.F64)
        assert arr[1] == 3.25
        assert mem.load(base + 8, DType.F64) == 3.25

    def test_f32_roundtrip(self):
        mem = MemoryImage()
        arr = np.zeros(4, dtype=np.float32)
        base = mem.allocate(arr, "x")
        mem.store(base + 4, 1.5, DType.F32)
        assert mem.load(base + 4, DType.F32) == np.float32(1.5)

    def test_vector_roundtrip(self):
        mem = MemoryImage()
        arr = np.zeros(8)
        base = mem.allocate(arr, "x")
        mem.store(base, np.array([1.0, 2.0]), DType.F64, lanes=2)
        got = mem.load(base, DType.F64, lanes=2)
        assert list(got) == [1.0, 2.0]

    def test_out_of_bounds_faults(self):
        mem = MemoryImage()
        base = mem.allocate(np.zeros(2), "x")
        with pytest.raises(SimulationFault, match="out of bounds"):
            mem.load(base + 16, DType.F64)

    def test_unmapped_address_faults(self):
        mem = MemoryImage()
        with pytest.raises(SimulationFault):
            mem.load(0x2, DType.F64)

    def test_unaligned_vector_faults(self):
        mem = MemoryImage()
        base = mem.allocate(np.zeros(8), "x")
        with pytest.raises(SimulationFault, match="unaligned"):
            mem.load(base + 8, DType.F64, lanes=2)

    def test_mutation_visible_in_caller_array(self):
        mem = MemoryImage()
        arr = np.zeros(4)
        base = mem.allocate(arr, "x")
        mem.store(base, -1.0, DType.F64)
        assert arr[0] == -1.0


class TestInterpreter:
    def test_missing_argument(self, ddot_src):
        fn = compile_hil(ddot_src)
        with pytest.raises(SimulationFault, match="missing"):
            run_function(fn, {"X": np.zeros(4)}, {"N": 4})

    def test_instruction_budget(self, ddot_src):
        fn = compile_hil(ddot_src)
        with pytest.raises(SimulationFault, match="budget"):
            run_function(fn, {"X": np.zeros(10), "Y": np.zeros(10)},
                         {"N": 10}, max_instructions=5)

    def test_undefined_register_read(self):
        fn = Function("f", [])
        b = IRBuilder(fn)
        b.new_block("entry")
        ghost = VReg("g", RegClass.GP, DType.I64)
        out = b.gp("o")
        # bypass verifier deliberately: run interpreter directly
        b.add(out, ghost, Imm(1))
        b.ret(out)
        with pytest.raises(SimulationFault, match="undefined register"):
            run_function(fn, {}, {})

    def test_vector_ops(self):
        fn = Function("f", [Param("X", DType.PTR, elem=DType.F32,
                                  reg=VReg("X", RegClass.GP, DType.PTR))])
        b = IRBuilder(fn)
        vt = sse(DType.F32)
        b.new_block("entry")
        v = b.vec("v", vt)
        w = b.vec("w", vt)
        s = b.fp("s", DType.F32)
        x = fn.params[0].reg
        b.load(v, Mem(x, vt))
        b.unop(Opcode.VABS, w, v)
        b.emit(Instruction(Opcode.VHADD, s, (w,)))
        b.ret(s)
        X = np.array([1.0, -2.0, 3.0, -4.0], dtype=np.float32)
        res = run_function(fn, {"X": X}, {})
        assert res.ret == 10.0

    def test_vhmax_and_vmask(self):
        fn = Function("f", [Param("X", DType.PTR, elem=DType.F64,
                                  reg=VReg("X", RegClass.GP, DType.PTR))])
        b = IRBuilder(fn)
        vt = sse(DType.F64)
        b.new_block("entry")
        v = b.vec("v", vt)
        z = b.vec("z", vt)
        m = b.vec("m", vt)
        g = b.gp("g")
        x = fn.params[0].reg
        b.load(v, Mem(x, vt))
        b.vzero(z)
        b.binop(Opcode.VCMPGT, m, v, z)
        b.unop(Opcode.VMASK, g, m)
        b.ret(g)
        res = run_function(fn, {"X": np.array([-1.0, 5.0])}, {})
        assert res.ret == 0b10  # only lane 1 positive

    def test_flags_comparisons(self):
        src = """ROUTINE cmp3(a: int, b: int) RETURNS int;
int r = 0;
IF (a < b) GOTO LT;
IF (a == b) GOTO EQ;
r = 3;
RETURN r;
LT:
r = 1;
RETURN r;
EQ:
r = 2;
RETURN r;
"""
        fn = compile_hil(src)
        assert run_function(fn, {}, {"a": 1, "b": 2}).ret == 1
        assert run_function(fn, {}, {"a": 2, "b": 2}).ret == 2
        assert run_function(fn, {}, {"a": 3, "b": 2}).ret == 3

    def test_prefetch_is_architectural_noop(self, ddot_src, rng):
        from repro.fko import FKO, TransformParams, PrefetchParams
        from repro.ir import PrefetchHint
        from repro.machine import pentium4e
        fko = FKO(pentium4e())
        plain = fko.compile(ddot_src, TransformParams(sv=True))
        pf = fko.compile(ddot_src, TransformParams(
            sv=True, prefetch={"X": PrefetchParams(PrefetchHint.NTA, 4096)}))
        X = rng.standard_normal(40)
        Y = rng.standard_normal(40)
        r1 = run_function(plain.fn, {"X": X.copy(), "Y": Y.copy()}, {"N": 40})
        r2 = run_function(pf.fn, {"X": X.copy(), "Y": Y.copy()}, {"N": 40})
        assert r1.ret == r2.ret

    def test_instruction_count_reported(self, ddot_src):
        fn = compile_hil(ddot_src)
        res = run_function(fn, {"X": np.ones(8), "Y": np.ones(8)}, {"N": 8})
        assert res.instructions_executed > 8 * 5


def _ptr_fn(name="f"):
    """A function of one f64 array parameter ``X`` and its builder."""
    fn = Function(name, [Param("X", DType.PTR, elem=DType.F64,
                               reg=VReg("X", RegClass.GP, DType.PTR))])
    return fn, IRBuilder(fn), fn.params[0].reg


class TestInterpreterFaults:
    def test_fall_off_the_end(self):
        fn = Function("f", [])
        b = IRBuilder(fn)
        b.new_block("entry")
        b.mov(b.gp("o"), Imm(1))
        with pytest.raises(SimulationFault, match="fell off the end"):
            run_function(fn, {}, {})

    def test_jcc_without_flags(self):
        fn = Function("f", [])
        b = IRBuilder(fn)
        b.new_block("entry")
        b.jcc(Cond.LT, "entry")
        with pytest.raises(SimulationFault, match="JCC with no flags set"):
            run_function(fn, {}, {})

    def test_vector_store_to_scalar_ref(self):
        fn, b, x = _ptr_fn()
        b.new_block("entry")
        v = b.vec("v", sse(DType.F64))
        b.vzero(v)
        b.emit(Instruction(Opcode.VST, None, (Mem(x, DType.F64), v)))
        b.ret()
        with pytest.raises(SimulationFault,
                           match="vector store to scalar ref"):
            run_function(fn, {"X": np.zeros(4)}, {})

    def test_label_operand_is_unreadable(self):
        fn = Function("f", [])
        b = IRBuilder(fn)
        b.new_block("entry")
        b.mov(b.gp("o"), Label("entry"))
        b.ret()
        with pytest.raises(SimulationFault, match="cannot read operand @entry"):
            run_function(fn, {}, {})

    def test_budget_fault_mid_block_keeps_earlier_stores(self):
        fn, b, x = _ptr_fn()
        b.new_block("entry")
        f = b.fp("f")
        b.mov(f, Imm(1.0))
        for i in range(4):
            b.store(Mem(x, DType.F64, disp=8 * i), f)
        b.ret()
        # 6 instructions: the budget is checked before each one
        assert run_function(fn, {"X": np.zeros(4)}, {},
                            max_instructions=6).instructions_executed == 6
        X = np.zeros(4)
        with pytest.raises(SimulationFault, match=r"budget exceeded \(3\)"):
            run_function(fn, {"X": X}, {}, max_instructions=3)
        assert list(X) == [1.0, 1.0, 0.0, 0.0]

    def test_never_executed_block_is_never_faulted(self):
        fn = Function("f", [])
        b = IRBuilder(fn)
        b.new_block("entry")
        out = b.gp("o")
        b.mov(out, Imm(7))
        b.ret(out)
        b.new_block("dead")
        b.add(b.gp("d"), VReg("ghost", RegClass.GP, DType.I64), Imm(1))
        b.jmp("nowhere")
        res = run_function(fn, {}, {})
        assert (res.ret, res.instructions_executed) == (7, 2)

    def test_malformed_instruction_fails_only_when_run(self):
        fn = Function("f", [])
        b = IRBuilder(fn)
        b.new_block("entry")
        out = b.gp("o")
        b.mov(out, Imm(3))
        b.cmp(out, Imm(3))
        b.jcc(Cond.EQ, "done")
        b.emit(Instruction(Opcode.FADD, None, ()))  # no operands at all
        b.new_block("done")
        b.ret(out)
        assert run_function(fn, {}, {}).ret == 3
        fn.blocks[0].instrs[1] = Instruction(Opcode.CMP, None,
                                             (out, Imm(4)))
        with pytest.raises(IndexError):
            run_function(fn, {}, {})

    def test_taken_branch_to_undefined_label_raises_key_error(self):
        fn = Function("f", [])
        b = IRBuilder(fn)
        b.new_block("entry")
        b.jmp("nowhere")
        with pytest.raises(KeyError, match="nowhere"):
            run_function(fn, {}, {})
