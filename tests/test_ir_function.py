"""Tests for blocks, functions, derived CFG, builder, printer, verifier."""

import pytest

from repro.errors import IRError, IRVerifyError
from repro.ir import (BasicBlock, Cond, DType, Function, IRBuilder, Imm,
                      Instruction, Label, Mem, Opcode, Param, RegClass,
                      VReg, format_function, verify)


def build_diamond():
    """entry -> (then | else) -> join -> ret"""
    fn = Function("diamond", [])
    b = IRBuilder(fn)
    x = b.gp("x")
    b.new_block("entry")
    b.mov(x, Imm(1))
    b.cmp(x, Imm(0))
    b.jcc(Cond.GT, "then")
    b.new_block("else")
    b.mov(x, Imm(2))
    b.jmp("join")
    b.new_block("then")
    b.mov(x, Imm(3))
    b.new_block("join")
    b.ret(x)
    return fn, x


class TestCFG:
    def test_successors_fallthrough_and_branch(self):
        fn, _ = build_diamond()
        succs = fn.successor_map()["entry"]
        assert set(succs) == {"then", "else"}

    def test_jmp_has_single_successor(self):
        fn, _ = build_diamond()
        assert fn.successor_map()["else"] == ["join"]

    def test_predecessors(self):
        fn, _ = build_diamond()
        assert set(fn.predecessors("join")) == {"else", "then"}

    def test_reachable_all(self):
        fn, _ = build_diamond()
        assert fn.reachable() == {"entry", "else", "then", "join"}

    def test_unreachable_detected(self):
        fn, _ = build_diamond()
        dead = BasicBlock("dead", [Instruction(Opcode.RET)])
        fn.add_block(dead)
        assert "dead" not in fn.reachable()

    def test_duplicate_block_rejected(self):
        fn, _ = build_diamond()
        with pytest.raises(IRError):
            fn.add_block(BasicBlock("entry"))

    def test_block_lookup_missing(self):
        fn, _ = build_diamond()
        with pytest.raises(IRError):
            fn.block("nope")

    def test_insert_after(self):
        fn, _ = build_diamond()
        fn.add_block(BasicBlock("mid"), after="entry")
        assert [b.name for b in fn.blocks][:2] == ["entry", "mid"]


class TestVerifier:
    def test_diamond_verifies(self):
        fn, _ = build_diamond()
        verify(fn)

    def test_branch_to_unknown_block(self):
        fn, _ = build_diamond()
        fn.block("else").instrs[-1] = Instruction(
            Opcode.JMP, None, (Label("missing"),))
        with pytest.raises(IRVerifyError, match="unknown block"):
            verify(fn)

    def test_jcc_requires_compare(self):
        fn = Function("f", [])
        b = IRBuilder(fn)
        b.new_block("entry")
        b.emit(Instruction(Opcode.JCC, None, (Label("entry"),), cond=Cond.LT))
        with pytest.raises(IRVerifyError, match="no preceding compare"):
            verify(fn)

    def test_jcc_with_clobbered_flags_rejected(self):
        # CMP ... ; ADD ... ; JCC — the ADD overwrites EFLAGS, so the
        # branch no longer tests the compare's result
        fn = Function("f", [])
        b = IRBuilder(fn)
        b.new_block("entry")
        x = b.gp("x")
        b.mov(x, Imm(1))
        b.cmp(x, Imm(0))
        b.add(x, x, Imm(1))
        b.jcc(Cond.GT, "entry")
        b.new_block("exit")
        b.ret()
        with pytest.raises(IRVerifyError, match="clobbered|no preceding"):
            verify(fn)

    def test_jcc_after_recompare_accepted(self):
        # a fresh compare after the clobber makes the branch valid again
        fn = Function("f", [])
        b = IRBuilder(fn)
        b.new_block("entry")
        x = b.gp("x")
        b.mov(x, Imm(1))
        b.cmp(x, Imm(0))
        b.add(x, x, Imm(1))
        b.cmp(x, Imm(0))
        b.jcc(Cond.GT, "entry")
        b.new_block("exit")
        b.ret()
        verify(fn)

    def test_terminator_mid_block_rejected(self):
        fn = Function("f", [])
        b = IRBuilder(fn)
        b.new_block("entry")
        b.ret()
        b.emit(Instruction(Opcode.NOP))
        with pytest.raises(IRVerifyError, match="terminator"):
            verify(fn)

    def test_undefined_vreg_read(self):
        fn = Function("f", [])
        b = IRBuilder(fn)
        b.new_block("entry")
        ghost = b.gp("ghost")
        out = b.gp("out")
        b.add(out, ghost, Imm(1))
        b.ret()
        with pytest.raises(IRVerifyError, match="never defined"):
            verify(fn)

    def test_wrong_dst_class(self):
        fn = Function("f", [])
        b = IRBuilder(fn)
        b.new_block("entry")
        wrong = VReg("w", RegClass.GP, DType.I64)
        b.emit(Instruction(Opcode.FADD, wrong,
                           (VReg("a", RegClass.FP, DType.F64),
                            VReg("a2", RegClass.FP, DType.F64))))
        b.ret()
        with pytest.raises(IRVerifyError, match="dst class"):
            verify(fn)

    def test_store_operand_shape(self):
        fn = Function("f", [])
        b = IRBuilder(fn)
        b.new_block("entry")
        f = VReg("v", RegClass.FP, DType.F64)
        b.emit(Instruction(Opcode.FMOV, f, (Imm(0.0),)))
        b.emit(Instruction(Opcode.FST, None, (f, f)))  # src0 must be Mem
        b.ret()
        with pytest.raises(IRVerifyError, match="store"):
            verify(fn)

    def test_prefetch_requires_hint(self):
        fn = Function("f", [])
        b = IRBuilder(fn)
        b.new_block("entry")
        p = b.gp("p")
        b.mov(p, Imm(0))
        b.emit(Instruction(Opcode.PREFETCH, None, (Mem(p, DType.F64),)))
        b.ret()
        with pytest.raises(IRVerifyError, match="hint"):
            verify(fn)


class TestPrinter:
    def test_format_contains_blocks_and_params(self, ddot_src):
        from repro.hil import compile_hil
        fn = compile_hil(ddot_src)
        text = format_function(fn)
        assert "# function ddot" in text
        assert "loop0_body:" in text
        assert "fadd" in text
        assert "tuned loop" in text

    def test_format_stable_roundtrip(self):
        fn, _ = build_diamond()
        assert format_function(fn) == format_function(fn)
