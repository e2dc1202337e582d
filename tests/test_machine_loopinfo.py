"""Tests for the loop summary extractor (machine.loopinfo)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atlas import build_dual_indexed_copy, build_vector_iamax
from repro.errors import MachineError
from repro.fko import FKO, PrefetchParams, TransformParams
from repro.ir import (BasicBlock, Cond, Function, Instruction, Label,
                      Opcode, PrefetchHint)
from repro.kernels import KERNEL_ORDER, get_kernel
from repro.machine import opteron, pentium4e, summarize
from repro.machine.loopinfo import PATH_LIMIT, _block_weights

RARE = 0.01


@pytest.fixture(scope="module")
def fko():
    return FKO(pentium4e())


def enumerated_weights(fn, body_names, latch, rare_weight):
    """The block-weight rule by explicit path enumeration: every
    (block, path) state from the body entry is popped once, paths stop
    at the latch, and more than ``PATH_LIMIT`` pops weigh everything
    1.0.  Exponential in the body's diamonds — the test oracle for the
    linear-time pass.  Returns ``(weights, pops)``."""
    if not body_names:
        return {}, 0
    entry = body_names[0]
    members = set(body_names) | {latch}
    succ = fn.successor_map()
    always = None
    stack = [(entry, frozenset([entry]))]
    pops = 0
    while stack:
        pops += 1
        if pops > PATH_LIMIT:
            always = set(body_names)
            break
        cur, path = stack.pop()
        if cur == latch:
            always = set(path) if always is None else (always & set(path))
            continue
        for s in succ[cur]:
            if s in members and s not in path:
                stack.append((s, path | {s}))
    if always is None:
        always = set(body_names)
    return ({name: 1.0 if name in always else rare_weight
             for name in body_names}, pops)


def cfg_function(edges, order=None):
    """A function whose blocks (in ``order``, default ``edges``' order)
    branch explicitly to ``edges[name]``: one ``jcc`` per target but the
    last, a ``jmp`` to the last, ``ret`` when there is none."""
    blocks = []
    for name in order or list(edges):
        targets = edges[name]
        instrs = [Instruction(Opcode.JCC, None, (Label(t),), cond=Cond.NE)
                  for t in targets[:-1]]
        instrs.append(Instruction(Opcode.JMP, None, (Label(targets[-1]),))
                      if targets else Instruction(Opcode.RET))
        blocks.append(BasicBlock(name, instrs))
    return Function("cfg", [], blocks=blocks)


def ladder(diamonds, pad):
    """``diamonds`` diamonds in series ending at the latch (2**diamonds
    entry->latch paths), plus ``pad`` dead-end blocks off the entry that
    each add one popped state and never reach the latch."""
    edges = {"entry": ["a1", "b1"] + [f"pad{j}" for j in range(pad)]}
    for i in range(1, diamonds + 1):
        join = "latch" if i == diamonds else f"j{i}"
        edges[f"a{i}"] = [join]
        edges[f"b{i}"] = [join]
        if i < diamonds:
            edges[join] = [f"a{i + 1}", f"b{i + 1}"]
    edges.update({f"pad{j}": [] for j in range(pad)})
    edges["latch"] = ["entry", "exit"]
    edges["exit"] = []
    body = [n for n in edges if n not in ("latch", "exit")]
    return cfg_function(edges), body


def assert_same_weights(fn, body_names, latch):
    want, pops = enumerated_weights(fn, body_names, latch, RARE)
    assert _block_weights(fn, body_names, latch, RARE) == want
    return want, pops


class TestStreams:
    def test_dot_streams(self, fko, ddot_src):
        k = fko.compile(ddot_src, TransformParams(sv=True, unroll=4))
        s = summarize(k.fn)
        assert s.elems_per_trip == 8       # 2 lanes x 4
        assert set(s.streams) == {"X", "Y"}
        for st in s.streams.values():
            assert st.reads and not st.writes
            assert st.elem_size == 8       # scalar units, not vector
            assert st.elems_per_trip == 8

    def test_swap_streams_read_write(self, fko):
        k = fko.compile(get_kernel("dswap").hil, TransformParams(sv=True))
        s = summarize(k.fn)
        for st in s.streams.values():
            assert st.reads and st.writes

    def test_copy_stream_directions(self, fko):
        k = fko.compile(get_kernel("scopy").hil, TransformParams(sv=True))
        s = summarize(k.fn)
        assert s.streams["X"].reads and not s.streams["X"].writes
        assert s.streams["Y"].writes and not s.streams["Y"].reads

    def test_nontemporal_flag(self, fko):
        k = fko.compile(get_kernel("dcopy").hil,
                        TransformParams(sv=True, wnt=True))
        s = summarize(k.fn)
        assert s.streams["Y"].nontemporal
        assert not s.streams["X"].nontemporal

    def test_prefetch_recorded(self, fko, ddot_src):
        k = fko.compile(ddot_src, TransformParams(
            sv=True, unroll=8,
            prefetch={"X": PrefetchParams(PrefetchHint.T0, 640)}))
        s = summarize(k.fn)
        assert s.streams["X"].prefetch_hint is PrefetchHint.T0
        assert s.streams["X"].prefetch_dist == 640
        # 8 trips x 2 lanes x 8B = 128B = 2 lines
        assert s.streams["X"].n_prefetches == 2
        assert s.streams["Y"].prefetch_hint is None

    def test_spill_traffic_not_a_stream(self, fko, ddot_src):
        k = fko.compile(ddot_src, TransformParams(sv=True, unroll=32, ae=16))
        assert k.applied["spilled"] > 0
        s = summarize(k.fn)
        assert set(s.streams) == {"X", "Y"}   # stack accesses excluded


class TestBodyWeights:
    def test_single_block_weight_one(self, fko, ddot_src):
        k = fko.compile(ddot_src, TransformParams(sv=True))
        s = summarize(k.fn)
        assert all(w == 1.0 for _, w in s.body)

    def test_iamax_rare_blocks_weighted_down(self, fko, iamax_src):
        k = fko.compile(iamax_src, TransformParams(sv=False, unroll=1))
        s = summarize(k.fn)
        weights = {w for _, w in s.body}
        assert 1.0 in weights
        assert any(w < 0.5 for w in weights)  # the NEWMAX path

    def test_cleanup_summarized(self, fko, ddot_src):
        k = fko.compile(ddot_src, TransformParams(sv=True, unroll=4))
        s = summarize(k.fn)
        assert s.cleanup  # the scalar remainder loop
        assert all(w == 1.0 for _, w in s.cleanup)

    def test_loopless_function(self, fko):
        k = fko.compile("ROUTINE f(X: ptr double);\nX += 1;\n")
        s = summarize(k.fn)
        assert not s.has_loop
        assert s.streams == {}


class TestBlockFetchTag:
    def test_override_set(self, fko):
        k = fko.compile(get_kernel("dcopy").hil,
                        TransformParams(sv=True, block_fetch=True))
        assert summarize(k.fn).write_batch_override == 16

    def test_override_absent_by_default(self, fko):
        k = fko.compile(get_kernel("dcopy").hil, TransformParams(sv=True))
        assert summarize(k.fn).write_batch_override is None


class TestBlockWeightsMatchEnumeration:
    """The linear-time block-weight pass gives exactly the weights of
    the path enumeration it replaced."""

    @pytest.mark.parametrize("machine", [pentium4e, opteron],
                             ids=["p4e", "opteron"])
    @pytest.mark.parametrize("kernel", KERNEL_ORDER)
    def test_compiled_kernels(self, machine, kernel):
        fko = FKO(machine())
        spec = get_kernel(kernel)
        for sv, unroll, ae in itertools.product(
                (False, True), (1, 2, 4, 8, 16, 64), (1, 2, 4)):
            fn = fko.compile(spec.hil, TransformParams(
                sv=sv, unroll=unroll, ae=ae)).fn
            assert_same_weights(fn, fn.loop.body, fn.loop.latch)

    @pytest.mark.parametrize("kernel", ["isamax", "idamax"])
    @pytest.mark.parametrize("unroll", [1, 2, 4, 8])
    def test_hand_vectorized_iamax(self, kernel, unroll):
        fn = build_vector_iamax(get_kernel(kernel), unroll=unroll)
        assert_same_weights(fn, fn.loop.body, fn.loop.latch)

    @pytest.mark.parametrize("kernel", ["scopy", "dcopy"])
    @pytest.mark.parametrize("nontemporal,block_fetch",
                             [(False, False), (True, False), (True, True)])
    def test_dual_indexed_copy(self, kernel, nontemporal, block_fetch):
        fn = build_dual_indexed_copy(get_kernel(kernel),
                                     nontemporal=nontemporal,
                                     block_fetch=block_fetch)
        assert_same_weights(fn, fn.loop.body, fn.loop.latch)

    @pytest.mark.parametrize("pad,pops", [(2, 4095), (3, 4096), (4, 4097)])
    def test_path_limit_boundary(self, pad, pops):
        # 10 diamonds pop 4093 states; each pad block adds one
        fn, body = ladder(10, pad)
        weights, popped = assert_same_weights(fn, body, "latch")
        assert popped == min(pops, PATH_LIMIT + 1)
        if pops <= PATH_LIMIT:
            assert weights["entry"] == 1.0 and weights["a1"] == RARE
        else:
            assert set(weights.values()) == {1.0}

    def test_no_path_to_latch_weighs_everything_one(self):
        fn = cfg_function({"entry": ["a", "b"], "a": ["exit"], "b": [],
                           "latch": ["entry"], "exit": []})
        weights, _ = assert_same_weights(fn, ["entry", "a", "b"], "latch")
        assert set(weights.values()) == {1.0}

    def test_single_block_body(self):
        fn = cfg_function({"body": ["latch"], "latch": ["body", "exit"],
                           "exit": []})
        assert _block_weights(fn, ["body"], "latch", RARE) == {"body": 1.0}

    def test_cyclic_body_raises(self):
        fn = cfg_function({"entry": ["a"], "a": ["b"], "b": ["a", "latch"],
                           "latch": ["entry", "exit"], "exit": []})
        with pytest.raises(MachineError, match="cycle"):
            _block_weights(fn, ["entry", "a", "b"], "latch", RARE)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(2, 9),
           latch_in_body=st.booleans())
    def test_random_body_dags(self, data, n, latch_in_body):
        names = [f"b{i}" for i in range(n)]
        latch = names[-1] if latch_in_body else "latch"
        edges = {}
        for i, name in enumerate(names):
            if name == latch:
                continue
            later = names[i + 1:] + ([] if latch_in_body else [latch])
            edges[name] = data.draw(st.lists(
                st.sampled_from(later + ["exit"]), unique=True,
                max_size=4)) if later else []
        # the back edge, plus edges out of the latch the rule ignores
        edges[latch] = ["b0"] + data.draw(st.lists(
            st.sampled_from(names[1:]), unique=True, max_size=2)) + ["exit"]
        edges["exit"] = []
        order = data.draw(st.permutations(list(edges)))
        fn = cfg_function(edges, order)
        assert_same_weights(fn, names, latch)


def test_block_weights_do_linear_work(monkeypatch):
    """Summarizing an unrolled isamax body with far more than
    ``PATH_LIMIT`` paths derives each block's successors at most twice,
    so the exponential walk cannot come back unnoticed."""
    fn = FKO(pentium4e()).compile(get_kernel("isamax").hil,
                                  TransformParams(sv=False, unroll=64)).fn
    _, pops = enumerated_weights(fn, fn.loop.body, fn.loop.latch, RARE)
    assert pops > PATH_LIMIT
    calls = []
    original = BasicBlock.branch_targets

    def counting(self):
        calls.append(self.name)
        return original(self)

    monkeypatch.setattr(BasicBlock, "branch_targets", counting)
    fn.__dict__.pop("_summary_memo", None)
    summary = summarize(fn)
    assert summary.body and len(calls) <= 2 * len(fn.blocks)
