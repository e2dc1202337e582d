"""The HIL cache-blocking pass: nest discovery, stride algebra, and
source-to-source tiling correctness (tiled programs must compute
exactly what the original computes, for every ragged edge)."""

from __future__ import annotations

import pytest

from repro.fko import FKO, TransformParams
from repro.hil import tiling
from repro.hil.tiling import (NestInfo, TilingError, apply_tiling,
                              find_nest, nest_info, tiled_source, unparse)
from repro.kernels import get_kernel
from repro.timing.tester import test_function as check_function
from repro.util import LRUCache


@pytest.fixture(scope="module")
def gemm_spec():
    return get_kernel("dgemm")


# ---------------------------------------------------------------------------
# nest discovery

class TestFindNest:
    def test_gemm_nest_shape(self, gemm_spec):
        nest = find_nest(gemm_spec.hil)
        assert isinstance(nest, NestInfo)
        assert nest.extent == "N"
        assert nest.ivars == ("i", "k", "j")
        assert nest.pointers == {"A": 8, "B": 8, "C": 8}
        assert nest.stored == ("C",)
        assert set(nest.loaded) == {"A", "B", "C"}

    def test_gemm_stride_polynomials(self, gemm_spec):
        # row-major C += A @ B, j-inner: per full iteration of each
        # index, the net pointer movement in elements at extent n=4
        strides = find_nest(gemm_spec.hil).strides_at(4)
        assert strides["A"] == {"i": 4, "k": 1, "j": 0}
        assert strides["B"] == {"i": 0, "k": 4, "j": 1}
        assert strides["C"] == {"i": 4, "k": 0, "j": 1}

    def test_single_loop_kernels_have_no_nest(self):
        for name in ("ddot", "dasum", "idamax", "dstencil3", "dsumsq"):
            assert find_nest(get_kernel(name).hil) is None

    def test_unparse_round_trips_the_nest(self, gemm_spec):
        nest = find_nest(gemm_spec.hil)
        again = find_nest(unparse(nest.routine))
        assert again is not None
        assert again.ivars == nest.ivars
        assert again.strides_at(7) == nest.strides_at(7)

    def test_nest_info_is_memoized(self, gemm_spec):
        assert nest_info(gemm_spec.hil) is nest_info(gemm_spec.hil)

    def test_source_without_nest_is_searched_once(self, monkeypatch):
        calls = []

        def counting(source):
            calls.append(source)
            return find_nest(source)

        monkeypatch.setattr(tiling, "_NEST_CACHE", LRUCache(8))
        monkeypatch.setattr(tiling, "find_nest", counting)
        src = get_kernel("ddot").hil
        assert [nest_info(src) for _ in range(3)] == [None] * 3
        assert calls == [src]


class TestMemoBounds:
    def test_memos_hold_one_tuning_pass(self):
        # one pass over every Level-3 problem requests 168 tilings
        assert tiling._NEST_CACHE.maxsize == 1024
        assert tiling._TILED_CACHE.maxsize == 1024

    def test_memos_stay_bounded_and_exact(self, monkeypatch, gemm_spec):
        maxsize = 8
        monkeypatch.setattr(tiling, "_NEST_CACHE", LRUCache(maxsize))
        monkeypatch.setattr(tiling, "_TILED_CACHE", LRUCache(maxsize))
        for k in range(1, 3 * maxsize):
            tiles = {"k": k, "j": k % 3}
            out = tiled_source(gemm_spec.hil, tiles)
            assert out == apply_tiling(gemm_spec.hil, tiles)
            for source in (gemm_spec.hil, out):
                info, direct = nest_info(source), find_nest(source)
                assert (info is None) == (direct is None)
                if info is not None:
                    assert unparse(info.routine) == unparse(direct.routine)
                    assert info.strides_at(5) == direct.strides_at(5)
            assert len(tiling._TILED_CACHE) <= maxsize
            assert len(tiling._NEST_CACHE) <= maxsize
        # the oldest entries were evicted, the newest still answer
        assert len(tiling._TILED_CACHE) == maxsize
        assert tiling._TILED_CACHE.get((gemm_spec.hil, (("k", 1),))) is None


# ---------------------------------------------------------------------------
# the tiling transform

class TestApplyTiling:
    def test_no_tiles_is_identity(self, gemm_spec):
        assert tiled_source(gemm_spec.hil, {}) is gemm_spec.hil
        assert tiled_source(gemm_spec.hil, {"i": 0}) is gemm_spec.hil

    def test_unknown_ivar_is_identity(self, gemm_spec):
        assert tiled_source(gemm_spec.hil, {"z": 8}) == gemm_spec.hil

    def test_non_nest_source_is_identity(self):
        src = get_kernel("ddot").hil
        assert tiled_source(src, {"i": 8}) == src

    def test_tiled_source_still_a_nest(self, gemm_spec):
        tiled = apply_tiling(gemm_spec.hil, {"k": 4})
        assert tiled != gemm_spec.hil
        assert "LOOP kT = 0, N, 4" in tiled

    @pytest.mark.parametrize("tiles", [
        {"k": 4},
        {"j": 5},
        {"i": 3},
        {"k": 4, "j": 4},
        {"i": 3, "k": 5, "j": 2},
    ])
    def test_tiled_gemm_computes_the_same_thing(self, p4e, gemm_spec,
                                                tiles):
        # ragged edges included: GEMM_TEST_SIZES are mostly not
        # multiples of the tile sizes
        params = TransformParams()
        for v, t in tiles.items():
            params = params.with_ext(f"tile:{v}", t)
        compiled = FKO(p4e).compile(gemm_spec.hil, params,
                                    debug_verify=True)
        check_function(compiled.fn, gemm_spec)

    def test_tiling_composes_with_inner_transforms(self, p4e, gemm_spec):
        params = TransformParams(sv=True, unroll=4, ae=2) \
            .with_ext("tile:k", 4).with_ext("tile:j", 5)
        compiled = FKO(p4e).compile(gemm_spec.hil, params,
                                    debug_verify=True)
        check_function(compiled.fn, gemm_spec)

    def test_generated_name_collision_is_refused(self):
        src = """
ROUTINE collide(N: int, A: ptr double, B: ptr double);
double t;
double klen;
LOOP k = 0, N
LOOP_BODY
    @TUNE
    LOOP j = 0, N
    LOOP_BODY
        t = A[0];
        B[0] = t;
        A += 1;
        B += 1;
    LOOP_END
    A -= N;
    B -= N;
LOOP_END
"""
        assert find_nest(src) is not None
        with pytest.raises(TilingError):
            apply_tiling(src, {"k": 4})
