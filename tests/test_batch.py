"""Batched candidate evaluation: bit-identity, sharing, validation.

The batched evaluator's contract is that batching is an evaluation
*throughput* optimization only: prefix-memoized compilation and shared
steady-state walks must never change a single cycle count, history
entry or cache key.  These tests pin that contract from three sides —
end-to-end search identity across strategies, jobs and observation;
bitwise timer sharing; and compile-cache aliasing safety — plus the
stability of the eval-cache key.
"""

import dataclasses
import functools
import hashlib
import json

import pytest

import repro.search.engine as engine_mod
from repro.fko import FKO
from repro.ir.printer import canonical_function_text
from repro.kernels import get_kernel
from repro.machine import Context, get_machine
from repro.machine.loopinfo import summarize
from repro.qa import run_fuzz
from repro.search import TuneConfig, TuningSession
from repro.search.evalcache import eval_key
from repro.timing.timer import Timer

STRATEGIES = ("line", "random", "anneal", "genetic")


def _run(strategy, **cfg_kw):
    """One daxpy/opteron search; returns (best cycles, history digest)."""
    cfg = TuneConfig(strategy=strategy, max_evals=10, seed=7,
                     run_tester=False, **cfg_kw)
    with TuningSession(cfg) as s:
        tuned = s.tune("daxpy", "opteron", Context.OUT_OF_CACHE, 80000)
    r = tuned.search
    digest = hashlib.sha256(
        json.dumps([[p, list(k), c] for p, k, c in r.history]).encode()
    ).hexdigest()
    return r.best_cycles, digest


# ---------------------------------------------------------------------------
# end-to-end bit-identity: batched == unbatched, everywhere

class TestBatchedBitIdentity:
    """The default (prefix-memoized, shared-walk) path must land on the
    same best cycles and the same evaluation history as the uncached
    serial reference, for every strategy — serial, pooled and
    observed."""

    @pytest.fixture(scope="class")
    def reference(self):
        # the reference compiles every candidate through the full
        # pipeline: a serial session whose FKO has its caches off
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine_mod, "FKO",
                       functools.partial(FKO, prefix_cache=False))
            return {s: _run(s, jobs=1) for s in STRATEGIES}

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_batched_serial(self, reference, strategy):
        assert _run(strategy, jobs=1) == reference[strategy]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_batched_parallel(self, reference, strategy):
        assert _run(strategy, jobs=2) == reference[strategy]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_batched_parallel_observed(self, reference, strategy):
        got = _run(strategy, jobs=2, observe=True)
        assert got == reference[strategy]

    def test_batch_stats_populated(self):
        """Candidates of one search share compile prefixes; repeating
        the search in the same session reuses every compile and every
        timing walk."""
        cfg = TuneConfig(strategy="genetic", max_evals=10, seed=7,
                         run_tester=False)
        with TuningSession(cfg) as s:
            s.tune("daxpy", "opteron", Context.OUT_OF_CACHE, 80000)
            first = s.stats.to_dict()
            s.tune("daxpy", "opteron", Context.OUT_OF_CACHE, 80000)
            stats = s.stats
        assert first["batch_prefix_hits"] > 0
        assert first["batch_prefix_misses"] > 0
        repeat = stats.evaluations - first["evaluations"]
        assert repeat == 10
        assert stats.batch_prefix_misses == first["batch_prefix_misses"]
        assert stats.batch_prefix_hits - first["batch_prefix_hits"] \
            == repeat
        assert stats.batch_walk_hits - first["batch_walk_hits"] == repeat


# ---------------------------------------------------------------------------
# timer sharing is bitwise

class TestTimerSharing:
    @pytest.fixture(scope="class")
    def candidates(self):
        machine = get_machine("opteron")
        fko = FKO(machine)
        spec = get_kernel("daxpy")
        out = []
        for u in (1, 4, 4):
            params = dataclasses.replace(fko.defaults(spec.hil), unroll=u)
            compiled = fko.compile(spec.hil, params)
            out.append((summarize(compiled.fn), spec.flops(80000),
                        f"{spec.name}|{params.key()}",
                        fko.share_key(spec.hil, params)))
        return machine, out

    def test_time_summaries_equals_individual_loop(self, candidates):
        """The batch API with shared walks is bitwise equal to timing
        every candidate individually with a fresh timer."""
        machine, cands = candidates
        batch_timer = Timer(machine, Context.OUT_OF_CACHE, 80000)
        batched = batch_timer.time_summaries(
            [c[:3] for c in cands], share_keys=[c[3] for c in cands])
        # the duplicated unroll=4 candidate shared one walk
        assert batch_timer.base_hits == 1
        for (summary, flops, ident, _), got in zip(cands, batched):
            solo = Timer(machine, Context.OUT_OF_CACHE, 80000)
            want = solo.time_summary(summary, flops, ident)
            assert got.to_dict() == want.to_dict()
            assert got.samples == want.samples

    def test_peek_base_only_reports_cached_walks(self, candidates):
        machine, cands = candidates
        timer = Timer(machine, Context.OUT_OF_CACHE, 80000)
        summary, _, _, key = cands[0]
        assert timer.peek_base(key) is None      # miss: caller compiles
        assert timer.peek_base(None) is None     # no share key: no reuse
        assert timer.base_misses == 0            # peeking never charges
        walk = timer.base(summary, key)
        assert timer.peek_base(key) is walk      # hit: same walk object
        assert timer.cache_stats() == {"base_hits": 1, "base_misses": 1}


# ---------------------------------------------------------------------------
# compile-cache aliasing: cached IR is never reachable from callers

class TestPrefixCacheAliasing:
    def test_mutating_a_compiled_kernel_cannot_poison_the_cache(self):
        fko = FKO(get_machine("opteron"))
        hil = get_kernel("daxpy").hil
        params = dataclasses.replace(fko.defaults(hil), unroll=4)
        first = fko.compile(hil, params)
        want = canonical_function_text(first.fn)
        # vandalize everything the caller can reach: the kernel IR, the
        # applied-transform record, even a sibling sharing the prefix
        first.fn.blocks[0].instrs.clear()
        first.fn.blocks[-1].instrs.clear()
        first.applied.clear()
        sibling = fko.compile(hil, dataclasses.replace(params, unroll=8))
        sibling.fn.blocks[0].instrs.clear()
        again = fko.compile(hil, params)
        assert canonical_function_text(again.fn) == want
        assert fko.full_hits > 0   # and it *was* served from the cache

    def test_fuzz_with_prefix_cached_compiles(self):
        """The differential fuzzer drives transformed compiles through
        memoized FKO instances — a short campaign must stay clean."""
        report = run_fuzz(seed=11, budget=10, shrink=False)
        assert report.checked == 10
        assert report.ok, [f.describe() for f in report.failures]


# ---------------------------------------------------------------------------
# cache-key stability

class TestConfigAndKeys:
    def test_eval_key_is_stable(self):
        """The eval-cache key format is load-bearing: changing it
        silently invalidates every persisted cache.  Pinned digest."""
        key = eval_key("kernel src", "opteron", "out-of-cache", 80000,
                       (("u", 4),), "v1")
        assert key == ("2b739b607a43be44ea8586d5f6a4cd55"
                       "e668cbd16db1824a186f2a803fa9a2ae")

    def test_eval_key_accepts_context_enum_or_string(self):
        a = eval_key("src", "p4e", Context.OUT_OF_CACHE, 80000, (), "v1")
        b = eval_key("src", "p4e", "out-of-cache", 80000, (), "v1")
        assert a == b

    def test_eval_key_varies_with_params(self):
        a = eval_key("src", "p4e", "out-of-cache", 80000, (("u", 2),), "v1")
        b = eval_key("src", "p4e", "out-of-cache", 80000, (("u", 4),), "v1")
        assert a != b
