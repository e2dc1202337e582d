"""Tests of the benchmark's own helpers: the span recorder, the
self-time fold, the tail percentile, peak RSS, the seeded draws and the
golden comparison.

Run from the root of the repository::

    python3 -m pytest perfbench/test_helpers.py -q
"""

from __future__ import annotations

import collections
import json
import pathlib
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import golden  # noqa: E402
import layers  # noqa: E402
import problems  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# span recorder and self-time fold

def _span(name, start, end, parent=None, job=None):
    return [name, start, end, parent, job]


def test_fold_subtracts_direct_children_only():
    recorded = [_span("job", 0.0, 10.0),
                _span("fko.compile", 1.0, 5.0, parent=0),
                _span("fko.finish", 2.0, 4.0, parent=1),
                _span("machine.walk", 6.0, 9.0, parent=0)]
    folded = spans.fold(recorded)
    assert folded["job"]["self_s"] == pytest.approx(3.0)
    assert folded["fko.compile"]["self_s"] == pytest.approx(2.0)
    assert folded["fko.compile"]["total_s"] == pytest.approx(4.0)
    assert folded["fko.finish"]["self_s"] == pytest.approx(2.0)
    # self times of one process add up to its root wall
    assert sum(r["self_s"] for r in folded.values()) == pytest.approx(10.0)


def test_fold_in_jobs_skips_spans_outside_any_job():
    recorded = [_span("service.http_post", 0.0, 10.0),
                _span("job", 1.0, 9.0, job="j1"),
                _span("fko.compile", 2.0, 5.0, parent=1, job="j1")]
    folded = spans.fold(recorded, in_jobs=True)
    assert set(folded) == {"job", "fko.compile"}
    assert folded["job"]["self_s"] == pytest.approx(5.0)


def test_fold_sums_calls_and_skips_open_spans():
    recorded = [_span("a", 0.0, 1.0), _span("a", 2.0, 4.0),
                _span("b", 5.0, None)]
    folded = spans.fold(recorded)
    assert folded["a"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}
    assert "b" not in folded


def test_coverage_is_attributed_share_of_job_wall():
    recorded = [_span("job", 0.0, 10.0), _span("x", 0.0, 9.0, parent=0),
                _span("job", 10.0, 20.0), _span("y", 10.0, 19.0, parent=2)]
    cov, unattributed, wall = spans.coverage(recorded)
    assert wall == pytest.approx(20.0)
    assert unattributed == pytest.approx(2.0)
    assert cov == pytest.approx(0.9)
    assert spans.coverage([]) == (0.0, 0.0, 0.0)


def test_recorder_nests_and_tags_jobs(tmp_path):
    rec = spans.SpanRecorder(str(tmp_path))
    with rec.span("job"):
        with rec.span("fko.compile"):
            assert rec.inside("job") and rec.inside("fko.compile")
        with rec.span("machine.walk"):
            pass
    with rec.span("other"):
        assert not rec.inside("job")
    names = [s[0] for s in rec.spans]
    assert names == ["job", "fko.compile", "machine.walk", "other"]
    assert rec.spans[1][3] == 0 and rec.spans[2][3] == 0
    assert rec.spans[1][4] == rec.spans[0][4] is not None
    assert rec.spans[3][3] is None and rec.spans[3][4] is None
    rec.counts["ir.liveness"] += 3
    rec.dump()
    (dump,) = spans.load_dumps(str(tmp_path))
    assert dump["counts"] == {"ir.liveness": 3}
    assert len(dump["spans"]) == 4


def test_recorder_closes_span_when_call_raises():
    rec = spans.SpanRecorder()
    with pytest.raises(ValueError):
        with rec.span("job"):
            raise ValueError("boom")
    assert rec.spans[0][2] is not None
    assert not rec.inside("job")


def test_forked_worker_dumps_its_own_spans(tmp_path):
    import multiprocessing

    rec = spans.SpanRecorder(str(tmp_path))
    with rec.span("parent-only"):
        pass
    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(target=_child_work, args=(rec,))
    proc.start()
    proc.join(timeout=30)
    assert not proc.is_alive() and proc.exitcode == 0
    dumps = spans.load_dumps(str(tmp_path))
    assert [d["pid"] for d in dumps] == [proc.pid]
    assert [s[0] for s in dumps[0]["spans"]] == ["in-worker"]


def _child_work(rec):
    with rec.span("in-worker"):
        pass


def test_install_wraps_and_uninstall_restores():
    from repro.fko import FKO
    from repro.machine import loopinfo
    from repro.search import engine

    before_compile = FKO.__dict__["compile"]
    before_summarize = engine.summarize
    rec = spans.SpanRecorder()
    inst = spans.install(rec)
    try:
        assert FKO.__dict__["compile"] is not before_compile
        # a function bound by name in another module is wrapped there
        assert engine.summarize is not before_summarize
        assert engine.summarize is loopinfo.summarize
    finally:
        inst.uninstall()
    assert FKO.__dict__["compile"] is before_compile
    assert engine.summarize is before_summarize


def test_traced_tune_counts_paths_and_matches_untraced():
    from repro import Context, TuneConfig, TuningSession

    def tune():
        with TuningSession(TuneConfig(max_evals=12)) as session:
            tuned = session.tune("ddot", "p4e", Context.IN_L2, 1024)
            return tuned.search.best_cycles, session.stats.evaluations

    plain = tune()
    rec = spans.SpanRecorder()
    inst = spans.install(rec)
    try:
        traced = tune()
    finally:
        inst.uninstall()
    assert traced == plain
    paths = sum(rec.counts[f"timing.path_{p}"]
                for p in ("walk", "replay", "nest", "memo"))
    assert paths == plain[1]
    assert rec.counts["fko.compiles"] >= plain[1]
    cov, _, _ = spans.coverage(rec.spans)
    assert cov > 0.5


# ---------------------------------------------------------------------------
# statistics

def test_tail_has_exactly_ten_samples_beyond():
    values = list(range(1, 101))          # 1..100
    value, pct = stats.tail(values)
    assert value == 90 and pct == pytest.approx(90.0)
    assert sum(1 for v in values if v > value) == 10
    value, pct = stats.tail(list(range(40)))
    assert sum(1 for v in range(40) if v > value) == 10
    assert pct == pytest.approx(75.0)
    assert stats.tail(list(range(10))) is None


def test_geomean():
    assert stats.geomean([1.0, 100.0]) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        stats.geomean([1.0, 0.0])


def test_peak_rss_covers_waited_children_and_live_readings():
    own = stats.peak_rss_mb()
    assert own > 1.0
    # a child that grows beyond this process shows once it is reaped
    grow = ("b = bytearray(%d); b[::4096] = b'x' * len(b[::4096])"
            % int((own + 64) * 1024 * 1024))
    subprocess.run([sys.executable, "-c", grow], check=True, timeout=60)
    assert stats.peak_rss_mb() >= own + 60
    assert stats.peak_rss_mb(10 ** 9) == pytest.approx(10 ** 9 / 1024)
    import os
    assert stats.vm_hwm_kb(os.getpid()) > 0
    assert stats.vm_hwm_kb(2 ** 30) == 0


def test_normalized_rescales_to_the_reference_speed():
    assert stats.normalized(2.0, stats.CAL_REF_S) == pytest.approx(2.0)
    assert stats.normalized(2.0, 2 * stats.CAL_REF_S) == pytest.approx(1.0)
    assert 0 < stats.calibrate() < 1.0


def test_calibrated_clock_times_calls_and_keeps_errors():
    clock = workloads._Calibrated()
    result, exc, seconds, cal = clock.call(sum, [1, 2])
    assert result == 3 and exc is None and seconds >= 0 and cal > 0
    result, exc, _, _ = clock.call(divmod, 1, 0)
    assert result is None and isinstance(exc, ZeroDivisionError)


def test_each_job_counts_with_its_fastest_pass():
    def rec(latency, cal):
        return {"latency_s": latency, "cal_s": cal, "ok": True,
                "mflops": 1.0}

    ref = stats.CAL_REF_S
    out = workloads.Outcome()
    out.add_passes([[rec(1.0, ref), rec(2.0, 2 * ref)],
                    [rec(0.5, 2 * ref), rec(3.0, ref)]])
    assert out.latencies == [0.5, 2.0]
    assert out.norm_latencies == pytest.approx([0.25, 1.0])
    assert len(out.jobs) == 4 and len(out.first) == 2 and out.passes == 2


# ---------------------------------------------------------------------------
# seeded draws and the golden table

def _take(stream, n):
    return [next(stream) for _ in range(n)]


def test_draws_repeat_per_seed_and_differ_across_seeds():
    assert _take(problems.l1_rounds(3), 5) == _take(problems.l1_rounds(3), 5)
    assert _take(problems.l1_rounds(3), 4) != _take(problems.l1_rounds(4), 4)
    assert _take(problems.l3_rounds(3), 5) == _take(problems.l3_rounds(3), 5)
    assert problems.serve_lists(3) == problems.serve_lists(3)
    assert problems.serve_lists(3) != problems.serve_lists(4)


def test_l1_rounds_are_latin_balanced():
    for seed in (0, 1, 7):
        epoch = _take(problems.l1_rounds(seed), 4)
        for rnd in epoch:
            assert sorted(j["kernel"] for j in rnd) == sorted(
                problems.L1_KERNELS)
            cells = collections.Counter((j["machine"], j["context"])
                                        for j in rnd)
            assert sorted(cells.values()) == [3, 3, 4, 4]
        keys = [problems.job_key(j) for rnd in epoch for j in rnd]
        assert sorted(keys) == sorted(problems.job_key(j)
                                      for j in problems.l1_universe())


def test_l3_rounds_mix_gemm_and_vector_nests():
    epoch = _take(problems.l3_rounds(5), 4)
    for rnd in epoch:
        assert sum(j["kernel"].endswith("gemm") for j in rnd) == 2
    seen = {(j["kernel"], j["machine"], j["context"])
            for rnd in epoch for j in rnd}
    assert len(seen) == 24
    assert sorted(problems.job_key(j) for rnd in epoch for j in rnd) == \
        sorted(problems.job_key(j) for j in problems.l3_universe())
    by_strategy = collections.Counter(
        (j["strategy"], j["kernel"].endswith("gemm"))
        for rnd in epoch for j in rnd)
    assert by_strategy == {("surrogate", True): 4, ("random", True): 4,
                           ("surrogate", False): 8, ("random", False): 8}


def test_serve_lists_are_disjoint_and_complete():
    a, b = problems.serve_lists(2)
    ka = {(j["kernel"], j["machine"], j["context"]) for j in a}
    kb = {(j["kernel"], j["machine"], j["context"]) for j in b}
    assert not ka & kb and len(ka | kb) == len(problems.L1_KERNELS)
    cells = collections.Counter((j["machine"], j["context"]) for j in a + b)
    assert sorted(cells.values()) == [3, 3, 4, 4]


def test_golden_covers_every_drawable_job():
    table = golden.load()
    for seed in (0, 1, problems.HELD_OUT_SEED):
        for rnd in _take(problems.l1_rounds(seed), 8):
            assert all(problems.job_key(j) in table for j in rnd)
        for rnd in _take(problems.l3_rounds(seed), 8):
            assert all(problems.job_key(j) in table for j in rnd)
        for reqs in problems.serve_lists(seed):
            for j in reqs:
                assert problems.job_key(j) in table
                assert problems.job_key(problems.next_seed(j)) in table


def test_golden_mismatch_reports_first_difference():
    entry = {"best_cycles": 10.0, "params": {"ur": 2}, "mflops": 5.0,
             "evaluations": 3, "history_digest": "abc"}
    assert golden.mismatch(entry, dict(entry)) is None
    assert "mflops" in golden.mismatch(entry, dict(entry, mflops=5.5))
    assert golden.mismatch(None, entry) == "no golden entry"


def test_golden_entry_reproduces_in_process():
    from repro import Context, TuneConfig, TuningSession, history_digest

    j = problems.l1_universe()[0]
    with TuningSession(TuneConfig(max_evals=j["budget"])) as session:
        tuned = session.tune(j["kernel"], j["machine"],
                             Context(j["context"]), j["n"])
    got = golden.outcome_of_tuned(tuned, history_digest(tuned.search))
    assert golden.mismatch(golden.load()[problems.job_key(j)], got) is None


def test_run_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "perfbench/run.py",
                           "--workload", "tune-l1-cold", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert time.perf_counter() - t0 < 60


def test_benchmark_json_declares_what_the_run_prints():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] \
        == list(layers.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == list(layers.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
