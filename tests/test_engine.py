"""Tests for the batch tuning engine (repro.search.engine).

Covers the engine's contract surface:

* parallel == serial, bit-identical, at both fan-out grains;
* the persistent evaluation cache (warm rerun = zero evaluations);
* checkpoint/resume of a batch;
* JSON round-trips of params / search results / tuned kernels;
* robustness: a SimulationFault is terminal at both grains, killed
  pool workers fall back to serial, a killed batch resumes;
* the deprecation shim over the old tune_kernel keyword signature;
* the JSONL trace and its summary.
"""

import dataclasses
import inspect
import json
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationFault
from repro.fko import FKO, TransformParams
from repro.kernels import KERNEL_ORDER, get_kernel
from repro.machine import Context
from repro.search import (EvalCache, SearchResult, TuneConfig, TunedKernel,
                          TuningJob, TuningSession, compile_default,
                          eval_key, evaluate_params, read_trace,
                          registry_jobs, render_trace_summary,
                          summarize_trace, tune_kernel)
from repro.timing.timer import Timer

N = 4000
EVALS = 40


def _config(**kw):
    kw.setdefault("run_tester", False)
    kw.setdefault("max_evals", EVALS)
    return TuneConfig(**kw)


@pytest.fixture(scope="module")
def serial_ddot():
    with TuningSession(_config()) as s:
        return s.tune("ddot", "p4e", Context.OUT_OF_CACHE, N)


# ---------------------------------------------------------------------------
# determinism: jobs=N must be bit-identical to jobs=1

class TestParallelEqualsSerial:
    def test_candidate_fanout_matches_serial(self, serial_ddot):
        with TuningSession(_config(jobs=4)) as s:
            par = s.tune("ddot", "p4e", Context.OUT_OF_CACHE, N)
        assert par.params.key() == serial_ddot.params.key()
        assert par.search.best_cycles == serial_ddot.search.best_cycles
        assert par.search.history == serial_ddot.search.history

    def test_job_fanout_matches_serial(self):
        jobs = [TuningJob(k, "p4e", Context.OUT_OF_CACHE, N, max_evals=EVALS)
                for k in ("ddot", "dasum")]
        with TuningSession(_config(jobs=1)) as s:
            serial = s.run(jobs)
        with TuningSession(_config(jobs=4)) as s:
            par = s.run(jobs)
        assert not serial.errors and not par.errors
        assert len(par) == len(serial) == 2
        for job in jobs:
            a, b = serial[job.key()], par[job.key()]
            assert a.params.key() == b.params.key()
            assert a.search.best_cycles == b.search.best_cycles
            assert a.timing.cycles == b.timing.cycles

    def test_job_fanout_keeps_the_whole_config(self):
        """Job workers search from the session's own ``start`` (and
        ``space``), not from FKO's defaults."""
        jobs = [TuningJob(k, "p4e", Context.OUT_OF_CACHE, N, max_evals=12)
                for k in ("ddot", "daxpy")]
        start = TransformParams(unroll=1)
        histories = {}
        for n_jobs in (1, 2):
            with TuningSession(_config(jobs=n_jobs, start=start)) as s:
                batch = s.run(jobs)
            assert not batch.errors
            histories[n_jobs] = {k: tk.search.history
                                 for k, tk in batch.results.items()}
        assert histories[1] == histories[2]
        for history in histories[1].values():
            assert history[0][1] == start.key()


# ---------------------------------------------------------------------------
# persistent evaluation cache

class TestEvalCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = EvalCache(str(tmp_path))
        cache.put("ab" * 32, 123.5, meta={"kernel": "ddot"})
        assert cache.get("ab" * 32) == 123.5
        assert len(cache) == 1
        assert EvalCache(str(tmp_path)).get("ab" * 32) == 123.5

    def test_absent_is_miss(self, tmp_path):
        cache = EvalCache(str(tmp_path))
        assert cache.get("cd" * 32) is None
        assert len(cache) == 0

    def test_corrupt_entry_is_miss(self, tmp_path):
        cache = EvalCache(str(tmp_path))
        cache.put("ef" * 32, 7.0)
        for f in tmp_path.rglob("*.json"):
            f.write_text("{not json")
        assert EvalCache(str(tmp_path)).get("ef" * 32) is None

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_nonfinite_entry_is_miss(self, tmp_path, bad):
        # a NaN/inf cycle count from disk used to be served as a hit,
        # poisoning every search that touched the entry
        cache = EvalCache(str(tmp_path))
        cache.put("ab" * 32, 7.0)
        for f in tmp_path.rglob("*.json"):
            f.write_text('{"cycles": %s}' % bad)
        fresh = EvalCache(str(tmp_path))
        assert fresh.get("ab" * 32) is None
        assert len(fresh) == 1 and fresh.get("ab" * 32) is None

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_nonfinite_put_refused(self, tmp_path, bad):
        cache = EvalCache(str(tmp_path))
        cache.put("cd" * 32, bad)
        assert len(cache) == 0 and not any(tmp_path.iterdir())
        assert cache.get("cd" * 32) is None

    def test_eval_key_sensitivity(self):
        base = eval_key("hil", "p4e", Context.OUT_OF_CACHE, N, "k", "1.1.0")
        assert base == eval_key("hil", "p4e", Context.OUT_OF_CACHE, N,
                                "k", "1.1.0")
        assert base != eval_key("hil2", "p4e", Context.OUT_OF_CACHE, N,
                                "k", "1.1.0")
        assert base != eval_key("hil", "opteron", Context.OUT_OF_CACHE, N,
                                "k", "1.1.0")
        assert base != eval_key("hil", "p4e", Context.IN_L2, N, "k", "1.1.0")
        assert base != eval_key("hil", "p4e", Context.OUT_OF_CACHE, N + 1,
                                "k", "1.1.0")
        assert base != eval_key("hil", "p4e", Context.OUT_OF_CACHE, N,
                                "k2", "1.1.0")
        assert base != eval_key("hil", "p4e", Context.OUT_OF_CACHE, N,
                                "k", "9.9.9")

    def test_warm_rerun_is_all_cache_hits(self, tmp_path, serial_ddot):
        cache_dir = str(tmp_path / "evals")
        with TuningSession(_config(cache_dir=cache_dir)) as s:
            cold = s.tune("ddot", "p4e", Context.OUT_OF_CACHE, N)
            n_cold = s.stats.evaluations
        assert n_cold > 0
        with TuningSession(_config(cache_dir=cache_dir)) as s:
            warm = s.tune("ddot", "p4e", Context.OUT_OF_CACHE, N)
            assert s.stats.evaluations == 0
            assert s.stats.cache_hits == n_cold
        # cached cycles are real measurements: same best as uncached runs
        assert warm.params.key() == cold.params.key()
        assert warm.params.key() == serial_ddot.params.key()
        assert warm.search.best_cycles == serial_ddot.search.best_cycles


# ---------------------------------------------------------------------------
# checkpoint / resume

class TestCheckpointResume:
    def test_resume_skips_completed_jobs(self, tmp_path):
        state = str(tmp_path / "batch.json")
        j1 = TuningJob("ddot", "p4e", Context.OUT_OF_CACHE, N,
                       max_evals=EVALS)
        j2 = TuningJob("dasum", "p4e", Context.OUT_OF_CACHE, N,
                       max_evals=EVALS)
        with TuningSession(_config(resume=state)) as s:
            first = s.run([j1])
        assert not first.resumed and j1.key() in first.results
        saved = json.loads((tmp_path / "batch.json").read_text())
        assert j1.key() in saved["completed"]

        with TuningSession(_config(resume=state)) as s:
            second = s.run([j1, j2])
            assert s.stats.jobs_resumed == 1
        assert second.resumed == [j1.key()]
        assert len(second) == 2
        assert (second[j1.key()].params.key()
                == first[j1.key()].params.key())

    def test_stale_version_checkpoint_is_ignored(self, tmp_path):
        state = tmp_path / "batch.json"
        job = TuningJob("ddot", "p4e", Context.OUT_OF_CACHE, N,
                        max_evals=EVALS)
        state.write_text(json.dumps(
            {"version": "0.0.0", "completed": {job.key(): {"bogus": 1}}}))
        with TuningSession(_config(resume=str(state))) as s:
            batch = s.run([job])
        assert not batch.resumed
        assert job.key() in batch.results

    @pytest.mark.parametrize("content", [
        b"{truncated",
        b"[]",
        b'"x"',
        b"\xff\xfe{not utf-8",
        b'{"version": "@V", "completed": []}',
        b'{"version": "@V", "completed": {"@K": []}}',
    ], ids=["truncated", "list", "string", "non-utf8", "completed-list",
            "entry-list"])
    def test_corrupt_checkpoint_is_ignored(self, tmp_path, content):
        from repro import __version__
        state = tmp_path / "batch.json"
        job = TuningJob("ddot", "p4e", Context.OUT_OF_CACHE, N,
                        max_evals=EVALS)
        state.write_bytes(content.replace(b"@V", __version__.encode())
                          .replace(b"@K", job.key().encode()))
        with TuningSession(_config(resume=str(state))) as s:
            batch = s.run([job])
        assert job.key() in batch.results
        assert not batch.resumed


# ---------------------------------------------------------------------------
# robustness: fault handling around one evaluation

class _FlakyFKO:
    """Delegates to a real FKO after raising N SimulationFaults."""

    def __init__(self, machine, failures):
        self.real = FKO(machine)
        self.failures = failures

    def compile(self, hil, params=None, debug_verify=False):
        if self.failures > 0:
            self.failures -= 1
            raise SimulationFault("injected")
        return self.real.compile(hil, params, debug_verify=debug_verify)


class TestRobustness:
    def test_fault_is_terminal_not_retried(self, p4e, ddot_spec):
        """The simulator is deterministic: one fault means every retry
        would fault identically, so the status is ``fault`` immediately
        and the candidate is compiled exactly once."""
        fko = _FlakyFKO(p4e, failures=1)
        timer = Timer(p4e, Context.OUT_OF_CACHE, N)
        cycles, status, _ = evaluate_params(
            fko, timer, ddot_spec.hil, TransformParams(),
            ddot_spec.flops(N), "ddot|")
        assert cycles == float("inf")
        assert status.startswith("fault:")
        assert fko.failures == 0   # a retry would have consumed the real FKO

    def test_ok_eval_reports_fast_path(self, p4e, ddot_spec):
        fko = FKO(p4e)
        timer = Timer(p4e, Context.OUT_OF_CACHE, 80000)
        cycles, status, meta = evaluate_params(
            fko, timer, ddot_spec.hil, TransformParams(sv=True, unroll=8),
            ddot_spec.flops(80000), "ddot|")
        assert status == "ok" and cycles != float("inf")
        assert meta["path"] == "replay"

    def test_failed_eval_has_no_path(self, p4e, ddot_spec):
        fko = _FlakyFKO(p4e, failures=1)
        timer = Timer(p4e, Context.OUT_OF_CACHE, N)
        _, status, meta = evaluate_params(
            fko, timer, ddot_spec.hil, TransformParams(),
            ddot_spec.flops(N), "ddot|")
        assert status.startswith("fault:") and meta["path"] is None

    def test_no_wall_clock_surface(self):
        """Nothing that depends on the host's speed may decide an
        outcome: no per-evaluation timeout in the config, and none in
        the evaluation's signature."""
        assert "timeout" not in {f.name for f in
                                 dataclasses.fields(TuneConfig)}
        assert "timeout" not in inspect.signature(evaluate_params).parameters
        with pytest.raises(TypeError):
            TuneConfig(timeout=1.0)

    def test_problem_size_is_bounded(self, p4e):
        """N is the one input that scales an evaluation; the timer
        refuses an oversize problem before any work."""
        from repro.timing import MAX_N
        Timer(p4e, Context.OUT_OF_CACHE, MAX_N)
        for n in (MAX_N + 1, 0, -5):   # -5 used to time as -1271 MFLOPS
            with pytest.raises(ValueError, match="n must be in"):
                Timer(p4e, Context.OUT_OF_CACHE, n)
        with TuningSession(_config()) as s, \
                pytest.raises(ValueError, match="n must be in"):
            s.tune("ddot", "p4e", Context.OUT_OF_CACHE, MAX_N + 1)


# ---------------------------------------------------------------------------
# fault injection at the pool and batch grains.  The patches are made in
# the parent before the pool forks, so workers inherit them; each one
# acts only in a worker process (the serial fallback in the parent runs
# the real code).

_fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers must inherit the parent's patches (fork start)")


def _history_digest(tuned):
    from repro.service import history_digest
    return history_digest(tuned.search)


def _events(path, name):
    return [e for e in read_trace(str(path)) if e["event"] == name]


@_fork_only
class TestFaultInjection:
    def test_worker_killed_mid_sweep_falls_back_to_serial(
            self, monkeypatch, tmp_path, serial_ddot):
        from repro.search import engine
        parent, real = os.getpid(), engine.evaluate_params
        calls = [0]   # per process: each forked worker counts its own

        def dies_on_second_eval(*args, **kw):
            if os.getpid() != parent:
                calls[0] += 1
                if calls[0] == 2:
                    os._exit(1)
            return real(*args, **kw)

        monkeypatch.setattr(engine, "evaluate_params", dies_on_second_eval)
        trace = tmp_path / "t.jsonl"
        with TuningSession(_config(jobs=2, trace=str(trace))) as s:
            got = s.tune("ddot", "p4e", Context.OUT_OF_CACHE, N)
        assert len(_events(trace, "pool-broken")) == 1
        assert s.scheduler.broken and s.stats.faults == 0
        assert got.params.key() == serial_ddot.params.key()
        assert got.search.best_cycles == serial_ddot.search.best_cycles
        assert _history_digest(got) == _history_digest(serial_ddot)

    def test_worker_killed_mid_batch_reruns_leftovers(self, monkeypatch,
                                                      tmp_path):
        jobs = [TuningJob(k, "p4e", Context.OUT_OF_CACHE, N, max_evals=20)
                for k in ("ddot", "dasum", "dscal")]
        with TuningSession(_config()) as s:
            serial = s.run(jobs)
        parent, real = os.getpid(), TuningSession.tune

        def dies_on_dasum(self, spec, *args, **kw):
            if os.getpid() != parent and spec == "dasum":
                os._exit(1)
            return real(self, spec, *args, **kw)

        monkeypatch.setattr(TuningSession, "tune", dies_on_dasum)
        trace = tmp_path / "t.jsonl"
        with TuningSession(_config(jobs=2, trace=str(trace))) as s:
            par = s.run(jobs)
        assert len(_events(trace, "pool-broken")) == 1
        assert not par.errors and not serial.errors
        assert par.results.keys() == serial.results.keys()
        for key, want in serial.results.items():
            got = par[key]
            assert got.params.key() == want.params.key()
            assert got.search.best_cycles == want.search.best_cycles
            assert got.timing.cycles == want.timing.cycles
            assert _history_digest(got) == _history_digest(want)

    def test_job_fault_is_recorded_once_not_rerun(self, monkeypatch,
                                                  tmp_path):
        """A SimulationFault at the job grain (here: the tester on the
        winner) is deterministic, so it is an error of the batch, not a
        reason to tune the whole job again in the parent."""
        from repro.search import engine
        real = engine.test_kernel

        def faults_on_dasum(compiled, spec):
            if spec.name == "dasum":
                raise SimulationFault("injected tester fault")
            return real(compiled, spec)

        monkeypatch.setattr(engine, "test_kernel", faults_on_dasum)
        jobs = [TuningJob(k, "p4e", Context.OUT_OF_CACHE, N, max_evals=12)
                for k in ("ddot", "dasum")]
        batches = {}
        for n_jobs in (1, 2):
            trace = tmp_path / f"t{n_jobs}.jsonl"
            with TuningSession(_config(jobs=n_jobs, run_tester=True,
                                       trace=str(trace))) as s:
                batches[n_jobs] = s.run(jobs)
            key = jobs[1].key()
            starts = [e for e in _events(trace, "job-start")
                      if e["job"] == key]
            assert len(starts) == 1, n_jobs
            assert len(_events(trace, "job-error")) == 1
        assert batches[1].errors == batches[2].errors
        assert list(batches[2].errors) == [jobs[1].key()]
        assert "SimulationFault" in batches[2].errors[jobs[1].key()]
        assert list(batches[2].results) == [jobs[0].key()]


# ---------------------------------------------------------------------------
# a batch killed by SIGTERM resumes from its checkpoint

class TestKilledBatchResumes:
    ARGS = ("tune-all", "--kernels", "ddot,dasum,dscal,daxpy,dcopy,sdot",
            "--n", "4000", "--max-evals", "20")

    def _cli(self, *extra):
        env = dict(os.environ)
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return [sys.executable, "-m", "repro", *self.ARGS, *extra], env

    @staticmethod
    def _completed(path):
        try:
            with open(path) as f:
                return json.load(f)["completed"]
        except (OSError, ValueError, KeyError):
            return {}

    def test_sigterm_then_resume_matches_uninterrupted(self, tmp_path):
        clean_ck, ck = tmp_path / "clean.json", tmp_path / "ck.json"
        cmd, env = self._cli("--resume", str(clean_ck))
        subprocess.run(cmd, env=env, check=True, capture_output=True,
                       timeout=300)
        clean = self._completed(clean_ck)
        assert len(clean) == 6

        cmd, env = self._cli("--resume", str(ck))
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 300
            while not self._completed(ck) and proc.poll() is None \
                    and time.monotonic() < deadline:
                time.sleep(0.005)
            assert proc.poll() is None, "batch finished before the kill"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == -signal.SIGTERM
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        interrupted = self._completed(ck)
        assert 1 <= len(interrupted) < 6

        out = subprocess.run(cmd, env=env, check=True, capture_output=True,
                             text=True, timeout=300).stdout
        resumed = int(out.split("jobs (")[1].split(" resumed")[0])
        assert resumed == len(interrupted) >= 1
        assert self._completed(ck) == clean


# ---------------------------------------------------------------------------
# JSON round-trips

_params_st = st.builds(
    TransformParams,
    sv=st.booleans(),
    unroll=st.sampled_from([1, 2, 4, 8, 16]),
    lc=st.booleans(),
    ae=st.sampled_from([1, 2, 4]),
    wnt=st.booleans(),
)


class TestRoundTrips:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(p=_params_st)
    def test_params_roundtrip_preserves_key(self, p):
        again = TransformParams.from_dict(json.loads(
            json.dumps(p.to_dict())))
        assert again.key() == p.key()

    def test_params_roundtrip_keeps_prefetch(self):
        from repro.ir import PrefetchHint
        p = TransformParams(sv=True, unroll=8).with_pf(
            "X", PrefetchHint.NTA, 512)
        again = TransformParams.from_dict(p.to_dict())
        assert again.key() == p.key()
        assert again.describe() == p.describe()

    def test_search_result_roundtrip(self, serial_ddot):
        sr = serial_ddot.search
        again = SearchResult.from_dict(json.loads(json.dumps(sr.to_dict())))
        assert again.best_params.key() == sr.best_params.key()
        assert again.best_cycles == sr.best_cycles
        assert again.n_evaluations == sr.n_evaluations
        assert again.history == sr.history
        assert again.phase_gains == sr.phase_gains
        assert again.start_cycles == sr.start_cycles

    def test_tuned_kernel_roundtrip(self, serial_ddot):
        again = TunedKernel.from_dict(json.loads(
            json.dumps(serial_ddot.to_dict())))
        assert again.params.key() == serial_ddot.params.key()
        assert again.mflops == serial_ddot.mflops
        assert again.timing.cycles == serial_ddot.timing.cycles
        assert again.context is serial_ddot.context
        assert again.n == serial_ddot.n
        assert again.compiled.fn is not None   # recompiled, not serialized
        assert (again.search.best_cycles
                == serial_ddot.search.best_cycles)

    def test_compile_default_roundtrip_keeps_search_none(self, p4e,
                                                         ddot_spec):
        tk = compile_default(ddot_spec, p4e, Context.OUT_OF_CACHE, N)
        assert tk.search is None and tk.mflops > 0
        again = TunedKernel.from_dict(tk.to_dict())
        assert again.search is None
        assert again.timing.cycles == tk.timing.cycles


# ---------------------------------------------------------------------------
# config=TuneConfig(...) is the only spelling (the pre-engine keyword
# shim finished its deprecation window and was removed)

class TestConfigOnlySignature:
    def test_legacy_kwargs_are_gone(self, p4e, ddot_spec):
        with pytest.raises(TypeError):
            tune_kernel(ddot_spec, p4e, Context.OUT_OF_CACHE, N,
                        max_evals=EVALS, run_tester=False)

    def test_unknown_kwarg_raises(self, p4e, ddot_spec):
        with pytest.raises(TypeError):
            tune_kernel(ddot_spec, p4e, Context.OUT_OF_CACHE, N, bogus=1)

    def test_config_object_is_the_front_door(self, p4e, ddot_spec,
                                             serial_ddot):
        tk = tune_kernel(ddot_spec, p4e, Context.OUT_OF_CACHE, N,
                         config=_config())
        assert tk.params.key() == serial_ddot.params.key()


# ---------------------------------------------------------------------------
# jobs and batch plumbing

class TestTuningJob:
    def test_normalizes_objects_to_names(self, p4e, ddot_spec):
        job = TuningJob(ddot_spec, p4e, Context.OUT_OF_CACHE, N)
        assert job.kernel == "ddot" and job.machine == "p4e"
        assert job.key() == f"ddot:p4e:out-of-cache:{N}"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError):
            TuningJob("zgemm", "p4e", Context.OUT_OF_CACHE, N)

    def test_dict_roundtrip(self):
        job = TuningJob("ddot", "opteron", Context.IN_L2, 1024,
                        max_evals=99)
        again = TuningJob.from_dict(job.to_dict())
        assert again == job

    def test_registry_jobs_cover_registry(self):
        jobs = registry_jobs()
        assert [j.kernel for j in jobs] == list(KERNEL_ORDER)
        both = registry_jobs(kernels=["ddot"],
                             machines=["p4e", "opteron"],
                             contexts=[Context.OUT_OF_CACHE, Context.IN_L2])
        assert len(both) == 4
        assert len({j.key() for j in both}) == 4


# ---------------------------------------------------------------------------
# tracing

class TestTimingPaths:
    """Each ok evaluation is labelled with the timing path that
    actually produced its cycles, end to end."""

    def _eval(self, fko, timer, kernel, params):
        spec = get_kernel(kernel)
        cycles, status, meta = evaluate_params(
            fko, timer, spec.hil, params, spec.flops(timer.n), "t|")
        assert status == "ok" and cycles != float("inf")
        return meta["path"]

    def test_each_path_is_named(self, p4e):
        fko = FKO(p4e)
        small = Timer(p4e, Context.OUT_OF_CACHE, 64)
        large = Timer(p4e, Context.OUT_OF_CACHE, 80000)
        params = TransformParams(sv=True, unroll=8)
        assert self._eval(fko, small, "ddot", params) == "walk"
        assert self._eval(fko, large, "ddot", params) == "replay"
        assert self._eval(fko, large, "ddot", params) == "memo"
        assert self._eval(fko, Timer(p4e, Context.OUT_OF_CACHE, 64),
                          "dgemm", TransformParams()) == "nest"

    def test_nest_job_counts_nest_everywhere(self, tmp_path):
        out = tmp_path / "run.jsonl"
        with TuningSession(_config(trace=str(out), max_evals=6)) as s:
            s.tune("dgemm", "p4e", Context.OUT_OF_CACHE, 64)
            stats = s.stats
        assert stats.evaluations > 0
        assert stats.path_nest == stats.evaluations
        assert stats.path_walk == stats.path_replay == 0
        events = read_trace(str(out))
        assert {e["path"] for e in events if e["event"] == "eval"} \
            == {"nest"}
        summary = summarize_trace(events)
        assert summary["paths"]["nest"] == stats.evaluations
        assert (f"nest {stats.evaluations}/memo 0"
                in render_trace_summary(summary))

    def test_pre_path_trace_still_summarizes(self):
        events = [{"event": "eval", "status": "ok", "fast": True},
                  {"event": "eval", "status": "ok", "fast": False},
                  {"event": "eval", "status": "fault: x", "fast": False},
                  {"event": "eval", "status": "ok", "path": "memo"}]
        summary = summarize_trace(events)
        assert summary["paths"] == {"walk": 0, "replay": 1, "nest": 0,
                                    "memo": 1, "unlabelled": 1}
        assert "memo 1/unlabelled 1" in render_trace_summary(summary)


class TestTrace:
    def test_trace_records_search_and_summarizes(self, tmp_path):
        out = tmp_path / "run.jsonl"
        with TuningSession(_config(trace=str(out))) as s:
            tk = s.tune("ddot", "p4e", Context.OUT_OF_CACHE, N)
            n_evals = s.stats.evaluations
        events = read_trace(str(out))
        kinds = {e["event"] for e in events}
        assert {"job-start", "eval", "job-end"} <= kinds
        summary = summarize_trace(events)
        assert summary["evaluations"] == n_evals
        assert summary["cache_hits"] == 0
        job = next(iter(summary["jobs"].values()))
        assert job["evaluations"] == n_evals
        assert job["best_cycles"] == tk.search.best_cycles
        text = render_trace_summary(summary)
        assert "# trace:" in text and "evaluations by phase" in text

    def test_read_trace_skips_malformed_lines(self, tmp_path):
        f = tmp_path / "t.jsonl"
        f.write_text('{"event": "eval", "wall": 0.1}\n'
                     "NOT JSON\n"
                     '{"event": "cache-hit"}\n')
        events = read_trace(str(f))
        assert len(events) == 2
        summary = summarize_trace(events)
        assert summary["evaluations"] == 1
        assert summary["cache_hits"] == 1

    def test_nonfinite_cycles_serialize_as_null(self, tmp_path):
        from repro.search import TraceWriter
        out = tmp_path / "t.jsonl"
        w = TraceWriter(str(out))
        w.emit("eval", cycles=float("inf"), wall=0.0, status="timeout")
        w.close()
        ev = read_trace(str(out))[0]
        assert ev["cycles"] is None
