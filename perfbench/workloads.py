"""The three workloads, run through the program's public surfaces.

* ``tune-l1-cold`` and ``tune-l3-pool`` call :class:`TuningSession`
  in this process, one fresh session per round of jobs;
* ``serve-repeat`` boots ``python -m repro serve`` as its own process
  and drives it with :class:`ServeClient` from two closed-loop client
  threads.

A run repeats the same work in passes; every job execution is timed,
calibrated (:func:`stats.calibrate` just before and just after it) and
checked against the golden file.  Each workload returns an
:class:`Outcome`.  A traced run (``trace=True``) alternates untraced
passes with passes under the span wrappers of :mod:`spans`, and keeps
the first traced pass's spans for the per-layer metrics (:mod:`layers`).
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import pathlib
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import golden
import problems
import spans
from stats import calibrate, normalized, vm_hwm_kb

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("tune-l1-cold", "tune-l3-pool", "serve-repeat")
#: set-up is measured this many times per run; the median is reported
SETUP_REPEATS = 5
#: distinct rounds of jobs per pass: one epoch, which covers every
#: problem of the workload's universe once
ROUNDS = {"tune-l1-cold": 4, "tune-l3-pool": 4}
#: every job runs at least this many times; its fastest pass counts
#: (the paper's own protocol: repeat, take the minimum).  serve-repeat
#: takes a third pass: its two clients drift in and out of step, so a
#: request's queue wait varies from pass to pass
MIN_PASSES = {"tune-l1-cold": 2, "tune-l3-pool": 2, "serve-repeat": 3}
#: untraced passes a traced run makes at least (plus one traced pass)
TRACE_MIN_PLAIN = 2
#: worker processes of the tune-l3-pool session
L3_JOBS = 2
#: closed-loop client threads of serve-repeat
SERVE_CLIENTS = 2


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


@dataclass
class Outcome:
    """Everything one workload run measured."""

    #: jobs in flight at once: 1 in process, the client count for serve
    concurrency: int = 1
    #: every execution's job record (each is golden-checked)
    jobs: List[Dict] = field(default_factory=list)
    #: per distinct job, its first execution's record
    first: List[Dict] = field(default_factory=list)
    #: per distinct job, its fastest latency over the passes: measured
    #: and host-normalized (:func:`stats.normalized`)
    latencies: List[float] = field(default_factory=list)
    norm_latencies: List[float] = field(default_factory=list)
    #: set-up times, measured and host-normalized
    setup_s: List[float] = field(default_factory=list)
    setup_norm: List[float] = field(default_factory=list)
    passes: int = 0
    #: the program's counters over one pass (EngineStats, /v1/stats)
    counters: Dict[str, float] = field(default_factory=dict)
    #: extra peak-RSS readings (kB) of processes not waited for by us
    hwm_kb: List[int] = field(default_factory=list)
    #: fastest untraced and traced pass, as the sum of host-normalized
    #: job latencies (traced runs)
    untraced_wall: float = 0.0
    traced_wall: float = 0.0
    #: span dumps, trace events and service timings of one traced pass
    dumps: List[Dict] = field(default_factory=list)
    events: List[Dict] = field(default_factory=list)
    service: Dict[str, List[float]] = field(default_factory=dict)

    def add_passes(self, passes: List[List[Dict]]) -> None:
        """Fold ``passes`` (each the job records of one pass over the
        same jobs, in the same order) into per-job fastest latencies."""
        for records in passes:
            self.jobs.extend(records)
        self.first.extend(passes[0])
        for execs in zip(*passes):
            self.latencies.append(min(r["latency_s"] for r in execs))
            self.norm_latencies.append(min(_norm(r) for r in execs))
        self.passes = len(passes)

    def add_setup(self, seconds: float, cal_s: float) -> None:
        self.setup_s.append(seconds)
        self.setup_norm.append(normalized(seconds, cal_s))


def _norm(record: Dict) -> float:
    return normalized(record["latency_s"], record["cal_s"])


def pass_norm_wall(records: List[Dict]) -> float:
    return sum(_norm(r) for r in records)


def _record(j: Dict, latency: float, cal_s: float, got: Optional[Dict],
            error: Optional[str], table: Dict, **extra) -> Dict:
    key = problems.job_key(j)
    if error is None:
        error = golden.mismatch(table.get(key), got)
    return {"key": key, "latency_s": latency, "cal_s": cal_s,
            "ok": error is None, "error": error,
            "mflops": (got or {}).get("mflops"),
            "best_cycles": (got or {}).get("best_cycles"), **extra}


class _Calibrated:
    """Times one call at a time and probes the host speed around each:
    the probe after one call is the probe before the next.  ``lock``
    keeps probes of concurrent clients from overlapping."""

    def __init__(self, lock: Optional[threading.Lock] = None):
        self._lock = lock
        self._before = self._probe()

    def _probe(self) -> float:
        if self._lock is None:
            return calibrate()
        with self._lock:
            return calibrate()

    def call(self, fn, *args):
        """``(result, exception, seconds, calibration)`` of ``fn(*args)``."""
        result = exc = None
        t = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as err:   # noqa: BLE001 — a failed job
            exc = err
        seconds = time.perf_counter() - t
        after = self._probe()
        cal, self._before = (self._before + after) / 2, after
        return result, exc, seconds, cal


def read_events(path: pathlib.Path) -> List[Dict]:
    if not path.exists():
        return []
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# set-up probes

def probe_setup(workload: str, work: pathlib.Path, out: Outcome) -> None:
    """Time a fresh interpreter from spawn until it has imported
    ``repro`` and built the workload's session (``setup_probe.py``
    prints ``ready`` then)."""
    def spawn():
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(work)], stdout=subprocess.PIPE, env=child_env(), text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}): "
                               f"{line!r}")
        return ready

    clock = _Calibrated()
    t0 = time.perf_counter()
    ready, exc, _, cal = clock.call(spawn)
    if exc is not None:
        raise exc
    out.add_setup(ready - t0, cal)


# ---------------------------------------------------------------------------
# in-process workloads

def run_round(workload: str, jobs: List[Dict], work: pathlib.Path,
              table: Dict, trace: Optional[str] = None) -> Dict:
    """One fresh session over ``jobs``; returns the job records and the
    session's counters."""
    from repro import Context, TuneConfig, TuningSession, history_digest

    cache = (tempfile.mkdtemp(prefix="evalcache-", dir=work)
             if workload == "tune-l1-cold" else None)
    base = TuneConfig(jobs=L3_JOBS if workload == "tune-l3-pool" else 1,
                      cache_dir=cache, trace=trace)
    records = []
    session = TuningSession(base)
    try:
        clock = _Calibrated()
        for j in jobs:
            session.config = base.replace(strategy=j["strategy"],
                                          seed=j["seed"],
                                          max_evals=j["budget"])
            tuned, exc, latency, cal = clock.call(
                session.tune, j["kernel"], j["machine"],
                Context(j["context"]), j["n"])
            if exc is not None:
                records.append(_record(j, latency, cal, None,
                                       f"{type(exc).__name__}: {exc}",
                                       table))
                continue
            got = golden.outcome_of_tuned(tuned,
                                          history_digest(tuned.search))
            records.append(_record(j, latency, cal, got, None, table))
    finally:
        session.scheduler.shutdown(wait=True)
        session.close()
    if cache is not None:
        shutil.rmtree(cache, ignore_errors=True)
    return {"jobs": records, "stats": session.stats.to_dict()}


def _pass(workload: str, chosen: List[List[Dict]], work: pathlib.Path,
          table: Dict, trace_dir: Optional[pathlib.Path] = None) -> Dict:
    """One pass over the chosen rounds; with ``trace_dir`` the
    program's trace events are written there and read back."""
    records, stats, events = [], {}, []
    for i, jobs in enumerate(chosen):
        trace = trace_dir / f"events-{i}.jsonl" if trace_dir else None
        rnd = run_round(workload, jobs, work, table,
                        trace=str(trace) if trace else None)
        records.extend(rnd["jobs"])
        for k, v in rnd["stats"].items():
            stats[k] = stats.get(k, 0) + v
        if trace:
            events.extend(read_events(trace))
    return {"jobs": records, "stats": stats, "events": events}


def _traced_pass(workload: str, chosen: List[List[Dict]],
                 work: pathlib.Path, table: Dict, keep: bool) -> Dict:
    """One pass with the span wrappers installed; with ``keep`` the
    spans of this process and of its pool workers are returned."""
    dump_dir = pathlib.Path(tempfile.mkdtemp(prefix="spans-", dir=work))
    rec = spans.SpanRecorder(str(dump_dir) if keep else None)
    inst = spans.install(rec)
    try:
        res = _pass(workload, chosen, work, table, trace_dir=dump_dir)
    finally:
        inst.uninstall()
    res["dumps"] = []
    if keep:
        rec.dump()
        res["dumps"] = spans.load_dumps(str(dump_dir))
        for dump in res["dumps"]:
            dump["parent"] = dump["pid"] == rec.pid
    return res


def run_inprocess(workload: str, seed: int, seconds: float,
                  work: pathlib.Path, table: Dict, traced: bool,
                  rounds: Optional[int]) -> Outcome:
    """Run the same distinct rounds pass after pass until ``seconds``
    have passed (at least :data:`MIN_PASSES` passes)."""
    out = Outcome()
    stream = (problems.l1_rounds(seed) if workload == "tune-l1-cold"
              else problems.l3_rounds(seed))
    chosen = [next(stream) for _ in range(rounds or ROUNDS[workload])]
    if not traced:
        for _ in range(SETUP_REPEATS):
            probe_setup(workload, work, out)
        deadline = time.perf_counter() + seconds
        passes = []
        while (len(passes) < MIN_PASSES[workload]
               or time.perf_counter() < deadline):
            passes.append(_pass(workload, chosen, work, table))
        out.add_passes([p["jobs"] for p in passes])
        out.counters = passes[0]["stats"]
        return out

    plain, traced_walls, checked = [], [], []
    deadline = time.perf_counter() + seconds
    while (len(plain) < TRACE_MIN_PLAIN or not traced_walls
           or time.perf_counter() < deadline):
        if len(plain) <= len(traced_walls):
            res = _pass(workload, chosen, work, table)
            plain.append(pass_norm_wall(res["jobs"]))
        else:
            res = _traced_pass(workload, chosen, work, table,
                               keep=not traced_walls)
            traced_walls.append(pass_norm_wall(res["jobs"]))
            if res["dumps"]:
                out.dumps, out.events = res["dumps"], res["events"]
                out.counters = res["stats"]
                out.add_passes([res["jobs"]])
                continue
        checked.extend(res["jobs"])
    out.jobs.extend(checked)
    out.untraced_wall = min(plain)
    out.traced_wall = min(traced_walls)
    return out


# ---------------------------------------------------------------------------
# serve-repeat

class Daemon:
    """One ``repro serve`` process on a free port, with a fresh eval
    cache and result store; ``setup_s`` is spawn-to-first-healthz."""

    def __init__(self, work: pathlib.Path, dump_dir: Optional[str] = None,
                 trace_out: Optional[str] = None):
        args = ["serve", "--port", "0",
                "--cache-dir", tempfile.mkdtemp(prefix="cache-", dir=work),
                "--results-dir",
                tempfile.mkdtemp(prefix="results-", dir=work)]
        if trace_out:
            args += ["--trace-out", trace_out]
        if dump_dir is None:
            cmd = [sys.executable, "-m", "repro"] + args
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"),
                   dump_dir] + args
        self._log = open(work / "daemon.log", "a")
        self._cmd = cmd
        self.proc: Optional[subprocess.Popen] = None
        clock = _Calibrated()
        try:
            _, exc, self.setup_s, self.setup_cal = clock.call(self._boot)
            if exc is not None:
                raise exc
        except BaseException:
            self.stop()
            raise

    def _boot(self) -> None:
        from repro import ServeClient, ServiceError

        t0 = time.perf_counter()
        self.proc = subprocess.Popen(self._cmd, stdout=subprocess.PIPE,
                                     stderr=self._log, env=child_env(),
                                     text=True)
        line = self.proc.stdout.readline()
        match = re.search(r"http://\S+", line)
        if match is None:
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.url = match.group(0)
        client = ServeClient(self.url, timeout=5.0)
        while True:
            try:
                client.healthz()
                return
            except ServiceError:
                if time.perf_counter() - t0 > 60:
                    raise
                time.sleep(0.002)

    def stop(self) -> int:
        """SIGINT (the daemon's clean shutdown), wait, and return the
        daemon's peak RSS in kB as read just before it exited."""
        hwm = 0
        if self.proc is not None:
            hwm = vm_hwm_kb(self.proc.pid)
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            self.proc.stdout.close()
        self._log.close()
        return hwm


def _client_loop(url: str, reqs: List[Dict], table: Dict,
                 cal_lock: threading.Lock) -> List[Dict]:
    """One closed-loop client: three passes over its problems — fresh,
    the next seed, and an exact repeat of the fresh request."""
    from repro import ServeClient, TuneRequest

    client = ServeClient(url, timeout=120.0)
    clock = _Calibrated(cal_lock)
    records = []
    for pass_no, variant in ((1, dict), (2, problems.next_seed), (3, dict)):
        for j in reqs:
            j = variant(j)
            request = TuneRequest(kernel=j["kernel"], machine=j["machine"],
                                  context=j["context"], n=j["n"],
                                  strategy=j["strategy"], seed=j["seed"],
                                  budget=j["budget"])
            resp, exc, latency, cal = clock.call(client.tune, request)
            if exc is not None:
                records.append(_record(j, latency, cal, None,
                                       f"{type(exc).__name__}: {exc}",
                                       table, pass_no=pass_no))
                continue
            records.append(_record(j, latency, cal,
                                   golden.outcome_of_response(resp), None,
                                   table, pass_no=pass_no,
                                   job_id=resp.job_id,
                                   served_from=resp.served_from))
    return records


def _serve_pass(lists: List[List[Dict]], work: pathlib.Path, table: Dict,
                traced: bool = False) -> Dict:
    """Boot a fresh daemon, run every client concurrently, read the
    daemon's job timings and counters, stop it."""
    from repro import ServeClient

    dump_dir = events = None
    if traced:
        dump_dir = tempfile.mkdtemp(prefix="spans-", dir=work)
        events = pathlib.Path(dump_dir) / "events.jsonl"
    daemon = Daemon(work, dump_dir=dump_dir,
                    trace_out=str(events) if events else None)
    try:
        cal_lock = threading.Lock()
        with concurrent.futures.ThreadPoolExecutor(len(lists)) as pool:
            futures = [pool.submit(_client_loop, daemon.url, reqs, table,
                                   cal_lock) for reqs in lists]
            records = [r for f in futures for r in f.result()]

        client = ServeClient(daemon.url, timeout=30.0)
        timings: Dict[str, List[float]] = {"queue_wait": [], "run": [],
                                           "transport": []}
        for r in records:
            if r.get("served_from") is not None or not r.get("job_id"):
                continue
            snap = client.job(r["job_id"])
            if snap.get("started") is None or snap.get("finished") is None:
                continue
            timings["queue_wait"].append(snap["started"] - snap["created"])
            timings["run"].append(snap["finished"] - snap["started"])
            timings["transport"].append(
                r["latency_s"] - (snap["finished"] - snap["created"]))
        st = client.stats()
    finally:
        hwm = daemon.stop()
    engine = st.get("engine", {})
    counters = {"requests_new": st.get("launched", 0),
                "requests_cached": st.get("cache_answers", 0),
                "requests_coalesced": st.get("deduped", 0),
                "evaluations": engine.get("evaluations", 0),
                "cache_hits": engine.get("cache_hits", 0)}
    return {"jobs": records, "daemon": daemon, "hwm": hwm,
            "counters": counters, "service": timings,
            "dumps": spans.load_dumps(dump_dir) if traced else [],
            "events": read_events(events) if traced else []}


def run_serve(seed: int, seconds: float, work: pathlib.Path, table: Dict,
              traced: bool, rounds: Optional[int]) -> Outcome:
    """Each pass boots a fresh daemon and replays the same requests,
    until ``seconds`` have passed (at least :data:`MIN_PASSES`
    passes).  Every boot is also a set-up sample."""
    lists = problems.serve_lists(seed, SERVE_CLIENTS)
    if rounds is not None:
        lists = [reqs[:rounds] for reqs in lists]
    out = Outcome(concurrency=SERVE_CLIENTS)
    deadline = time.perf_counter() + seconds
    if not traced:
        passes = []
        while (len(passes) < MIN_PASSES["serve-repeat"]
               or time.perf_counter() < deadline):
            passes.append(_serve_pass(lists, work, table))
            daemon = passes[-1]["daemon"]
            out.add_setup(daemon.setup_s, daemon.setup_cal)
            out.hwm_kb.append(passes[-1]["hwm"])
        while len(out.setup_s) < SETUP_REPEATS:
            daemon = Daemon(work)
            out.add_setup(daemon.setup_s, daemon.setup_cal)
            out.hwm_kb.append(daemon.stop())
        out.add_passes([p["jobs"] for p in passes])
        out.counters = passes[0]["counters"]
        out.service = passes[0]["service"]
        return out

    plain, traced_walls, checked = [], [], []
    while (len(plain) < TRACE_MIN_PLAIN or not traced_walls
           or time.perf_counter() < deadline):
        if len(plain) <= len(traced_walls):
            res = _serve_pass(lists, work, table)
            plain.append(pass_norm_wall(res["jobs"]))
        else:
            res = _serve_pass(lists, work, table, traced=True)
            traced_walls.append(pass_norm_wall(res["jobs"]))
            if len(traced_walls) == 1:
                out.add_passes([res["jobs"]])
                out.counters, out.service = res["counters"], res["service"]
                out.dumps, out.events = res["dumps"], res["events"]
                for dump in out.dumps:
                    dump["parent"] = True   # the daemon holds the jobs
                continue
        checked.extend(res["jobs"])
    out.jobs.extend(checked)
    out.untraced_wall = min(plain)
    out.traced_wall = min(traced_walls)
    return out


def run(workload: str, seed: int, seconds: float, work: pathlib.Path,
        traced: bool = False, rounds: Optional[int] = None) -> Outcome:
    table = golden.load()
    if workload == "serve-repeat":
        return run_serve(seed, seconds, work, table, traced, rounds)
    return run_inprocess(workload, seed, seconds, work, table, traced,
                         rounds)
