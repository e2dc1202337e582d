"""Structured search tracing — one JSON-lines event per evaluation.

The engine records what the search *did* (every compile+time, every
cache hit, every phase move, every job boundary) so a run can be
audited after the fact: how many evaluations a figure cost, where the
wall time went, whether a warm-cache rerun really re-evaluated nothing.
ELAPS (Peise & Bientinesi) treats performance experiments as jobs with
recorded measurement traces; this is that idea for the ifko search.

Event schema v2 (all events share ``t`` — POSIX timestamp — and
``event``; v2 adds the ``pass`` and ``attribution`` kinds, emitted only
when the session observes with ``TuneConfig(observe=True)``):

========== =========================================================
event      extra fields
========== =========================================================
batch-start  jobs (list of job keys), njobs
job-start    job, kernel, machine, context, n, space (cardinality),
             strategy (registry name), seed
pass         job, phase, params, pass (pipeline pass name), wall,
             applied (False = no-op), instrs/blocks/vregs (IR size
             after the pass), d_instrs/d_blocks/d_vregs (the pass's
             delta), detail (per-transform counters, e.g. regalloc's
             ``ra.spill_loads``) — one per executed pass, emitted
             before the eval they belong to
eval         job, phase, params (describe()), cycles, wall, status
             (``ok`` | ``fault: ...``), path (the timing path that
             produced the cycles, one of TIMING_PATHS; null on a
             failure).  Traces written before ``path`` existed carry
             ``fast`` instead (True when the replay fired), and older
             traces may carry the retired status ``timeout``
attribution  job, phase, params, total, compute, memory_stall,
             prefetch_waste, other, bus_busy, prefetch_issued/
             dropped/wasted, demand_misses, hw_prefetches, lines,
             lines_extrapolated, steady_period — the timing model's
             cycle decomposition for the eval just recorded
cache-hit    job, phase, params, cycles, wall (0.0)
phase        job, phase, cycles (best so far entering the phase)
round        job, strategy, round (ask/tell cycle — a line-search
             phase batch, an anneal proposal, a GA generation),
             phase, evaluations (budget charged so far), best_cycles
curve        job, strategy, seed, round, evaluations, best_cycles,
             improved — one best-so-far convergence sample per tell
             (the anytime-performance curve behind ``repro curves``);
             off-path: nothing in the search reads it, and its fields
             are deterministic, so jobs=1 and jobs=N traces carry
             identical curves
best-rejected  job, params, best_cycles, error — the search's winning
             kernel failed the tester (``TuneConfig.run_tester``);
             the job raises instead of storing the kernel
job-end      job, best_cycles, evaluations, mflops, params, plus the
             session-cumulative batched-evaluation counters
             batch_prefix_hits/misses, batch_walk_hits
job-resumed  job (reloaded from a checkpoint, no search ran)
job-error    job, error
pool-broken  job (optional) — worker pool died, run fell back serial
batch-end    completed, errors, wall, evaluations, cache_hits,
             evals_per_sec, cache_hit_rate, path_walk, path_replay,
             path_nest, path_memo (ok evaluations by timing path), and
             the merged batch_* counters (as on job-end, batch-wide)
========== =========================================================

Failed evaluations carry ``cycles: null`` (the search treats them as
infinitely slow); non-finite floats are sanitized to null recursively,
including inside nested payloads, so JSON stays strict.
"""

from __future__ import annotations

import json
import math
import pathlib
import time
from collections import Counter
from typing import Dict, List, Optional

TRACE_VERSION = 2

#: the timing paths an evaluation can take, in report order: the full
#: per-line walk, its steady-state replay, the analytic blocked-nest
#: model, and the memoized walk of a bit-identical earlier kernel
TIMING_PATHS = ("walk", "replay", "nest", "memo")


def _sanitize(value):
    """Replace non-finite floats with None, recursively: event payloads
    nest (``params`` dicts, attribution breakdowns, detail counters),
    and an ``Infinity`` smuggled inside a list or dict would produce
    JSON that strict parsers reject."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


class TraceWriter:
    """Appends JSON-lines events to a file (or buffers them when
    constructed with ``path=None`` — the engine's worker processes do
    this and ship the buffer back to the parent, which owns the file).

    Usable as a context manager; the file handle is closed on exit
    whether the block completed or raised."""

    def __init__(self, path: Optional[str] = None):
        self.path = pathlib.Path(path) if path else None
        self.buffer: List[Dict] = []
        self._fh = None
        self._listeners: List = []
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", buffering=1)

    # -- live subscription (the transport layer's streaming seam) ------
    def subscribe(self, listener) -> None:
        """Register ``listener(record)`` to be called for every record
        written (file-backed or buffered, locally emitted or shipped
        back from a worker).  The service daemon uses this to route
        events to per-job streams; a listener that raises is dropped
        rather than allowed to poison the search."""
        self._listeners.append(listener)

    def unsubscribe(self, listener) -> None:
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def emit(self, event: str, **fields) -> Dict:
        record = {"t": time.time(), "event": event}
        for k, v in fields.items():
            record[k] = _sanitize(v)
        self.write(record)
        return record

    def write(self, record: Dict) -> None:
        if self._fh is not None:
            self._fh.write(json.dumps(record) + "\n")
        else:
            self.buffer.append(record)
        for listener in list(self._listeners):
            try:
                listener(record)
            except Exception:   # noqa: BLE001 — observers never perturb
                self.unsubscribe(listener)

    def write_many(self, records: List[Dict]) -> None:
        for r in records:
            self.write(r)

    def drain(self) -> List[Dict]:
        out, self.buffer = self.buffer, []
        return out

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class TraceEvents(List[Dict]):
    """A list of trace events that remembers how many lines could not
    be parsed.  It behaves exactly like a plain list (existing callers
    are unaffected); ``malformed`` lets consumers report skips instead
    of hiding a truncated or corrupted trace."""

    def __init__(self, events=(), malformed: int = 0):
        super().__init__(events)
        self.malformed = malformed


class TraceStream:
    """An iterable view over a JSONL trace that never materializes the
    file: each ``__iter__`` re-opens the file and yields one parsed
    event at a time, so consumers that scan a trace several times
    (``repro report``) stay O(1) in memory even over multi-hundred-MB
    study traces.

    Mirrors :class:`TraceEvents`' malformed-line contract: unparsable
    lines are skipped and counted on ``.malformed``.  The counter is
    reset at the start of every iteration pass, so after any complete
    pass it holds the file's (current) malformed-line count rather
    than a multiple of it."""

    def __init__(self, path: str):
        self.path = path
        self.malformed = 0

    def __iter__(self):
        self.malformed = 0
        with open(self.path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except json.JSONDecodeError:
                    self.malformed += 1


def read_trace(path: str) -> TraceEvents:
    """Load a JSONL trace into memory; malformed lines are skipped, not
    fatal — but they are *counted* (``.malformed`` on the returned
    list), and ``summarize_trace`` surfaces the count.  Consumers that
    only scan (``repro report``, ``repro curves``) should prefer
    :class:`TraceStream`."""
    stream = TraceStream(path)
    events = TraceEvents(stream)
    events.malformed = stream.malformed
    return events


def summarize_trace(events) -> Dict:
    """Aggregate a trace into the numbers a human asks first:
    evaluations vs cache hits, wall time, phase mix, per-job results.
    ``events`` may be a materialized :class:`TraceEvents` list or a
    :class:`TraceStream` — the summary is built in one pass either
    way, and the malformed-line count is read *after* the pass (a
    stream only knows it once the file has been walked)."""
    n_events = 0
    totals = Counter()
    phases = Counter()
    statuses = Counter()
    eval_wall = 0.0
    paths = Counter({p: 0 for p in TIMING_PATHS})
    batch_wall = 0.0
    # batched-evaluation counters are emitted cumulatively on job-end /
    # batch-end, so the latest carrier in file order holds the totals
    # (batch-end, the merged batch-wide view, always comes last)
    batch = {"prefix_hits": 0, "prefix_misses": 0, "walk_hits": 0}
    jobs: Dict[str, Dict] = {}

    def job_entry(key):
        return jobs.setdefault(key, {"evaluations": 0, "cache_hits": 0,
                                     "best_cycles": None, "mflops": None,
                                     "params": None, "status": "ran"})

    for ev in events:
        n_events += 1
        kind = ev.get("event", "?")
        totals[kind] += 1
        job = ev.get("job")
        if kind == "eval":
            phases[ev.get("phase", "?")] += 1
            statuses[ev.get("status", "ok")] += 1
            eval_wall += ev.get("wall") or 0.0
            path = _eval_path(ev)
            if path is not None:
                paths[path] += 1
            if job:
                job_entry(job)["evaluations"] += 1
        elif kind == "batch-end":
            batch_wall += ev.get("wall") or 0.0
        elif kind == "cache-hit":
            if job:
                job_entry(job)["cache_hits"] += 1
        elif kind == "job-end" and job:
            entry = job_entry(job)
            entry["best_cycles"] = ev.get("best_cycles")
            entry["mflops"] = ev.get("mflops")
            entry["params"] = ev.get("params")
        elif kind == "job-resumed" and job:
            job_entry(job)["status"] = "resumed"
        elif kind == "job-error" and job:
            entry = job_entry(job)
            entry["status"] = "error"
            entry["error"] = ev.get("error")
        if "batch_prefix_hits" in ev:   # job-end and batch-end carriers
            for k in batch:
                batch[k] = int(ev.get(f"batch_{k}") or 0)

    n_evals = totals["eval"]
    n_hits = totals["cache-hit"]
    seen = n_evals + n_hits
    wall = batch_wall or eval_wall
    return {"n_events": n_events,
            "malformed_lines": getattr(events, "malformed", 0),
            "events": dict(totals),
            "evaluations": n_evals,
            "cache_hits": n_hits,
            "eval_wall": eval_wall,
            "evals_per_sec": (n_evals / wall) if wall > 0 else 0.0,
            "cache_hit_rate": (n_hits / seen) if seen else 0.0,
            "paths": dict(paths),
            "batch": batch,
            "statuses": dict(statuses),
            "phases": dict(phases),
            "jobs": jobs}


def _eval_path(ev: Dict) -> Optional[str]:
    """The timing path of an ``eval`` event; None for a failed one.  An
    event from before ``path`` existed only says whether the replay
    fired, so its other ok evaluations count as ``unlabelled``."""
    if ev.get("status", "ok") != "ok":
        return None
    if "path" in ev:
        return ev["path"]
    return "replay" if ev.get("fast") else "unlabelled"


def format_paths(paths: Dict[str, int]) -> str:
    """``walk 3/replay 5/nest 0/memo 2`` (plus any other label seen)."""
    names = list(TIMING_PATHS) + sorted(set(paths) - set(TIMING_PATHS))
    return "/".join(f"{p} {paths.get(p, 0)}" for p in names)


def render_trace_summary(summary: Dict) -> str:
    lines = [f"# trace: {summary['n_events']} events, "
             f"{summary['evaluations']} evaluations, "
             f"{summary['cache_hits']} cache hits, "
             f"{summary['eval_wall']:.2f}s in evaluation"]
    if summary.get("malformed_lines"):
        lines.append(f"# WARNING: {summary['malformed_lines']} malformed "
                     f"line(s) skipped while reading the trace")
    if summary["evaluations"] or summary["cache_hits"]:
        lines.append(
            f"# throughput: {summary.get('evals_per_sec', 0.0):.1f} evals/s, "
            f"cache hit rate {summary.get('cache_hit_rate', 0.0):.1%}, "
            f"timing paths {format_paths(summary.get('paths') or {})}")
    bad = {k: v for k, v in summary["statuses"].items() if k != "ok"}
    if bad:
        lines.append("# non-ok evaluations: "
                     + "  ".join(f"{k}={v}" for k, v in sorted(bad.items())))
    if summary["phases"]:
        lines.append("# evaluations by phase: "
                     + "  ".join(f"{p}={n}" for p, n in
                                 sorted(summary["phases"].items())))
    if summary["jobs"]:
        lines.append(f"# jobs ({len(summary['jobs'])}):")
        width = max(len(k) for k in summary["jobs"])
        for key, j in summary["jobs"].items():
            desc = (f"  {key:{width}s}  evals={j['evaluations']:<4d} "
                    f"hits={j['cache_hits']:<4d}")
            if j["status"] == "resumed":
                desc += " [resumed from checkpoint]"
            elif j["status"] == "error":
                desc += f" [ERROR: {j.get('error')}]"
            elif j["best_cycles"] is not None:
                desc += f" best={j['best_cycles']:.0f}cy"
                if j["mflops"] is not None:
                    desc += f" {j['mflops']:.1f}MFLOPS"
                if j["params"]:
                    desc += f"  {j['params']}"
            lines.append(desc)
    return "\n".join(lines)
