"""Metrics from a workload :class:`~workloads.Outcome`.

End-to-end metrics come from untraced runs; per-layer metrics from a
traced run's spans, the program's counters and its trace events.  Every
per-layer ``*_s`` time is a *self* time (the span minus its children),
summed over every process of the program, so the layer times of one
process add up to its traced wall.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import spans
import stats

#: (name, unit, better) of the end-to-end metrics, in print order
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("jobs_per_s", "jobs/s", "higher"),
    ("job_p50_s", "s", "lower"),
    ("job_tail_s", "s", "lower"),
    ("tuned_mflops_geomean", "MFLOPS", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("hil.front_end_calls", "count", "lower"),
    ("hil.front_end_s", "s", "lower"),
    ("hil.nest_info_calls", "count", "lower"),
    ("hil.nest_info_s", "s", "lower"),
    ("fko.compiles", "count", "lower"),
    ("fko.compile_s", "s", "lower"),
    ("fko.prefix_s", "s", "lower"),
    ("fko.finish_s", "s", "lower"),
    ("fko.regalloc_s", "s", "lower"),
    ("fko.prefix_hit_rate", "ratio", "higher"),
    ("fko.full_hits", "count", "higher"),
    ("ir.liveness_per_compile", "ratio", "lower"),
    ("ir.successor_maps_per_compile", "ratio", "lower"),
    ("machine.summarize_calls", "count", "lower"),
    ("machine.summarize_s", "s", "lower"),
    ("machine.walk_s", "s", "lower"),
    ("machine.nest_s", "s", "lower"),
    ("machine.interp_s", "s", "lower"),
    ("timing.path_walk", "count", "lower"),
    ("timing.path_replay", "count", "higher"),
    ("timing.path_nest", "count", "lower"),
    ("timing.path_memo", "count", "higher"),
    ("timing.timer_s", "s", "lower"),
    ("timing.tester_calls", "count", "lower"),
    ("timing.tester_s", "s", "lower"),
    ("search.evaluations", "count", "lower"),
    ("search.cache_hits", "count", "higher"),
    ("search.evals_per_s", "1/s", "higher"),
    ("search.eval_wall_p50_s", "s", "lower"),
    ("search.rounds", "count", "lower"),
    ("search.ask_s", "s", "lower"),
    ("search.tell_s", "s", "lower"),
    ("search.evalcache_get_s", "s", "lower"),
    ("search.evalcache_put_s", "s", "lower"),
    ("search.evalcache_hit_rate", "ratio", "higher"),
    ("search.pool_wait_s", "s", "lower"),
    ("search.pool_busy_share", "ratio", "higher"),
    ("service.requests_new", "count", "lower"),
    ("service.requests_cached", "count", "higher"),
    ("service.requests_coalesced", "count", "higher"),
    ("service.engine_evaluations", "count", "lower"),
    ("service.eval_cache_hits", "count", "higher"),
    ("service.queue_wait_p50_s", "s", "lower"),
    ("service.run_p50_s", "s", "lower"),
    ("service.transport_p50_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

#: counts that must repeat exactly between two runs of the same work
EXACT = ("search.evaluations", "timing.path_walk", "timing.path_replay",
         "timing.path_nest", "timing.path_memo", "fko.compiles",
         "ir.liveness_per_compile", "ir.successor_maps_per_compile",
         "service.requests_new", "service.requests_cached",
         "service.requests_coalesced", "tuned_mflops_geomean")
#: counts that depend on which pool worker gets which candidate: each
#: worker has its own compile caches, so prefix hits, and with them the
#: passes (and liveness / successor-map computations) a compile runs,
#: vary between runs at jobs > 1.  At jobs = 1 they repeat exactly.
SCHEDULING_DEPENDENT = ("fko.prefix_hit_rate", "fko.full_hits")
POOL_DEPENDENT = ("ir.liveness_per_compile",
                  "ir.successor_maps_per_compile")


def exactness(name: str, pooled: bool) -> str:
    """``"exact"`` or ``"scheduling-dependent"`` for a self-check count
    on a workload with (``pooled``) or without a process pool."""
    if name in SCHEDULING_DEPENDENT or (pooled and name in POOL_DEPENDENT):
        return "scheduling-dependent"
    return "exact"


def failed_share(out) -> float:
    """Failed job executions ÷ attempted.  Printed and stored in the
    artifact, but not declared in BENCHMARK.json, whose metrics must
    never be 0; the result line's ``failed`` / ``attempted`` carry it."""
    return (sum(1 for r in out.jobs if not r["ok"]) / len(out.jobs)
            if out.jobs else 1.0)


def mflops_geomean(out) -> float:
    values = [r["mflops"] for r in out.first if r["ok"] and r["mflops"]]
    return stats.geomean(values) if values else 0.0


def end_to_end(out) -> Tuple[Dict[str, float], Dict]:
    """The end-to-end metrics and the facts printed beside them.

    Times are host-normalized (:func:`stats.normalized`) and each job
    counts with its fastest pass.  ``jobs_per_s`` is Little's law for
    the closed loop: jobs in flight ÷ mean job latency (1 in process,
    2 client threads for serve-repeat).  The notes give the sample
    counts, the tail's percentile and the same figures unnormalized."""
    norm, raw = out.norm_latencies, out.latencies
    tail, raw_tail = stats.tail(norm), stats.tail(raw)
    metrics = {
        "setup_s": stats.median(out.setup_norm),
        "jobs_per_s": out.concurrency * len(norm) / sum(norm),
        "job_p50_s": stats.median(norm),
        "job_tail_s": tail[0] if tail else max(norm),
        "tuned_mflops_geomean": mflops_geomean(out),
        "peak_rss_mb": stats.peak_rss_mb(*out.hwm_kb),
    }
    failed = sum(1 for r in out.jobs if not r["ok"])
    fastest = f"fastest of {out.passes} passes"
    notes = {
        "setup_s": f"median of {len(out.setup_s)} set-ups; measured "
                   f"{stats.median(out.setup_s):.4g} s",
        "jobs_per_s": f"{len(norm)} jobs, {fastest}; measured "
                      f"{out.concurrency * len(raw) / sum(raw):.4g}",
        "job_p50_s": f"n={len(norm)} jobs, {fastest}; measured "
                     f"{stats.median(raw):.4g} s",
        "job_tail_s": (f"p{tail[1]:.1f}, n={len(norm)} jobs; measured "
                       f"{raw_tail[0]:.4g} s" if tail
                       else f"max, only n={len(norm)} jobs"),
        "tuned_mflops_geomean":
            f"n={sum(1 for r in out.first if r['ok'])} jobs",
        "peak_rss_mb": "max over the benchmark, pool workers, daemon",
        "failed_share": f"{failed}/{len(out.jobs)} job executions",
    }
    return metrics, notes


def _fold_all(dumps: List[Dict]) -> Tuple[Dict, Dict, Dict, Dict]:
    """Per-name span totals over every process, inside the jobs of the
    processes that hold them, over the other processes (pool workers),
    and summed counters."""
    every: Dict[str, Dict[str, float]] = {}
    main: Dict[str, Dict[str, float]] = {}
    workers: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, float] = {}
    for dump in dumps:
        parts = [(every, spans.fold(dump["spans"]))]
        if dump.get("parent"):
            parts.append((main, spans.fold(dump["spans"], in_jobs=True)))
        else:
            parts.append((workers, parts[0][1]))
        for target, folded in parts:
            for name, row in folded.items():
                acc = target.setdefault(name, {"calls": 0, "total_s": 0.0,
                                               "self_s": 0.0})
                for k in acc:
                    acc[k] += row[k]
        for name, n in dump["counts"].items():
            counts[name] = counts.get(name, 0) + n
    return every, main, workers, counts


def per_layer(out, pool_jobs: int) -> Tuple[Dict[str, float], Dict]:
    every, main, workers, counts = _fold_all(out.dumps)

    def self_s(*names):
        return sum(every.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(name):
        return every.get(name, {}).get("calls", 0)

    compiles = counts.get("fko.compiles", 0)
    hits = counts.get("fko.prefix_hits", 0)
    lookups = hits + counts.get("fko.prefix_misses", 0)
    evals = out.counters.get("evaluations", 0)
    cache_hits = out.counters.get("cache_hits", 0)
    pool_wait = main.get("search.pool_wait", {}).get("self_s", 0.0)
    worker_eval = workers.get("search.eval", {}).get("total_s", 0.0)
    eval_walls = [e["wall"] for e in out.events if e.get("event") == "eval"]
    unattributed = job_wall = 0.0
    for dump in out.dumps:
        if dump.get("parent"):
            _, u, w = spans.coverage(dump["spans"])
            unattributed, job_wall = unattributed + u, job_wall + w
    cov = 1.0 - unattributed / job_wall if job_wall else 0.0
    service = out.service or {}
    serve = "requests_new" in out.counters

    def p50(values):
        return stats.median(values) if values else 0.0

    metrics = {
        "hil.front_end_calls": calls("hil.front_end"),
        "hil.front_end_s": self_s("hil.front_end"),
        "hil.nest_info_calls": calls("hil.nest_info"),
        "hil.nest_info_s": self_s("hil.nest_info"),
        "fko.compiles": compiles,
        "fko.compile_s": self_s("fko.compile"),
        "fko.prefix_s": self_s("fko.prefix"),
        "fko.finish_s": self_s("fko.finish"),
        "fko.regalloc_s": self_s("fko.regalloc"),
        "fko.prefix_hit_rate": hits / lookups if lookups else 0.0,
        "fko.full_hits": counts.get("fko.full_hits", 0),
        "ir.liveness_per_compile":
            counts.get("ir.liveness", 0) / compiles if compiles else 0.0,
        "ir.successor_maps_per_compile":
            counts.get("ir.successor_maps", 0) / compiles
            if compiles else 0.0,
        "machine.summarize_calls": calls("machine.summarize"),
        "machine.summarize_s": self_s("machine.summarize"),
        "machine.walk_s": self_s("machine.walk"),
        "machine.nest_s": self_s("machine.nest"),
        "machine.interp_s": self_s("machine.interp"),
        "timing.path_walk": counts.get("timing.path_walk", 0),
        "timing.path_replay": counts.get("timing.path_replay", 0),
        "timing.path_nest": counts.get("timing.path_nest", 0),
        "timing.path_memo": counts.get("timing.path_memo", 0),
        "timing.timer_s": self_s("timing.finish", "timing.time",
                                 "timing.peek"),
        "timing.tester_calls": calls("timing.tester"),
        "timing.tester_s": self_s("timing.tester"),
        "search.evaluations": evals,
        "search.cache_hits": cache_hits,
        "search.evals_per_s": (evals / out.untraced_wall
                               if out.untraced_wall else 0.0),
        "search.eval_wall_p50_s": p50(eval_walls),
        "search.rounds": sum(1 for e in out.events
                             if e.get("event") == "round"),
        "search.ask_s": self_s("search.ask"),
        "search.tell_s": self_s("search.tell"),
        "search.evalcache_get_s": self_s("search.evalcache_get"),
        "search.evalcache_put_s": self_s("search.evalcache_put"),
        "search.evalcache_hit_rate": (cache_hits / (evals + cache_hits)
                                      if evals + cache_hits else 0.0),
        "search.pool_wait_s": pool_wait,
        "search.pool_busy_share": (worker_eval / (pool_jobs * pool_wait)
                                   if pool_wait else 0.0),
        "service.requests_new": out.counters.get("requests_new", 0),
        "service.requests_cached": out.counters.get("requests_cached", 0),
        "service.requests_coalesced":
            out.counters.get("requests_coalesced", 0),
        "service.engine_evaluations": evals if serve else 0,
        "service.eval_cache_hits": cache_hits if serve else 0,
        "service.queue_wait_p50_s": p50(service.get("queue_wait", [])),
        "service.run_p50_s": p50(service.get("run", [])),
        "service.transport_p50_s": p50(service.get("transport", [])),
        "trace.coverage": cov,
        "trace.unattributed_s": unattributed,
        "trace.overhead": (out.traced_wall / out.untraced_wall - 1.0
                           if out.untraced_wall else 0.0),
    }
    shares = {name: {"calls": row["calls"], "self_s": row["self_s"],
                     "share_of_job_wall": (row["self_s"] / job_wall
                                           if job_wall else 0.0)}
              for name, row in sorted(main.items(),
                                      key=lambda kv: -kv[1]["self_s"])}
    details = {"job_wall_s": job_wall, "layer_shares": shares,
               "worker_spans": {n: r for n, r in sorted(workers.items())},
               "counts": counts,
               "tuned_mflops_geomean": mflops_geomean(out),
               "scheduling_dependent": list(SCHEDULING_DEPENDENT
                                            + POOL_DEPENDENT)}
    return metrics, details
