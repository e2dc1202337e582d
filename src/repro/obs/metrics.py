"""Process-wide metrics: counters, gauges and histograms with labels.

This is the second observability layer, above :mod:`repro.obs.core`'s
per-evaluation collector.  A :class:`Collector` answers "what happened
inside *this* compile+time evaluation"; the metrics registry answers
"what is this *process* doing over time" — evals/sec, cache hit rates,
queue depth, per-pass wall-time distributions — the numbers a serving
fleet scrapes and alerts on.

The design follows the collector's inert-when-disabled contract:

* a single module global ``_ENABLED`` gates every hot-path helper, so
  with metrics off the cost of an instrumentation point is one global
  read and a boolean check (the same CI bench guard that holds the
  collector to ≤ 3% of eval throughput also covers the enabled
  registry);
* instrumented code never holds the registry; it calls the module-level
  helpers (:func:`inc`, :func:`set_gauge`, :func:`observe`) which no-op
  when disabled;
* series are keyed by ``(name, sorted(label items))`` so one metric
  name fans out over label values exactly like Prometheus expects.

Scope is **per process** by design.  The engine records its counters
parent-side (in ``_Evaluator``), so engine-level metrics are complete
even under process-pool fan-out; per-pass compile histograms are fed
from inside whatever process runs the pipeline, so under ``jobs>1``
worker-side compiles land in the worker's registry, not the parent's.
The daemon — the primary scraping target — compiles in-process workers
it owns, and its request/queue/budget metrics are all parent-side.

Export formats: :func:`render_prometheus` emits the Prometheus text
exposition format (``GET /v1/metrics`` on the daemon), and
:func:`snapshot` returns a plain-JSON dict (``repro metrics --json``).
Nothing here needs anything outside the stdlib.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "MetricsRegistry", "enable", "disable", "enabled", "registry",
    "reset", "inc", "set_gauge", "observe",
    "render_prometheus", "snapshot",
]

_ENABLED: bool = False

# Default histogram buckets: wall times from 10us to 10s, roughly
# log-spaced.  Pass pipelines live in the 0.1ms..50ms band; whole
# evals and daemon jobs in the 1ms..10s band — one ladder covers both.
_DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.00001, 0.0000316, 0.0001, 0.000316, 0.001, 0.00316,
    0.01, 0.0316, 0.1, 0.316, 1.0, 3.16, 10.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> _LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Histogram:
    """One labeled histogram series: cumulative buckets + sum + count."""

    __slots__ = ("bounds", "buckets", "sum", "count")

    def __init__(self, bounds: Tuple[float, ...]):
        self.bounds = bounds
        self.buckets = [0] * (len(bounds) + 1)   # last slot = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1


class MetricsRegistry:
    """Holds every series recorded by this process.

    Three families, all labeled:

    * **counters** — monotonic (``inc``);
    * **gauges** — last-write-wins (``set_gauge``);
    * **histograms** — cumulative-bucket distributions (``observe``).

    Help strings registered via :meth:`describe` become ``# HELP``
    lines in the Prometheus rendering; undescribed metrics still
    render (with a generic help line).
    """

    __slots__ = ("counters", "gauges", "histograms", "help")

    def __init__(self):
        self.counters: Dict[str, Dict[_LabelKey, float]] = {}
        self.gauges: Dict[str, Dict[_LabelKey, float]] = {}
        self.histograms: Dict[str, Dict[_LabelKey, _Histogram]] = {}
        self.help: Dict[str, str] = {}

    # -- recording ------------------------------------------------------
    def describe(self, name: str, help_text: str) -> None:
        self.help[name] = help_text

    def inc(self, name: str, by: float = 1, **labels: str) -> None:
        series = self.counters.setdefault(name, {})
        key = _label_key(labels)
        series[key] = series.get(key, 0) + by

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        self.gauges.setdefault(name, {})[_label_key(labels)] = value

    def observe(self, name: str, value: float,
                buckets: Optional[Tuple[float, ...]] = None,
                **labels: str) -> None:
        series = self.histograms.setdefault(name, {})
        key = _label_key(labels)
        hist = series.get(key)
        if hist is None:
            hist = series[key] = _Histogram(buckets or _DEFAULT_BUCKETS)
        hist.observe(value)

    # -- export ---------------------------------------------------------
    def snapshot(self) -> Dict:
        """A plain-JSON view of every series (labels as a dict)."""
        def expand(series):
            return [{"labels": dict(key), "value": value}
                    for key, value in sorted(series.items())]

        return {
            "counters": {n: expand(s)
                         for n, s in sorted(self.counters.items())},
            "gauges": {n: expand(s)
                       for n, s in sorted(self.gauges.items())},
            "histograms": {
                n: [{"labels": dict(key),
                     "sum": h.sum, "count": h.count,
                     "buckets": [{"le": le, "n": c} for le, c in
                                 zip(list(h.bounds) + ["+Inf"],
                                     _cumulative(h.buckets))]}
                    for key, h in sorted(s.items())]
                for n, s in sorted(self.histograms.items())
            },
        }

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        out: List[str] = []

        def emit_head(name: str, kind: str) -> None:
            help_text = self.help.get(
                name, f"repro metric {name}").replace("\\", "\\\\")
            out.append(f"# HELP {name} {help_text}")
            out.append(f"# TYPE {name} {kind}")

        for name, series in sorted(self.counters.items()):
            emit_head(name, "counter")
            for key, value in sorted(series.items()):
                out.append(f"{name}{_fmt_labels(key)} {_fmt_value(value)}")
        for name, series in sorted(self.gauges.items()):
            emit_head(name, "gauge")
            for key, value in sorted(series.items()):
                out.append(f"{name}{_fmt_labels(key)} {_fmt_value(value)}")
        for name, series in sorted(self.histograms.items()):
            emit_head(name, "histogram")
            for key, hist in sorted(series.items()):
                cum = _cumulative(hist.buckets)
                for le, count in zip(list(hist.bounds) + ["+Inf"], cum):
                    le_s = "+Inf" if le == "+Inf" else _fmt_value(le)
                    lk = key + (("le", le_s),)
                    out.append(f"{name}_bucket{_fmt_labels(lk)} {count}")
                out.append(f"{name}_sum{_fmt_labels(key)} "
                           f"{_fmt_value(hist.sum)}")
                out.append(f"{name}_count{_fmt_labels(key)} {hist.count}")
        return "\n".join(out) + ("\n" if out else "")


def _cumulative(buckets: Iterable[int]) -> List[int]:
    total, out = 0, []
    for b in buckets:
        total += b
        out.append(total)
    return out


def _fmt_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _fmt_labels(key: _LabelKey) -> str:
    if not key:
        return ""
    parts = []
    for k, v in key:
        escaped = str(v).replace("\\", "\\\\").replace('"', '\\"')
        escaped = escaped.replace("\n", "\\n")
        parts.append(f'{k}="{escaped}"')
    return "{" + ",".join(parts) + "}"


# -- module-level facade -------------------------------------------------

_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry (always available; recording into it
    directly bypasses the enabled gate — use the module helpers)."""
    return _REGISTRY


def enabled() -> bool:
    return _ENABLED


def enable() -> None:
    """Turn on metric recording for this process."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    global _ENABLED
    _ENABLED = False


def reset() -> None:
    """Drop every recorded series (tests; help strings survive)."""
    _REGISTRY.counters.clear()
    _REGISTRY.gauges.clear()
    _REGISTRY.histograms.clear()


def inc(name: str, by: float = 1, **labels: str) -> None:
    """Bump a counter; free when metrics are disabled."""
    if not _ENABLED:
        return
    _REGISTRY.inc(name, by, **labels)


def set_gauge(name: str, value: float, **labels: str) -> None:
    """Set a gauge; free when metrics are disabled."""
    if not _ENABLED:
        return
    _REGISTRY.set_gauge(name, value, **labels)


def observe(name: str, value: float, **labels: str) -> None:
    """Record a histogram observation; free when metrics are disabled."""
    if not _ENABLED:
        return
    _REGISTRY.observe(name, value, **labels)


def render_prometheus() -> str:
    return _REGISTRY.render_prometheus()


def snapshot() -> Dict:
    return _REGISTRY.snapshot()


# Help strings for everything the platform records, registered up front
# so the first scrape already carries them.
for _name, _help in (
    ("repro_evaluations_total",
     "Engine evaluations recorded, by outcome status"),
    ("repro_eval_cache_hits_total",
     "Evaluations answered from the persistent eval cache"),
    ("repro_eval_path_total",
     "Timing path taken per ok evaluation (walk, replay, nest, memo)"),
    ("repro_eval_wall_seconds",
     "Wall time per engine evaluation round-trip"),
    ("repro_evals_per_sec",
     "Most recent evaluation throughput (per batch or per daemon job)"),
    ("repro_batch_prefix_hits_total",
     "Batched compiles answered by the prefix-memoized IR cache"),
    ("repro_batch_prefix_misses_total",
     "Batched compiles that ran the full pass prefix"),
    ("repro_batch_walk_hits_total",
     "Batched timings answered by a shared steady-state walk"),
    ("repro_pass_wall_seconds",
     "Wall time per FKO pipeline pass, labeled by pass name"),
    ("repro_tile_wall_seconds",
     "Wall time in the HIL tiling layer (nest discovery / apply)"),
    ("repro_requests_total",
     "Daemon tune submissions, by disposition (new/coalesced/cached)"),
    ("repro_client_requests_total",
     "Daemon tune submissions, by client id"),
    ("repro_queue_depth",
     "Jobs waiting in the daemon's fair queue"),
    ("repro_inflight",
     "Distinct requests currently executing or queued (dedup table)"),
    ("repro_budget_remaining_evals",
     "Evaluations left in the daemon's global budget (-1 = unlimited)"),
    ("repro_jobs_completed_total", "Daemon jobs finished successfully"),
    ("repro_jobs_errored_total", "Daemon jobs finished with an error"),
    ("repro_compiles_total", "Daemon one-shot /v1/compile requests"),
):
    _REGISTRY.describe(_name, _help)
del _name, _help
