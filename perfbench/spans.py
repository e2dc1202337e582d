"""In-memory spans recorded from outside the program.

The benchmark never edits the program to trace it.  :func:`install`
replaces public callables of each layer (``hil``, ``fko``, ``ir``,
``machine``, ``timing``, ``search``, ``service``) with wrappers that
record a span — name, start, end, parent span, job id — into a
:class:`SpanRecorder`; :meth:`Installation.uninstall` puts the
originals back.
Module-level functions are replaced at every ``repro`` module that
bound them by name (``from .x import f`` copies the reference), methods
on their class.

Spans stay in memory.  A fork-started pool worker inherits the
wrappers; the recorder starts empty in each worker and writes the
worker's spans to ``spans-<pid>.json`` in its dump directory when the
worker exits, so the parent can merge them with :func:`load_dumps`.

The program's ``observe=True`` mode is never used: it bypasses the
compile memo and would measure a different program.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import json
import os
import pathlib
import sys
import threading
import time
from multiprocessing import util as mp_util
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, "module:attribute path").  A span's self time is
#: charged to the layer that owns the name (its prefix).
SPAN_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("job", "repro.search.engine:TuningSession.tune"),
    ("search.eval", "repro.search.engine:evaluate_params"),
    ("search.space", "repro.search.space:build_space"),
    ("search.make_searcher", "repro.search.strategies:make_searcher"),
    ("search.eval_key", "repro.search.evalcache:eval_key"),
    ("search.evalcache_get", "repro.search.evalcache:EvalCache.get"),
    ("search.evalcache_put", "repro.search.evalcache:EvalCache.put"),
    ("search.trace_emit", "repro.search.trace:TraceWriter.emit"),
    ("hil.front_end", "repro.hil.parser:parse"),
    ("hil.front_end", "repro.hil.semantic:check"),
    ("hil.front_end", "repro.hil.lower:lower"),
    ("hil.front_end", "repro.hil.tiling:tiled_source"),
    ("hil.nest_info", "repro.hil.tiling:nest_info"),
    ("fko.analyze", "repro.fko:FKO.analyze"),
    ("fko.prefix", "repro.fko.pipeline:compile_prefix"),
    ("fko.finish", "repro.fko.pipeline:finish_kernel"),
    ("fko.regalloc", "repro.fko.regalloc:allocate_registers"),
    ("fko.share_key", "repro.fko:FKO.share_key"),
    ("fko.defaults", "repro.fko:FKO.defaults"),
    ("machine.summarize", "repro.machine.loopinfo:summarize"),
    ("machine.interp", "repro.machine.interp:run_function"),
    ("timing.finish", "repro.timing.timer:Timer.finish"),
    ("timing.time", "repro.timing.timer:Timer.time"),
    ("timing.tester", "repro.timing.tester:test_kernel"),
    ("service.http_post", "repro.service.daemon:ServiceHandler.do_POST"),
    ("service.http_get", "repro.service.daemon:ServiceHandler.do_GET"),
    ("service.submit", "repro.service.jobs:JobManager.submit"),
    ("service.store_get", "repro.service.jobs:ServeResultStore.get"),
    ("service.store_put", "repro.service.jobs:ServeResultStore.put"),
)

#: (counter name, "module:attribute path"): counted, not timed — they
#: run several times per compile, where a span would cost too much
COUNT_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("ir.liveness", "repro.ir.dataflow:Liveness._compute"),
    ("ir.successor_maps", "repro.ir.function:Function.successor_map"),
)


class SpanRecorder:
    """Spans and counters of one process, kept in memory.

    A span is ``[name, start, end, parent, job]``: ``parent`` indexes
    this process's span list (None for a root), ``job`` is the id of
    the enclosing ``job`` span.  Nesting is tracked per thread."""

    def __init__(self, dump_dir: Optional[str] = None):
        self.dump_dir = dump_dir
        self.pid = os.getpid()
        self.spans: List[list] = []
        self.counts: "collections.Counter[str]" = collections.Counter()
        self._local = threading.local()
        self._jobs = 0
        mp_util.register_after_fork(self, SpanRecorder._after_fork)

    def _after_fork(self) -> None:
        # a pool worker starts empty and writes its own spans at exit
        self.pid = os.getpid()
        self.spans = []
        self.counts = collections.Counter()
        self._local = threading.local()
        if self.dump_dir is not None:
            mp_util.Finalize(None, self.dump, exitpriority=100)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if name == "job":
            self._jobs += 1
            job = f"{self.pid}-{self._jobs}"
        else:
            job = self.spans[parent][4] if parent is not None else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, job])
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.end(idx)

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` encloses the current point."""
        return any(self.spans[i][0] == name for i in self._stack())

    def dump(self) -> None:
        """Write this process's spans and counts to the dump dir."""
        path = pathlib.Path(self.dump_dir) / f"spans-{self.pid}.json"
        path.write_text(json.dumps({"pid": self.pid,
                                    "spans": self.spans,
                                    "counts": dict(self.counts)}))


def load_dumps(dump_dir: str) -> List[Dict]:
    """Every process dump written into ``dump_dir``."""
    out = []
    for path in sorted(pathlib.Path(dump_dir).glob("spans-*.json")):
        out.append(json.loads(path.read_text()))
    return out


# ---------------------------------------------------------------------------
# folding spans into per-name totals

def fold(spans: List[list], in_jobs: bool = False
         ) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``
    (the span minus the time its direct children cover).  Children run
    on their parent's thread, nested inside it, so their durations
    never overlap and simply add up.  With ``in_jobs`` only spans that
    belong to a job count (a daemon's HTTP threads do not)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[2] is not None and s[3] is not None:
            child[s[3]] += s[2] - s[1]
    out: Dict[str, Dict[str, float]] = {}
    for s, covered in zip(spans, child):
        if s[2] is None or (in_jobs and s[4] is None):
            continue
        row = out.setdefault(s[0], {"calls": 0, "total_s": 0.0,
                                    "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s[2] - s[1]
        row["self_s"] += (s[2] - s[1]) - covered
    return out


def coverage(spans: List[list]) -> Tuple[float, float, float]:
    """``(coverage, unattributed_s, job_wall_s)`` over the ``job``
    spans: the share of job wall that some child span accounts for."""
    totals = fold(spans).get("job")
    if not totals or totals["total_s"] <= 0:
        return 0.0, 0.0, 0.0
    wall, unattributed = totals["total_s"], totals["self_s"]
    return 1.0 - unattributed / wall, unattributed, wall


# ---------------------------------------------------------------------------
# installing the wrappers

def _resolve(spec: str):
    module, _, path = spec.partition(":")
    owner = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _bindings(owner, attr: str) -> List[Tuple[object, str, object]]:
    """Every place the callable at ``owner.attr`` is reachable from:
    the class itself for a method, else each ``repro`` module that
    bound the function under any name."""
    if isinstance(owner, type):
        return [(owner, attr, owner.__dict__[attr])]
    fn = getattr(owner, attr)
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is fn:
                found.append((mod, key, fn))
    return found


class Installation:
    """The patched attributes, so they can be restored."""

    def __init__(self):
        self.patched: List[Tuple[object, str, object]] = []

    def patch(self, owner, attr: str, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self.patched.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self.patched):
            setattr(owner, attr, orig)
        self.patched.clear()


def _span_wrapper(rec: SpanRecorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(idx)
    return wrapper


def _count_wrapper(rec: SpanRecorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _fko_compile_wrapper(rec: SpanRecorder, fn: Callable) -> Callable:
    """``FKO.compile`` as a span, classified by the instance's public
    reuse counters: a full-pipeline hit, a post-AE prefix hit, or a
    prefix miss that ran every pass."""
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        full, hits = self.full_hits, self.prefix_hits
        misses = self.prefix_misses
        idx = rec.begin("fko.compile")
        try:
            return fn(self, *args, **kwargs)
        finally:
            rec.end(idx)
            rec.counts["fko.compiles"] += 1
            rec.counts["fko.full_hits"] += self.full_hits - full
            rec.counts["fko.prefix_hits"] += self.prefix_hits - hits
            rec.counts["fko.prefix_misses"] += self.prefix_misses - misses
    return wrapper


def _timer_wrapper(rec: SpanRecorder, name: str, fn: Callable,
                   nest: bool) -> Callable:
    """``Timer.base`` / ``Timer.base_nest`` as a span.  Inside an
    evaluation the answer is classified by which call produced it: the
    walk memo (``base_hits`` moved), the analytic nest model, the
    steady-state replay (lines extrapolated) or the full walk."""
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        hits = self.base_hits
        idx = rec.begin(name)
        try:
            result = fn(self, *args, **kwargs)
        finally:
            rec.end(idx)
        if rec.inside("search.eval"):
            if self.base_hits != hits:
                path = "memo"
            elif nest:
                path = "nest"
            elif result.stats.lines_extrapolated > 0:
                path = "replay"
            else:
                path = "walk"
            rec.counts[f"timing.path_{path}"] += 1
        return result
    return wrapper


def _peek_wrapper(rec: SpanRecorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        idx = rec.begin("timing.peek")
        try:
            result = fn(self, *args, **kwargs)
        finally:
            rec.end(idx)
        if result is not None and rec.inside("search.eval"):
            rec.counts["timing.path_memo"] += 1
        return result
    return wrapper


class _TracedPool:
    """The session's executor, with the parent's blocked time on
    ``map`` recorded as ``search.pool_wait`` (the results are drained
    inside the span, which is where the engine would block anyway)."""

    def __init__(self, rec: SpanRecorder, pool):
        self._rec = rec
        self._pool = pool

    def map(self, fn, *iterables, **kwargs):
        with self._rec.span("search.pool_wait"):
            return iter(list(self._pool.map(fn, *iterables, **kwargs)))

    def __getattr__(self, name):
        return getattr(self._pool, name)


def install(rec: SpanRecorder) -> Installation:
    """Wrap every target; returns the :class:`Installation` to undo."""
    import repro  # noqa: F401 — loads every module that binds a target
    import repro.service.daemon  # noqa: F401
    from repro.fko import FKO
    from repro.search.scheduler import Scheduler
    from repro.search.strategies import Searcher
    from repro.timing.timer import Timer

    inst = Installation()
    for targets, make in ((SPAN_TARGETS, _span_wrapper),
                          (COUNT_TARGETS, _count_wrapper)):
        for name, spec in targets:
            bindings = _bindings(*_resolve(spec))
            wrapper = make(rec, name, bindings[0][2])
            for owner, attr, orig in bindings:
                inst.patch(owner, attr, orig, wrapper)

    orig = FKO.__dict__["compile"]
    inst.patch(FKO, "compile", orig, _fko_compile_wrapper(rec, orig))
    for attr, span_name, nest in (("base", "machine.walk", False),
                                  ("base_nest", "machine.nest", True)):
        orig = Timer.__dict__[attr]
        inst.patch(Timer, attr, orig,
                   _timer_wrapper(rec, span_name, orig, nest))
    orig = Timer.__dict__["peek_base"]
    inst.patch(Timer, "peek_base", orig, _peek_wrapper(rec, orig))

    # every strategy class that defines its own ask/tell
    todo, seen = [Searcher], set()
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        todo.extend(cls.__subclasses__())
        for attr in ("ask", "tell"):
            if attr in cls.__dict__:
                orig = cls.__dict__[attr]
                inst.patch(cls, attr, orig,
                           _span_wrapper(rec, f"search.{attr}", orig))

    orig_pool = Scheduler.__dict__["pool"]

    @functools.wraps(orig_pool)
    def pool(self):
        real = orig_pool(self)
        return None if real is None else _TracedPool(rec, real)
    inst.patch(Scheduler, "pool", orig_pool, pool)
    return inst
