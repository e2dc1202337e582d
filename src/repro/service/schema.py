"""The versioned wire schema of the tuning service.

A :class:`TuneRequest` names one tuning problem plus everything that
shapes how it is searched — the same fields a local
:class:`~repro.search.config.TuneConfig` run takes, minus the purely
operational knobs (``jobs``, ``cache_dir``, ``trace``), which belong to
the *daemon*, not the request.  Requests canonicalize on construction
(machine aliases, context spellings, the paper's default N) so that
every spelling of the same problem produces the same canonical
:meth:`~TuneRequest.digest`; that digest is the service's unit of
identity — it drives both in-flight coalescing (two concurrent
identical requests share one engine run) and cache-backed instant
answers (a repeat of a completed request is served from the result
store without re-evaluation).

Both payloads are schema-versioned with the repo-wide tolerant
``from_dict`` convention: unknown keys are ignored (a newer client may
send fields an older daemon does not know), missing optional keys take
their defaults, and a schema number from the future is refused loudly.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Dict, Optional

from .. import __version__
from ..kernels import REGISTRY
from ..machine import Context, canon_machine
from ..search.config import TuneConfig
from ..search.drivers import TunedKernel
from ..search.linesearch import SearchResult
from ..timing.timer import MAX_N, paper_n
from ..util import check_schema


def default_n(kernel: str, ctx: Context) -> int:
    """The canonical problem size when the request leaves ``n`` unset.
    Vector kernels use the paper's N (so every pre-existing request
    digest is unchanged); cubic nest kernels scale as N^1.5 in memory,
    so their defaults are matrix orders: 512 puts the working set well
    out of cache, 160 keeps all three operands resident in a 1MB L2
    (3 * 160^2 * 8 bytes = 600KB)."""
    spec = REGISTRY.get(kernel)
    if spec is not None and spec.flops_order >= 3:
        return 512 if ctx is Context.OUT_OF_CACHE else 160
    return paper_n(ctx)


def parse_context(value) -> Context:
    """Canonicalize a context spelling: a :class:`Context`, its value
    ("out-of-cache"), or the CLI short forms ("oc", "ic", "in-l2"...)."""
    if isinstance(value, Context):
        return value
    v = str(value).lower()
    if v in ("oc", "ooc", "out", "out-of-cache"):
        return Context.OUT_OF_CACHE
    # "in-l2-cache" is Context.IN_L2.value lowercased: the enum's own
    # value string must always round-trip (stored results record it),
    # not just the CLI short forms
    if v in ("ic", "inl2", "in-l2", "in-cache", "in-l2-cache"):
        return Context.IN_L2
    raise ValueError(f"unknown context {value!r}")


def _whole(name: str, value) -> int:
    """A wire integer: an integral number (``8e4`` included), finite,
    and not a boolean."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise TypeError(f"{name} must be an integer, got {value!r}")


def _finite(name: str, value) -> float:
    """A wire real: a finite number that is not a boolean."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:   # an integer beyond float range
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def history_digest(search: Optional[SearchResult]) -> Optional[str]:
    """SHA-256 over the search's full (phase, params-key, cycles)
    history — the strongest cheap witness that two runs of the same
    request walked the identical search.  The determinism acceptance
    tests compare this digest between the daemon and the in-process
    API."""
    if search is None:
        return None
    blob = json.dumps(search.to_dict()["history"], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class TuneRequest:
    """One tuning problem, canonicalized and digestible.

    ``budget`` is the evaluation budget (``TuneConfig.max_evals``);
    ``test`` runs the tester on the winner before it is returned.  All
    other fields mirror their :class:`TuneConfig` namesakes.
    """

    kernel: str
    machine: str = "p4e"
    context: str = "out-of-cache"
    n: Optional[int] = None
    strategy: str = "line"
    seed: int = 0
    budget: int = 400
    observe: bool = False
    verify_ir: bool = False
    min_gain: float = 0.005
    enable_block_fetch: bool = False
    test: bool = True

    def __post_init__(self):
        # wire types first, so a malformed body is a ValueError /
        # TypeError (a 400), never an error from deeper down
        for name, kind in (("kernel", str), ("strategy", str),
                           ("observe", bool), ("verify_ir", bool),
                           ("enable_block_fetch", bool), ("test", bool)):
            if not isinstance(getattr(self, name), kind):
                raise TypeError(f"{name} must be a {kind.__name__}, "
                                f"got {getattr(self, name)!r}")
        self.seed = _whole("seed", self.seed)
        self.budget = _whole("budget", self.budget)
        self.min_gain = _finite("min_gain", self.min_gain)
        if self.kernel not in REGISTRY:
            raise ValueError(f"unknown kernel {self.kernel!r}; the "
                             f"service tunes registry kernels")
        self.machine = canon_machine(self.machine)
        ctx = parse_context(self.context)
        self.context = ctx.value
        self.n = (_whole("n", self.n) if self.n is not None
                  else default_n(self.kernel, ctx))
        if not 0 < self.n <= MAX_N:
            raise ValueError(f"n must be in 1..{MAX_N}, got {self.n}")
        # borrow TuneConfig's validation for the search-shaping fields
        # (strategy registry membership, seed/budget/min_gain ranges)
        self.to_config()

    # -- identity -------------------------------------------------------
    def canonical(self) -> Dict:
        """The digest-relevant fields in canonical form."""
        return {"kernel": self.kernel, "machine": self.machine,
                "context": self.context, "n": self.n,
                "strategy": self.strategy, "seed": self.seed,
                "budget": self.budget, "observe": self.observe,
                "verify_ir": self.verify_ir, "min_gain": self.min_gain,
                "enable_block_fetch": self.enable_block_fetch,
                "test": self.test}

    def digest(self) -> str:
        """Canonical request identity: every spelling of the same
        problem (machine aliases, context short forms, defaulted N)
        digests identically; any field that could change the answer —
        including the code version — changes the digest."""
        blob = json.dumps({"v": __version__, **self.canonical()},
                          sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def key(self) -> str:
        """Human-readable job key (matches the engine's trace keys)."""
        return f"{self.kernel}:{self.machine}:{self.context}:{self.n}"

    # -- conversions ----------------------------------------------------
    def to_config(self, base: Optional[TuneConfig] = None) -> TuneConfig:
        """The per-request :class:`TuneConfig`: request fields override
        the search-shaping knobs; operational knobs (``jobs``,
        ``cache_dir``, ``trace``, ``resume``) come from ``base`` — the
        daemon's own configuration."""
        base = base if base is not None else TuneConfig()
        return base.replace(
            max_evals=self.budget, strategy=self.strategy, seed=self.seed,
            observe=self.observe, verify_ir=self.verify_ir,
            min_gain=self.min_gain,
            enable_block_fetch=self.enable_block_fetch,
            run_tester=self.test, space=None, start=None, resume=None)

    def to_dict(self) -> Dict:
        return {"schema": 1, **self.canonical()}

    @staticmethod
    def from_dict(data: Dict) -> "TuneRequest":
        """Tolerant: unknown keys are ignored, ``max_evals`` is an
        accepted alias for ``budget``, missing fields take defaults."""
        check_schema(data, "TuneRequest")
        if "kernel" not in data:
            raise ValueError("TuneRequest: missing required field 'kernel'")
        kw = {}
        for name in ("kernel", "machine", "context", "n", "strategy",
                     "seed", "budget", "observe", "verify_ir",
                     "min_gain", "enable_block_fetch", "test"):
            if name in data:
                kw[name] = data[name]
        if "budget" not in kw and "max_evals" in data:
            kw["budget"] = data["max_evals"]
        return TuneRequest(**kw)


@dataclass
class TuneResponse:
    """What the service answers a :class:`TuneRequest` with.

    ``result`` is the :class:`~repro.search.drivers.TunedKernel`
    summary dict (FKO is deterministic, so the client can recompile the
    winning kernel from it bit-identically); ``history_digest`` hashes
    the full search history, and ``stats`` is the per-job slice of the
    engine counters (evaluations actually run, cache hits, ...).
    """

    digest: str
    job_id: str
    status: str                      # queued | running | done | error
    result: Optional[Dict] = None    # TunedKernel.to_dict()
    history_digest: Optional[str] = None
    stats: Dict = field(default_factory=dict)
    wall: float = 0.0
    error: Optional[str] = None
    #: answered without an engine run: "store" (persistent result
    #: store) or "memory" (completed job still resident); None = ran
    served_from: Optional[str] = None

    def __post_init__(self):
        self._kernel: Optional[TunedKernel] = None

    @property
    def ok(self) -> bool:
        return self.status == "done" and self.error is None

    def tuned(self) -> TunedKernel:
        """The winning kernel, recompiled from the response (memoized;
        the local transport attaches the original object instead)."""
        if self._kernel is None:
            if not self.ok or self.result is None:
                raise ValueError(f"no result on a {self.status!r} "
                                 f"response ({self.error})")
            self._kernel = TunedKernel.from_dict(self.result)
        return self._kernel

    def to_dict(self) -> Dict:
        return {"schema": 1, "digest": self.digest, "job_id": self.job_id,
                "status": self.status, "result": self.result,
                "history_digest": self.history_digest,
                "stats": dict(self.stats), "wall": self.wall,
                "error": self.error, "served_from": self.served_from}

    @staticmethod
    def from_dict(data: Dict) -> "TuneResponse":
        check_schema(data, "TuneResponse")
        return TuneResponse(
            digest=data["digest"], job_id=data.get("job_id", ""),
            status=data.get("status", "done"),
            result=data.get("result"),
            history_digest=data.get("history_digest"),
            stats=dict(data.get("stats") or {}),
            wall=float(data.get("wall") or 0.0),
            error=data.get("error"),
            served_from=data.get("served_from"))


__all__ = ["TuneRequest", "TuneResponse", "default_n", "history_digest",
           "parse_context"]
