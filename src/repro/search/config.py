"""Tuning configuration — the one options object for ifko runs.

`tune_kernel` historically accreted positional keywords (``max_evals``,
``space``, ``run_tester``, ``start``); the engine adds five more
(``jobs``, ``cache_dir``, ``trace``, ``timeout``, ``resume``) and the
strategy layer two more (``strategy``, ``seed``).  Rather than an
eleven-keyword signature, everything that shapes *how* a search runs
lives here, and the drivers take ``config=TuneConfig(...)`` — the only
spelling (the pre-engine keyword shim was removed after its
deprecation window).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:   # only type hints; avoids import cycles
    from ..fko.params import TransformParams
    from .space import SearchSpace


@dataclass
class TuneConfig:
    """Everything that shapes one ifko search except the problem itself
    (kernel, machine, context, N stay as positional arguments)."""

    #: evaluation budget of the line search
    max_evals: int = 400
    #: explicit search space (default: built from FKO's analysis)
    space: Optional["SearchSpace"] = None
    #: verify the winning kernel against the NumPy reference; a failure
    #: emits a ``best-rejected`` trace event (when tracing) and raises
    #: :class:`~repro.errors.KernelTestFailure`
    run_tester: bool = True
    #: starting point (default: FKO's static defaults)
    start: Optional["TransformParams"] = None
    #: worker processes; 1 = serial (no pool is ever created)
    jobs: int = 1
    #: directory of the persistent, content-addressed evaluation cache
    #: shared across runs and processes; None disables persistence
    cache_dir: Optional[str] = None
    #: path of a JSON-lines search trace (one event per evaluation /
    #: phase / cache hit); None disables tracing
    trace: Optional[str] = None
    #: wall-clock seconds allowed per evaluation; None = unlimited
    timeout: Optional[float] = None
    #: path of a batch checkpoint file: completed jobs are recorded
    #: there and skipped when the batch is re-run; None disables
    resume: Optional[str] = None
    #: make the BF extension searchable (paper lists it as planned)
    enable_block_fetch: bool = False
    #: fraction a candidate must win by to displace the incumbent
    min_gain: float = 0.005
    #: global-search strategy, by registry name ("line" is the paper's
    #: modified line search; see ``repro.search.searcher_names()``)
    strategy: str = "line"
    #: seed of the strategy's random stream (the line search ignores it
    #: — the sweep is deterministic by construction)
    seed: int = 0
    #: collect pass-level compile spans and cycle attribution per eval
    #: and fold them into the trace (schema v2 ``pass`` / ``attribution``
    #: events).  Observation never perturbs results: cycles, cache keys
    #: and search decisions are bit-identical with it on or off
    observe: bool = False
    #: run the IR verifier at every pass boundary of every evaluation's
    #: compile (the pipeline's ``debug_verify``).  Verification only
    #: observes: cycles, cache keys and search decisions are
    #: bit-identical with it on or off — a violation raises instead
    verify_ir: bool = False
    #: directory of a ``repro serve`` result store to warm-start from:
    #: the engine wraps the strategy in the transfer layer and seeds it
    #: with the best params of the nearest previously-tuned problem
    #: (spelling variants canonicalize through the wire schema).  An
    #: operational knob like ``cache_dir`` — never part of a request's
    #: wire identity; None disables warm-starting
    warm_start: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_evals <= 0:
            raise ValueError(f"max_evals must be positive, "
                             f"got {self.max_evals}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, "
                             f"got {self.timeout}")
        # a negative min_gain would make every candidate "win" (each
        # move only needs to beat best * (1 - min_gain) > best), so the
        # search would thrash between equivalent points
        if self.min_gain < 0:
            raise ValueError(f"min_gain must be >= 0, got {self.min_gain}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) \
                or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, "
                             f"got {self.seed!r}")
        from .strategies import searcher_names, valid_strategy
        if not valid_strategy(self.strategy):
            raise ValueError(
                f"unknown search strategy {self.strategy!r}; valid "
                f"strategies: {', '.join(searcher_names())} "
                f"(or transfer:<strategy>)")

    def replace(self, **changes) -> "TuneConfig":
        return dataclasses.replace(self, **changes)

    def to_public_dict(self) -> dict:
        """The JSON-safe field subset — what the service daemon reports
        under ``GET /v1/stats``.  ``space`` and ``start`` are live
        objects (not wire data), so they are reported only by presence."""
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name in ("space", "start"):
                out[f.name] = None if value is None else "<set>"
            else:
                out[f.name] = value
        return out
