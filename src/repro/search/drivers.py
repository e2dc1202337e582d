"""ifko's master search driver (the paper's Figure 1).

"The search first passes the input kernel to be optimized to FKO for
analysis.  FKO then provides feedback to the master search based on
this analysis. ... For each optimization of interest that takes an
empirically tuned parameter, the search invokes FKO to perform the
transformation, the timer to determine its effect on performance, and
the tester to ensure that the answer is correct."

:func:`tune_kernel` is "ifko": analysis -> global search over the space
-> best compiled kernel, verified by the tester.
:func:`compile_default` is plain "FKO": static defaults, no search.

Both are thin fronts over :class:`repro.search.engine.TuningSession`;
how a search runs (budget, strategy, parallelism, caching, tracing)
is configured through ``config=TuneConfig(...)`` — the only
spelling: the pre-engine keyword shim (``max_evals``/``space``/
``run_tester``/``start`` as direct keywords) finished its deprecation
window and was removed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..fko import FKO, TransformParams
from ..fko.pipeline import CompiledKernel
from ..kernels import get_kernel
from ..kernels.blas1 import KernelSpec
from ..machine import Context, get_machine
from ..machine.config import MachineConfig
from ..timing.timer import KernelTiming
from ..util import check_schema
from .config import TuneConfig
from .linesearch import SearchResult


@dataclass
class TunedKernel:
    """The product of one ifko tuning run (``search=None`` when it came
    from :func:`compile_default` — same shape, no empirical search)."""

    spec: KernelSpec
    machine: MachineConfig
    context: Context
    n: int
    compiled: CompiledKernel
    timing: KernelTiming
    search: Optional[SearchResult] = None

    @property
    def params(self) -> TransformParams:
        return self.compiled.params

    @property
    def mflops(self) -> float:
        return self.timing.mflops

    # -- JSON round-trip (evaluation cache, checkpoints, result store) --
    def to_dict(self) -> Dict:
        """Summary form: the compiled IR is not serialized — FKO is
        deterministic, so ``from_dict`` recompiles it from the params."""
        return {"schema": 1,
                "kernel": self.spec.name, "machine": self.machine.name,
                "context": self.context.value, "n": self.n,
                "params": self.params.to_dict(),
                "timing": self.timing.to_dict(),
                "search": self.search.to_dict() if self.search else None}

    @classmethod
    def from_dict(cls, data: Dict) -> "TunedKernel":
        check_schema(data, "TunedKernel")
        spec = get_kernel(data["kernel"])
        machine = get_machine(data["machine"])
        params = TransformParams.from_dict(data["params"])
        compiled = FKO(machine).compile(spec.hil, params)
        search = (SearchResult.from_dict(data["search"])
                  if data.get("search") else None)
        return cls(spec=spec, machine=machine,
                   context=Context(data["context"]), n=int(data["n"]),
                   compiled=compiled,
                   timing=KernelTiming.from_dict(data["timing"]),
                   search=search)


def compile_default(spec: KernelSpec, machine: MachineConfig,
                    context: Context, n: int,
                    config: Optional[TuneConfig] = None) -> TunedKernel:
    """Plain FKO: static transformation defaults, no empirical search."""
    from .engine import TuningSession
    with TuningSession(config) as session:
        return session.compile_default(spec, machine, context, n)


def tune_kernel(spec: KernelSpec, machine: MachineConfig, context: Context,
                n: int, config: Optional[TuneConfig] = None) -> TunedKernel:
    """ifko: iterative compilation of one kernel for one machine/context.

    ``config`` carries the how (budget, space, start point, tester,
    ``jobs``, ``cache_dir``, ``trace``, ``strategy``,
    ``seed``); a one-shot session is created around it.  For many
    kernels, or to share one pool and cache, hold a
    :class:`~repro.search.engine.TuningSession` instead.
    """
    config = config or TuneConfig()
    from .engine import TuningSession
    with TuningSession(config) as session:
        return session.tune(spec, machine, context, n)
