"""Persistent, content-addressed cache of kernel evaluations.

Every ifko evaluation is a pure function of (kernel source, machine,
context, problem size, transform parameters, code version): the
simulated machines are deterministic and the timer's pseudo-noise is
seeded from the same identity.  That makes evaluations perfectly
cacheable *across runs and processes* — the way an ATLAS install
records its search so a reinstall does not re-time the world.

The cache is a :class:`repro.store.DigestDir` of tiny JSON files named
by the SHA-256 of the key tuple ``(hil_hash, machine, context, n,
params.key(), __version__)``.  One file per entry keeps concurrent
writers trivially safe (the store's atomic write-then-rename), and
including ``__version__`` in the key means stale entries are never
reused across code changes — they are simply never looked up again.
This class adds only the value rule: an entry is ``{"cycles": <finite
float>, ...meta}``.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Optional, Tuple

from ..store import DigestDir


def eval_key(hil: str, machine_name: str, context, n: int,
             params_key: Tuple, version: str) -> str:
    """SHA-256 digest naming one evaluation.

    ``context`` may be a :class:`repro.machine.Context` or its string
    value; ``params_key`` is ``TransformParams.key()`` (a nested tuple
    of primitives, so its ``repr`` is stable).
    """
    hil_hash = hashlib.sha256(hil.encode()).hexdigest()
    ctx = getattr(context, "value", str(context))
    blob = repr((hil_hash, machine_name, ctx, int(n), params_key, version))
    return hashlib.sha256(blob.encode()).hexdigest()


class EvalCache:
    """Disk dictionary: evaluation digest -> cycle count."""

    def __init__(self, root: str):
        self.dir = DigestDir(root)

    def get(self, digest: str) -> Optional[float]:
        """Cycles for ``digest``, or None (corrupt entries count as
        misses and are recomputed, never raised).  Non-finite cycle
        counts are corrupt by definition — a NaN/inf served as a hit
        would poison every search that touches the entry — so they too
        count as misses and are recomputed."""
        data = self.dir.get(digest)
        try:
            cycles = float(data["cycles"])
        except (KeyError, ValueError, TypeError):
            return None
        return cycles if math.isfinite(cycles) else None

    def put(self, digest: str, cycles: float,
            meta: Optional[Dict] = None) -> None:
        """Record an evaluation; a concurrent reader sees either
        nothing or the full entry.  Non-finite cycle counts are refused
        outright: failed evaluations (``inf``) are not measurements,
        and persisting one would poison searches across runs."""
        if not math.isfinite(cycles):
            return
        data = dict(meta or {})
        data["cycles"] = float(cycles)
        self.dir.put(digest, data)

    def __len__(self) -> int:
        return len(self.dir)
