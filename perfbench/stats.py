"""Statistics helpers of the benchmark: medians, the tail percentile,
geometric means, peak resident memory and the host-speed calibration."""

from __future__ import annotations

import math
import resource
import statistics
import time
from typing import Optional, Sequence, Tuple

#: the tail percentile must have at least this many samples beyond it
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND
         ) -> Optional[Tuple[float, float]]:
    """The highest percentile with at least ``beyond`` samples above
    it, as ``(value, percentile)``, by nearest rank: with ``n`` sorted
    samples that is rank ``n - beyond``, the ``100 (n - beyond) / n``-th
    percentile.  None when there are not more than ``beyond`` samples."""
    n = len(values)
    if n <= beyond:
        return None
    rank = n - beyond
    return float(sorted(values)[rank - 1]), 100.0 * rank / n


def geomean(values: Sequence[float]) -> float:
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb(*hwm_kb: int) -> float:
    """Highest peak RSS, in MB, of this process, of every child it has
    waited for (pool workers, set-up probes, the daemon) and of any
    extra ``VmHWM`` readings (in kB) taken from live processes."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max((own, children) + hwm_kb) / 1024.0


def vm_hwm_kb(pid: int) -> int:
    """The peak RSS (``VmHWM``, kB) of a live process, 0 if unknown."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


#: iterations of each calibration loop
CAL_ITERS = 16000
CAL_NODES = 3000
#: the calibration probe's time on the reference host state: the fast
#: state of the 2-core host the benchmark was written on
CAL_REF_S = 0.004


class _Node:
    __slots__ = ("op", "args", "uses")


def _dict_loop() -> None:
    d: dict = {}
    for i in range(CAL_ITERS):
        k = (i * 7919) % 1009
        d[k] = d.get(k, 0) + len(str(k))


def _object_loop() -> None:
    nodes, table = [], {}
    for i in range(CAL_NODES):
        node = _Node()
        node.op, node.args, node.uses = i % 7, (i, i >> 1), []
        nodes.append(node)
        table[(node.op, i & 255)] = node
    for node in nodes:
        hit = table.get((node.op, node.args[1] & 255))
        if hit is not None:
            hit.uses.append(node)
    nodes.sort(key=lambda n: (n.op, -n.args[0]))


def calibrate() -> float:
    """A probe of the host's current speed, independent of the program
    under test: the geometric mean of two fixed pure-Python loops — one
    of dict and string operations, one building and sorting a small
    object graph — each the faster of two tries.  Either loop alone
    tracked the program's slow-downs less closely than the pair."""
    times = []
    for loop in (_dict_loop, _object_loop):
        best = float("inf")
        for _ in range(2):
            t = time.perf_counter()
            loop()
            best = min(best, time.perf_counter() - t)
        times.append(best)
    return math.sqrt(times[0] * times[1])


def normalized(seconds: float, cal_s: float) -> float:
    """``seconds`` measured while :func:`calibrate` read ``cal_s``,
    rescaled to the reference host speed (:data:`CAL_REF_S`)."""
    return seconds * CAL_REF_S / cal_s
