"""The benchmark's problem universes and its seeded draws.

Every job the benchmark can issue comes from one of three finite
universes, so the golden file (``golden.json``) can hold the answer of
every job any seed can draw.  ``--seed`` picks the order of problems,
how they are grouped into rounds and, for ``serve-repeat``, how they
are split between the clients and each request's strategy seed; the
program only ever sees the resulting requests.  The in-process
workloads fix each problem's strategy seed: with a few dozen jobs a
pass, drawing them moved the median job by more than the host noise
did.

Why these universes (see README.md for the layer map):

* ``tune-l1-cold`` is the paper's own workload: the fourteen Table 1
  kernels on both machines, out of cache (N=80000) and in L2 (N=1024),
  tuned by the modified line search at a fixed budget.  Rounds are
  Latin-balanced: four consecutive rounds cover all 56 problems once,
  and every round holds each kernel exactly once, so the work in a
  round barely depends on the seed.
* ``tune-l3-pool`` is the Level-3 family: blocked dgemm/sgemm at 512
  (out of cache) and 160 (in L2) plus stencil3 and sumsq, on both
  machines, half of them under the surrogate strategy and half under
  random, on a fixed checkerboard.  Every round holds two gemm
  problems and four vector nests.
* ``serve-repeat`` sends the fourteen Level-1 kernels to the daemon,
  each on one (machine, context) cell of a fixed Latin assignment
  (every cell three or four times), with the random strategy.  The
  seed splits them between the two clients, orders them and draws each
  pass-1 strategy seed.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Tuple

MACHINES = ("p4e", "opteron")
L1_KERNELS = ("sswap", "dswap", "sscal", "dscal", "scopy", "dcopy",
              "saxpy", "daxpy", "sdot", "ddot", "sasum", "dasum",
              "isamax", "idamax")
L1_SIZES = (("out-of-cache", 80000), ("in-L2-cache", 1024))
GEMM_KERNELS = ("dgemm", "sgemm")
GEMM_SIZES = (("out-of-cache", 512), ("in-L2-cache", 160))
NEST_VECTOR_KERNELS = ("dstencil3", "sstencil3", "dsumsq", "ssumsq")

L1_BUDGET = 20
L3_BUDGET = 32
L3_STRATEGIES = ("surrogate", "random")
L3_SEEDS = (0, 1, 2)
SERVE_BUDGET = 16
SERVE_STRATEGY = "random"
#: pass-1 strategy seeds (pass 2 uses the next one)
SERVE_SEEDS = (0, 1, 2)

#: the seed used while writing a change; HELD_OUT_SEED is never used
#: then, and backs later claims on a fresh draw
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001


def job(kernel: str, machine: str, context: str, n: int, strategy: str,
        seed: int, budget: int) -> Dict:
    return {"kernel": kernel, "machine": machine, "context": context,
            "n": n, "strategy": strategy, "seed": seed, "budget": budget}


def job_key(j: Dict) -> str:
    """The golden file's key of one job."""
    return (f"{j['kernel']}:{j['machine']}:{j['context']}:{j['n']}:"
            f"{j['strategy']}:{j['seed']}:{j['budget']}")


def _rng(seed: int, *salt) -> random.Random:
    return random.Random(repr((seed,) + salt))


# ---------------------------------------------------------------------------
# universes (every job a draw can produce)

def l1_universe() -> List[Dict]:
    return [job(k, m, c, n, "line", 0, L1_BUDGET)
            for k in L1_KERNELS for m in MACHINES for c, n in L1_SIZES]


def _l3_problems() -> List[Tuple[str, str, str, int, str, int]]:
    """The 24 nest problems, each with its strategy and strategy seed:
    the strategy on a checkerboard over (kernel, machine, context), so
    every kernel, machine and context meets both equally often; the
    seed cycles through :data:`L3_SEEDS`."""
    out = []
    for kernels, sizes in ((GEMM_KERNELS, GEMM_SIZES),
                           (NEST_VECTOR_KERNELS, L1_SIZES)):
        for i, k in enumerate(kernels):
            for j, m in enumerate(MACHINES):
                for l, (c, n) in enumerate(sizes):
                    out.append((k, m, c, n,
                                L3_STRATEGIES[(i + j + l) % 2],
                                L3_SEEDS[len(out) % len(L3_SEEDS)]))
    return out


def l3_universe() -> List[Dict]:
    return [job(k, m, c, n, s, seed, L3_BUDGET)
            for k, m, c, n, s, seed in _l3_problems()]


def _serve_problems() -> List[Tuple[str, str, str, int]]:
    """The 14 serve problems: kernel ``i`` on (machine, context) cell
    ``i mod 4``."""
    cells = [(m, c, n) for m in MACHINES for c, n in L1_SIZES]
    return [(k,) + cells[i % len(cells)] for i, k in enumerate(L1_KERNELS)]


def serve_universe() -> List[Dict]:
    seeds = sorted(set(SERVE_SEEDS) | {s + 1 for s in SERVE_SEEDS})
    return [job(k, m, c, n, SERVE_STRATEGY, seed, SERVE_BUDGET)
            for k, m, c, n in _serve_problems() for seed in seeds]


# ---------------------------------------------------------------------------
# seeded draws: endless streams of rounds

def l1_rounds(seed: int) -> Iterator[List[Dict]]:
    """Rounds of 14 jobs, one per kernel.  Within an epoch of four
    rounds kernel ``k`` visits every (machine, context) cell once, from
    a seeded offset; the offsets are balanced so each round holds every
    cell three or four times."""
    cells = [(m, c, n) for m in MACHINES for c, n in L1_SIZES]
    epoch = 0
    while True:
        rng = _rng(seed, "l1", epoch)
        offsets = [i % len(cells) for i in range(len(L1_KERNELS))]
        rng.shuffle(offsets)
        cell_order = list(range(len(cells)))
        rng.shuffle(cell_order)
        for r in range(len(cells)):
            jobs = [job(k, *cells[cell_order[(off + r) % len(cells)]],
                        "line", 0, L1_BUDGET)
                    for k, off in zip(L1_KERNELS, offsets)]
            rng.shuffle(jobs)
            yield jobs
        epoch += 1


def l3_rounds(seed: int) -> Iterator[List[Dict]]:
    """Rounds of six jobs: two gemm problems and four vector nests, in
    a seeded order; an epoch of four rounds covers all 24 problems."""
    problems = _l3_problems()
    gemm, vec = problems[:8], problems[8:]
    epoch = 0
    while True:
        rng = _rng(seed, "l3", epoch)
        g, v = gemm[:], vec[:]
        rng.shuffle(g)
        rng.shuffle(v)
        for r in range(4):
            picks = g[2 * r:2 * r + 2] + v[4 * r:4 * r + 4]
            rng.shuffle(picks)
            yield [job(k, m, c, n, s, st_seed, L3_BUDGET)
                   for k, m, c, n, s, st_seed in picks]
        epoch += 1


def serve_lists(seed: int, clients: int = 2) -> List[List[Dict]]:
    """Disjoint pass-1 request lists, one per client, covering the
    fourteen serve problems once between them in a seeded order, each
    with a drawn strategy seed."""
    rng = _rng(seed, "serve")
    problems = _serve_problems()
    rng.shuffle(problems)
    reqs = [job(k, m, c, n, SERVE_STRATEGY, rng.choice(SERVE_SEEDS),
                SERVE_BUDGET) for k, m, c, n in problems]
    return [reqs[i::clients] for i in range(clients)]


def next_seed(j: Dict) -> Dict:
    """Pass 2 of serve-repeat: the same problem with the next seed."""
    return dict(j, seed=j["seed"] + 1)
