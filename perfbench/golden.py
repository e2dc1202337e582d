"""Golden outputs: the answer of every job any seed can draw.

``golden.json`` maps each job key (:func:`problems.job_key`) to the
best cycles, best parameters, MFLOPS, evaluation count and search
history digest of an in-process, serial ``TuningSession`` run of that
job.  The benchmark compares every job it completes with this table,
so a change that alters a search result fails the run.

Regenerate (only when a change is meant to alter search results)::

    python3 perfbench/golden.py --write
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, Iterable, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"


def outcome_of_tuned(tuned, digest: str) -> Dict:
    """The checked fields of an in-process :class:`TunedKernel`."""
    return {"best_cycles": tuned.search.best_cycles,
            "params": tuned.params.to_dict(),
            "mflops": tuned.timing.mflops,
            "evaluations": tuned.search.n_evaluations,
            "history_digest": digest}


def outcome_of_response(response) -> Dict:
    """The same fields of a daemon :class:`TuneResponse`."""
    result = response.result or {}
    search = result.get("search") or {}
    return {"best_cycles": search.get("best_cycles"),
            "params": result.get("params"),
            "mflops": (result.get("timing") or {}).get("mflops"),
            "evaluations": search.get("n_evaluations"),
            "history_digest": response.history_digest}


def mismatch(expected: Optional[Dict], got: Dict) -> Optional[str]:
    """None when ``got`` equals the golden entry, else a description.
    Floats compare exactly: the simulated machines are deterministic."""
    if expected is None:
        return "no golden entry"
    for field in ("best_cycles", "params", "mflops", "evaluations",
                  "history_digest"):
        want, have = expected.get(field), got.get(field)
        if json.dumps(want, sort_keys=True) != json.dumps(have,
                                                          sort_keys=True):
            return f"{field}: expected {want!r}, got {have!r}"
    return None


def load() -> Dict[str, Dict]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)["jobs"]


def compute(jobs: Iterable[Dict]) -> Dict[str, Dict]:
    """Run every job serially in-process, one session per search
    configuration."""
    from repro import Context, TuneConfig, TuningSession, history_digest
    from problems import job_key

    by_config: Dict[tuple, List[Dict]] = {}
    for j in jobs:
        by_config.setdefault((j["strategy"], j["seed"], j["budget"]),
                             []).append(j)
    out: Dict[str, Dict] = {}
    for (strategy, seed, budget), group in sorted(by_config.items()):
        config = TuneConfig(jobs=1, strategy=strategy, seed=seed,
                            max_evals=budget)
        with TuningSession(config) as session:
            for j in group:
                tuned = session.tune(j["kernel"], j["machine"],
                                     Context(j["context"]), j["n"])
                out[job_key(j)] = outcome_of_tuned(
                    tuned, history_digest(tuned.search))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help="recompute every golden entry and rewrite "
                         "golden.json")
    args = ap.parse_args(argv)
    if not args.write:
        ap.error("nothing to do (pass --write)")
    import problems
    jobs = (problems.l1_universe() + problems.l3_universe()
            + problems.serve_universe())
    table = compute(jobs)
    GOLDEN_PATH.write_text(json.dumps(
        {"schema": 1, "jobs": dict(sorted(table.items()))},
        indent=1, sort_keys=True) + "\n")
    print(f"golden: {len(table)} jobs -> {GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(HERE.parent / "src"))
    raise SystemExit(main())
