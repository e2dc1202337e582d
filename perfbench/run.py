"""The repository's end-to-end tuning benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tune-l1-cold --seed 1 --trace 0
    python3 perfbench/run.py --workload all          # every workload
    python3 perfbench/run.py --selfcheck             # exact-count check

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that gives the per-layer metrics.  Every job's
output is checked against ``golden.json``; a mismatch makes the run
exit with status 1.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the full
artifact (job answers, layer shares, sample counts) is written to
``.perfbench_work/results/`` in a form ``repro perf diff`` loads.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import problems  # noqa: E402
import workloads  # noqa: E402


def run_one(args) -> int:
    WORK.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        out = workloads.run(args.workload, args.seed, args.seconds, work,
                            traced=bool(args.trace), rounds=args.rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = len(out.jobs)
    failed = sum(1 for r in out.jobs if not r["ok"])
    share = layers.failed_share(out)
    if args.trace:
        values, details = layers.per_layer(out, workloads.L3_JOBS)
        table, notes = layers.PER_LAYER, {}
    else:
        values, notes = layers.end_to_end(out)
        table, details = layers.END_TO_END, {}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in table}
    for name, m in metrics.items():
        print(f"{args.workload:13s} {name:32s} {m['value']:14.6g} "
              f"{m['unit']:8s} {notes.get(name, '')}")
    if not args.trace:
        print(f"{args.workload:13s} {'failed_share':32s} {share:14.6g} "
              f"{'ratio':8s} {notes['failed_share']}")
    for r in out.jobs:
        if not r["ok"]:
            print(f"MISMATCH {r['key']}: {r['error']}", file=sys.stderr)

    artifact = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "rounds": args.rounds,
        "metrics": dict({k: m["value"] for k, m in metrics.items()},
                        failed_share=share),
        "notes": notes, "layers": details,
        "attempted": attempted, "mismatches": failed,
        "executions": [[r["key"], r["latency_s"], r["cal_s"]]
                       for r in out.jobs],
        "jobs": {r["key"]: {"best_cycles": r["best_cycles"],
                            "mflops": r["mflops"]} for r in out.jobs},
    }
    _artifact_path(args.workload, args.seed, args.trace, args.rounds) \
        .write_text(json.dumps(artifact, indent=1) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def _artifact_path(workload: str, seed: int, trace: int,
                   rounds=None) -> pathlib.Path:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    return results / (f"{workload}-seed{seed}-trace{trace}"
                      + (f"-rounds{rounds}" if rounds else "") + ".json")


def _child(workload: str, seed: int, seconds: float, trace: int,
           rounds=None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if rounds is not None:
        cmd += ["--rounds", str(rounds)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    return {"code": proc.returncode,
            "result": json.loads(lines[-1]) if lines else None}


def run_all(args) -> int:
    """Every workload, each in its own process, then one summary."""
    code, summary = 0, {}
    attempted = failed = 0
    for workload in workloads.WORKLOADS:
        child = _child(workload, args.seed, args.seconds, args.trace)
        res = child["result"]
        if child["code"] != 0 or res is None:
            code = 1
        if res is not None:
            attempted += res["attempted"]
            failed += res["failed"]
            summary[workload] = res["metrics"]
    print(json.dumps({"correct": code == 0 and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return code


def selfcheck(args) -> int:
    """Run each workload twice, shortened to ``--rounds`` rounds (one
    by default) and the fewest passes, traced, and require the
    deterministic counts to repeat exactly."""
    rounds = args.rounds or 1
    code = 0
    for workload in workloads.WORKLOADS:
        artifacts = []
        for _ in range(2):
            if _child(workload, args.seed, 1, 1, rounds=rounds)["code"]:
                code = 1
            path = _artifact_path(workload, args.seed, 1, rounds)
            artifacts.append(json.loads(path.read_text()))
        for name in layers.EXACT + layers.SCHEDULING_DEPENDENT:
            a, b = (art["metrics"].get(name, art["layers"].get(name))
                    for art in artifacts)
            kind = layers.exactness(name, workload == "tune-l3-pool")
            if a != b and kind == "exact":
                code = 1
            print(f"selfcheck {workload:13s} {name:32s} {a!r:>20} "
                  f"{b!r:>20} {kind} {'same' if a == b else 'DIFFERS'}")
    print(json.dumps({"selfcheck": "pass" if code == 0 else "fail"}))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="End-to-end tuning benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", default="all",
                    choices=("all",) + workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=problems.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=None,
                    help="distinct rounds per pass (problems per "
                         "client for serve-repeat) instead of a full "
                         "epoch; the self-check shortens runs with it")
    ap.add_argument("--selfcheck", action="store_true",
                    help="run every workload twice, shortened and "
                         "traced, and check that the counts repeat")
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # a terminated run unwinds like an interrupted one, so its daemons,
    # pools and set-up probes are stopped on the way out.  Catching
    # SIGINT here also hands every child the default disposition: a
    # run started with SIGINT ignored (in the background) would pass
    # that on, and the daemon could then not be shut down cleanly
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.selfcheck:
        return selfcheck(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
