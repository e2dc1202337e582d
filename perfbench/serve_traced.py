"""``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/serve_traced.py <dump dir> serve [args...]``

Runs the daemon exactly as ``python -m repro serve`` does and writes
its spans to ``<dump dir>/spans-<pid>.json`` when it shuts down.
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent

if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    import spans
    import repro.cli

    rec = spans.SpanRecorder(sys.argv[1])
    spans.install(rec)
    try:
        code = repro.cli.main(sys.argv[2:])
    finally:
        rec.dump()
    raise SystemExit(code)
