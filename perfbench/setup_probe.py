"""Set-up probe: import ``repro``, build the session a workload starts
with, print ``ready`` and exit.  ``workloads.probe_setup`` times this
process from spawn to the ``ready`` line.

Usage: ``python3 perfbench/setup_probe.py <workload> <work dir>``
"""

import shutil
import sys
import tempfile

if __name__ == "__main__":
    workload, work = sys.argv[1], sys.argv[2]
    from repro import TuneConfig, TuningSession

    cache = (tempfile.mkdtemp(prefix="evalcache-", dir=work)
             if workload == "tune-l1-cold" else None)
    session = TuningSession(TuneConfig(
        jobs=2 if workload == "tune-l3-pool" else 1, cache_dir=cache))
    print("ready", flush=True)
    session.close()
    if cache is not None:
        shutil.rmtree(cache, ignore_errors=True)
