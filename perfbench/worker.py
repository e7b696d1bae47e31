"""One repetition of a workload in a fresh interpreter, as a user runs it.

    python3 perfbench/worker.py <workload> <config.json> <outdir>

Times the set-up (torusflow import, config parsing, grid tables, initial
data), then the workload from its first integration to verified outputs,
and prints one JSON line with ``setup_s``, ``wall_s``, ``peak_rss_mb`` and
the operation tally.  run.py starts it several times per run.
"""

import contextlib
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    name, config_path, outdir = sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3])
    prepared = workloads.prepare(name, config_path)
    t1 = time.perf_counter()
    tally = workloads.run_once(name, prepared, config_path, outdir, contextlib.nullcontext)
    t2 = time.perf_counter()
    print(json.dumps({
        "setup_s": t1 - t0,
        "wall_s": t2 - t1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
