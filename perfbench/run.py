"""torusflow benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload ch_sweep --seed 0 --seconds 30 --trace 0

The seed goes into the preset perturbation seed of the generated config.
With ``--trace 0`` the workload runs in at least three fresh interpreters
(worker.py), one after another, until ``--seconds`` would be exceeded, and
the end-to-end metrics are the medians over them.  With ``--trace 1`` a cold
repetition, a traced one and an untraced one run in this process, and the
per-layer metrics are reported.  The next-to-last line of standard output
holds the machine facts; the last line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  Spans and a result file
go to perfbench/_work/.  ``--write-spec`` rewrites BENCHMARK.json from the
definitions below.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

RUN_SECONDS = 30
# each repetition runs in a fresh interpreter, as a user's does: repetitions
# within one process agree to a few percent, but processes differ by up to
# 20% on the shared machine, so the median is taken over processes
MIN_PROCESSES = 3
# the box is small and shared: one BLAS/OpenMP thread keeps the numbers about
# the solver rather than the scheduler (numpy's pocketfft is single-threaded)
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

WORKLOAD_WHY = {
    "ch_sweep": "nsch eps-sweep, n=64, t_end 0.02: phase_dt sets the step, so step count "
    "dominates; a larger-step scheme shows here",
    "ac_sweep": "nsac eps-sweep, n=64, t_end 0.5: the acoustic CFL sets the step, so it "
    "isolates per-step cost and bypasses the step-count lever",
    "run_audit": "torusflow run (nsac, n=128, snapshot every 5 steps) then audit: energy "
    "diagnostics on the 2x grid and snapshot io dominate",
}
END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "ok_frac", "unit": "frac", "better": "higher", "bound": 0.05},
]


def benchmark_spec(layer_metrics: dict) -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOAD_WHY.items()],
        "end_to_end": END_TO_END,
        "per_layer": [
            {"name": n, "unit": unit, "better": better}
            for n, (unit, better) in layer_metrics.items()
        ],
    }


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOAD_WHY))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json")
    args = p.parse_args(argv)
    if not args.write_spec and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _import_torusflow():
    """Import torusflow from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import torusflow
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import torusflow from {SRC}: {exc}")
    if Path(torusflow.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: torusflow imported from {torusflow.__file__}, not {SRC}")


def machine_facts() -> dict:
    import numpy as np

    pocketfft = any(
        importlib.util.find_spec(m) is not None
        for m in ("numpy.fft._pocketfft_umath", "numpy.fft._pocketfft_internal")
    )
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "torusflow").glob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": "numpy pocketfft" if pocketfft else "numpy.fft (backend unknown)",
        "src_lines": src_lines,
    }


def _fresh_repetition(name: str, config_path: Path, outdir: Path) -> dict:
    """One repetition in a fresh interpreter (see worker.py)."""
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), name, str(config_path), str(outdir)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker failed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    _import_torusflow()
    import tracing
    import workloads

    if args.write_spec:
        spec = benchmark_spec(tracing.LAYER_METRICS)
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")
        return 0

    name = args.workload
    workdir = WORK / f"{name}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    record = {"workload": name, "seed": args.seed, "trace": args.trace}
    try:
        config_path = workloads.write_config(name, args.seed, workdir)
        outdir = workdir / "out"
        if args.trace:
            tallies, values = _traced_run(workloads, tracing, name, config_path, outdir, record)
            units = {k: u for k, (u, _) in tracing.LAYER_METRICS.items()}
        else:
            reps = []
            start = time.perf_counter()
            while True:
                reps.append(_fresh_repetition(name, config_path, outdir))
                elapsed = time.perf_counter() - start
                median_wall = statistics.median(r["wall_s"] for r in reps)
                if len(reps) >= MIN_PROCESSES and elapsed + median_wall > args.seconds:
                    break
            tallies = [workloads.Tally(r["attempted"], r["failed"], r["failures"]) for r in reps]
            values = {
                m: statistics.median(r[m] for r in reps)
                for m in ("wall_s", "setup_s", "peak_rss_mb")
            }
            units = {m["name"]: m["unit"] for m in END_TO_END}
            record["repetitions"] = reps
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    if not args.trace:
        values["ok_frac"] = 1.0 - failed / attempted
    for t in tallies:
        for what in t.failures:
            print(f"perfbench: failed: {what}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    facts = machine_facts()
    record.update(machine=facts, result=result)
    (WORK / f"result_{name}.json").write_text(json.dumps(record, indent=2) + "\n")
    print("machine " + json.dumps(facts))
    print(json.dumps(result))
    return 0


def _traced_run(workloads, tracing, name, config_path, outdir, record):
    """A cold repetition, a traced one and an untraced twin, in this process."""
    prepared = workloads.prepare(name, config_path)
    tallies = []

    # nullcontext(name) is the do-nothing span of an untraced repetition
    def repetition(span=contextlib.nullcontext):
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir()
        t0 = time.perf_counter()
        tallies.append(workloads.run_once(name, prepared, config_path, outdir, span))
        return time.perf_counter() - t0

    record["cold_wall_s"] = repetition()
    tracer = tracing.Tracer(run_id=f"{name}-seed{record['seed']}-pid{os.getpid()}")
    tracer.install()
    try:
        traced_wall = repetition(tracer.span)
    finally:
        tracer.uninstall()
    wall = repetition()
    values = tracer.layer_metrics()
    values["trace.overhead_s"] = traced_wall - wall
    tracer.write_spans(WORK / f"spans_{name}.csv")
    record.update(untraced_wall_s=wall, traced_wall_s=traced_wall)
    return tallies, values


if __name__ == "__main__":
    sys.exit(main())
