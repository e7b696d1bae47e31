"""Write a BENCH_<label>.json record: a parent commit against this working tree.

    python3 tools/bench_record.py --label run_loop --parent HEAD \
        --seeds 1301-1310 [--seconds 30] [--workloads run_audit,ac_sweep,ch_sweep]

The parent tree is unpacked from ``git archive <parent>`` into a temporary
directory; the change is the working tree this script sits in.  For each
workload, pair i runs ``python3 perfbench/run.py --workload W --seed S_i
--seconds N --trace 0`` on both trees, the parent first in odd pairs and the
change first in even ones.  Then ``--trace 1`` runs at the traced seed in
alternating pairs: the counts must repeat exactly, and the timings are the
medians over the runs.  One more in-process run per tree counts ETD
table-set builds (``table_builds``, cache misses of
``stepper._cached_tables``).  Last come the per-layer table (the energy
reports and one compressible step timed in each tree, in alternating rounds,
see LAYER_SCRIPT) and the tier-1 suite of each tree, timed in alternating
rounds.  The record has the schema ``tests/test_bench_records.py`` checks.
Runs are one after another, so the record takes about
2 x pairs x workloads x seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ch_sweep", "ac_sweep", "run_audit")
END_TO_END = {"wall_s": "lower", "setup_s": "lower", "peak_rss_mb": "lower", "ok_frac": "higher"}
# traced counters that repeat exactly from run to run; the rest are timings
EXACT = (
    "stepper.steps",
    "dynamics.rhs_calls",
    "stepper.rhs_per_step",
    "spectral.refine_calls",
    "spectral.fft_calls",
    "spectral.fft_arrays",
    "diagnostics.energy_calls",
    "diagnostics.modulated_calls",
)
TRACED = EXACT + (
    "diagnostics.energy_self_s",
    "diagnostics.modulated_self_s",
    "spectral.refine_s",
    "spectral.fft_s",
    "stepper.step_self_s",
    "dynamics.rhs_self_s",
    "cli.run_s",
    "cli.audit_s",
    "dynamics.rhs_ms",
    "stepper.step_ms",
)

# counts ETD table-set builds in one in-process repetition; argv: workload, seed, workdir
TABLE_BUILDS_SCRIPT = """
import contextlib, sys
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
import workloads
from torusflow import stepper
name, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
builds = [0]
cached = stepper._cached_tables
def counted(regime, key, dt, build):
    def counting_build():
        builds[0] += 1
        return build()
    return cached(regime, key, dt, counting_build)
stepper._cached_tables = counted
config = workloads.write_config(name, seed, work)
(work / "out").mkdir()
prepared = workloads.prepare(name, config)
with contextlib.redirect_stdout(sys.stderr):
    workloads.run_once(name, prepared, config, work / "out", contextlib.nullcontext)
print(builds[0])
"""

# one round of the per-layer table: medians of `calls` warm calls after one
# warm-up, on the 2-d taylor_green_bubble well-prepared state (eps 0.1,
# kappa0 1.0, seed 7); faults are minor page faults per call (getrusage),
# the peak is the tracemalloc peak of one warm call in fine-grid real arrays
LAYER_SCRIPT = """
import json, resource, statistics, sys, time, tracemalloc
sys.path.insert(0, "src")
from torusflow.constitutive import Constitutive, ModelKind
from torusflow.diagnostics import energy_compressible, modulated_energy
from torusflow.dynamics import IncompressibleState, initial_from_preset, well_prepared_initial
from torusflow.spectral import TorusGrid
from torusflow.stepper import step_compressible_rk4
calls = int(sys.argv[1])
c = Constitutive()
out = {}
def measure(fn, peak=True):
    fn()
    times = []
    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0) / calls
    row = {"ms": 1e3 * statistics.median(times), "faults": faults}
    if peak:
        tracemalloc.start()
        fn()
        row["peak"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return row
for n in (64, 128):
    g = TorusGrid(2, n)
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    fine = (2 * n) ** 2 * 8
    rows = {}
    for model in ModelKind:
        cs = well_prepared_initial(u0, phi0, 0.1, 1.0, 7, model)
        rows["energy_compressible_" + model.value] = measure(lambda: energy_compressible(cs, c))
    is_ = IncompressibleState(u0, phi0, ModelKind.CH)
    cs = well_prepared_initial(u0, phi0, 0.1, 1.0, 7, ModelKind.CH)
    rows["modulated_energy"] = measure(lambda: modulated_energy(cs, is_, c))
    ac = well_prepared_initial(u0, phi0, 0.1, 1.0, 7, ModelKind.AC)
    rows["step_compressible_rk4_nsac"] = measure(lambda: step_compressible_rk4(ac, 1e-3, c), False)
    for row in rows.values():
        if "peak" in row:
            row["peak"] /= fine
    out[str(n)] = rows
print(json.dumps(out))
"""


MACHINE_SCRIPT = """
import json, sys
sys.path.insert(0, "perfbench")
import run
print(json.dumps(run.machine_facts()))
"""


def _parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def _alternating(rounds: int):
    """(round, side) in run order: the parent first in even rounds."""
    for r in range(rounds):
        for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
            yield r, side


def _run(tree: Path, args: list) -> dict:
    """The result line of perfbench/run.py in a tree."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _quartiles(runs: list) -> dict:
    q1, med, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(med, 4), "q3": round(q3, 4), "n": len(runs)}


def _workload_record(trees: dict, name: str, seeds: list, seconds: int,
                     traced_seed: int, traced_runs: int) -> dict:
    runs = {side: {m: [] for m in END_TO_END} for side in trees}
    failed = {side: 0 for side in trees}
    for i, side in _alternating(len(seeds)):
        res = _run(trees[side], ["--workload", name, "--seed", str(seeds[i]),
                                 "--seconds", str(seconds), "--trace", "0"])
        for m in END_TO_END:
            runs[side][m].append(round(res["metrics"][m]["value"], 4))
        failed[side] += res["failed"]
        print(f"{name} seed {seeds[i]} {side}: wall {runs[side]['wall_s'][-1]}", file=sys.stderr)
    rec = {}
    for m, better in END_TO_END.items():
        p, c = runs["parent"][m], runs["change"][m]
        wins = sum((b < a) if better == "lower" else (b > a) for a, b in zip(p, c))
        rec[m] = {
            "parent": _quartiles(p),
            "change": _quartiles(c),
            "change_wins": wins,
            "pairs": len(seeds),
            "runs": {"parent": p, "change": c},
        }
    rec["failed_ops"] = failed
    samples = {side: [] for side in trees}
    for _, side in _alternating(traced_runs):
        res = _run(trees[side], ["--workload", name, "--seed", str(traced_seed),
                                 "--seconds", "1", "--trace", "1"])
        samples[side].append({k: res["metrics"][k]["value"] for k in TRACED})
    traced = {"seed": traced_seed, "runs": traced_runs}
    for side, tree in trees.items():
        first = samples[side][0]
        if any(s[k] != first[k] for s in samples[side] for k in EXACT):
            raise SystemExit(f"bench_record: traced counts of {name} ({side}) do not repeat")
        values = {
            k: first[k] if k in EXACT else statistics.median(s[k] for s in samples[side])
            for k in TRACED
        }
        with tempfile.TemporaryDirectory() as work:
            builds = subprocess.run(
                [sys.executable, "-c", TABLE_BUILDS_SCRIPT, name, str(traced_seed), work],
                cwd=tree, capture_output=True, text=True, check=True,
            )
        values["table_builds"] = int(builds.stdout.split()[-1])
        traced[side] = {k: round(v, 4) if isinstance(v, float) else v for k, v in values.items()}
    rec["traced"] = traced
    return rec


def _layers(trees: dict, rounds: int, calls: int) -> dict:
    """Per-layer rows, each the median over alternating rounds."""
    samples = {side: [] for side in trees}
    for _, side in _alternating(rounds):
        proc = subprocess.run(
            [sys.executable, "-c", LAYER_SCRIPT, str(calls)],
            cwd=trees[side], capture_output=True, text=True, check=True,
        )
        samples[side].append(json.loads(proc.stdout.splitlines()[-1]))
    out = {}
    for side, rows in samples.items():
        out[side] = {
            n: {
                layer: {
                    q: round(statistics.median(r[n][layer][q] for r in rows), 3)
                    for q in rows[0][n][layer]
                }
                for layer in rows[0][n]
            }
            for n in rows[0]
        }
    return out


def _tier1(trees: dict, rounds: int) -> dict:
    """Wall time of each tree's own tier-1 suite, in alternating rounds."""
    walls = {side: [] for side in trees}
    summary = {}
    for _, side in _alternating(rounds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=trees[side], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src"},
        )
        walls[side].append(round(time.perf_counter() - t0, 2))
        summary[side] = proc.stdout.strip().splitlines()[-1]
    return {
        "method": (
            f"python -m pytest -q in each tree with PYTHONPATH=src, {rounds} alternating "
            "rounds; wall_s includes interpreter start and collection"
        ),
        **{side: {"wall_s": walls[side], "median_s": statistics.median(walls[side]),
                  "summary": summary[side]} for side in trees},
    }


def _src_lines(tree: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (tree / "src" / "torusflow").glob("*.py"))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--parent", required=True, help="git revision of the parent tree")
    p.add_argument("--seeds", required=True, help="e.g. 1301-1310 or 5,6,7")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--traced-seed", type=int, default=11)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--layer-rounds", type=int, default=3)
    p.add_argument("--layer-calls", type=int, default=15)
    p.add_argument("--traced-runs", type=int, default=5)
    p.add_argument("--tier1-rounds", type=int, default=3)
    p.add_argument("--change", default="", help="one-paragraph description of the change")
    args = p.parse_args(argv)
    seeds = _parse_seeds(args.seeds)
    names = args.workloads.split(",")

    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp) / "parent"
        parent.mkdir()
        archive = Path(tmp) / "parent.tar"
        with open(archive, "wb") as fh:
            subprocess.run(["git", "archive", args.parent], cwd=ROOT, stdout=fh, check=True)
        with tarfile.open(archive) as tar:
            tar.extractall(parent, filter="data")
        trees = {"parent": parent, "change": ROOT}
        machine = json.loads(subprocess.run(
            [sys.executable, "-c", MACHINE_SCRIPT], cwd=ROOT,
            capture_output=True, text=True, check=True,
        ).stdout)
        record = {
            "label": args.label,
            "change": args.change,
            "method": (
                f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds} "
                f"--trace 0 on the parent tree (git archive of {args.parent}) and on the "
                f"change tree, {len(seeds)} pairs per workload on seeds {args.seeds}, one "
                "seed per pair on both sides, odd pairs parent first and even pairs change "
                "first; each run "
                "reports the median over its fresh-interpreter repetitions, the quartiles are "
                "over the runs of one side, and change_wins counts pairs where the change "
                "reads better (ties count for neither). Traced: --trace 1 at seed "
                f"{args.traced_seed} in {args.traced_runs} alternating runs per side, "
                "counts equal in every run, timings the median; table_builds counts ETD "
                "table-set builds in one in-process run of workloads.run_once at that "
                "seed. Layers and tier1: see their method. Written by "
                "tools/bench_record.py."
            ),
            "machine": {
                **{k: machine[k] for k in ("nproc", "usable_cpus", "python", "numpy", "fft_backend")},
                "note": "shared machine; compare the two sides only within this file",
            },
            "src_lines": {side: _src_lines(tree) for side, tree in trees.items()},
            "workloads": {
                name: _workload_record(trees, name, seeds, args.seconds,
                                       args.traced_seed, args.traced_runs)
                for name in names
            },
            "layers": {
                "method": (
                    f"median over {args.layer_rounds} alternating parent/change rounds of the "
                    f"median of {args.layer_calls} warm calls after one warm-up, 2-d "
                    "taylor_green_bubble, well-prepared compressible state (eps 0.1, kappa0 "
                    "1.0, seed 7), constant viscosity; modulated_energy against the "
                    "incompressible preset state (nsch); step_compressible_rk4 at dt 1e-3 "
                    "(nsac). ms per call; faults: minor page faults per call (getrusage); "
                    "peak: tracemalloc peak of one warm call in fine-grid real arrays "
                    "((2n)^2 float64)."
                ),
                **_layers(trees, args.layer_rounds, args.layer_calls),
            },
            "tier1": _tier1(trees, args.tier1_rounds),
        }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
