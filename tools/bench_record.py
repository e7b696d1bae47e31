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
``stepper._cached_tables``).  Last come the per-layer table and the tier-1
suite of each tree, timed in alternating rounds.  The per-layer table runs in
a process that loads both trees' packages side by side (see LAYER_SCRIPT):
each round calls a layer once per tree, so the paired ratios and the
sign-test count see the same machine state on both sides, and an A/A row (the
change against a second copy of itself) gives the noise floor.  Where a
package is loaded shifts its times by a few percent, so the table runs once
per load order (LOAD_ORDERS), and a row is ``resolved`` only where its ratio
leaves the A/A range in both.  The record has the schema
``tests/test_bench_records.py`` checks.
Runs are one after another, so the record takes about
2 x pairs x workloads x seconds.
"""

from __future__ import annotations

import argparse
import json
import math
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

# the per-layer times of one load order, in one process: both trees'
# src/torusflow load side by side, in the order of the JSON object, under
# their own package names (relative imports keep each tree's modules and
# one-slot caches apart), the change's twice for an A/A row.  After a
# warm-up, each round calls the layer once per side, the side order rotating
# from round to round; times are per call, on the 2-d taylor_green_bubble
# well-prepared state (eps 0.1, kappa0 1.0, seed 7); peak is the tracemalloc
# peak of one warm call in fine-grid real arrays.
# argv: calls, JSON {side: src/torusflow directory}
LAYER_SCRIPT = """
import gc, importlib, importlib.util, json, sys, time, tracemalloc
from pathlib import Path
calls, dirs = int(sys.argv[1]), json.loads(sys.argv[2])
WARM = 3
def load(name, pkg):
    spec = importlib.util.spec_from_file_location(
        name, Path(pkg) / "__init__.py", submodule_search_locations=[pkg])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return [importlib.import_module(f"{name}.{m}")
            for m in ("constitutive", "diagnostics", "dynamics", "spectral", "stepper")]
def layers(tree, n):
    C, D, Y, S, T = tree
    c, cfg, AC = C.Constitutive(), T.StepperConfig(), C.ModelKind.AC
    g = S.TorusGrid(2, n)
    u0, phi0 = Y.initial_from_preset("taylor_green_bubble", g)
    ch = Y.well_prepared_initial(u0, phi0, 0.1, 1.0, 7, C.ModelKind.CH)
    ac = Y.well_prepared_initial(u0, phi0, 0.1, 1.0, 7, AC)
    inc = Y.IncompressibleState(u0, phi0, C.ModelKind.CH)
    # states as integrate steps them: carrying a stack, fields read
    ac1 = T.step_compressible_rk4(ac, 1e-3, c)
    ch1 = T.step_compressible_rk4(ch, 1e-3, c)
    inc1 = T.step_incompressible_rk4(inc, 1e-3, c)
    ac1.as_arrays(), ch1.as_arrays(), inc1.as_arrays()
    half = S.batch_rfft(g, ac.as_arrays())
    return {
        "batch_rfft_4": lambda: S.batch_rfft(g, ac.as_arrays(), out=half),
        "rhs_compressible_hat_nsac": lambda: Y.rhs_compressible_hat(g, 0.1, ac1.stack, c, AC),
        "energy_compressible_nsch": lambda: D.energy_compressible(ch, c),
        "energy_compressible_nsac": lambda: D.energy_compressible(ac, c),
        "modulated_energy": lambda: D.modulated_energy(ch, inc, c),
        "modulated_energy_stepped": lambda: D.modulated_energy(ch1, inc1, c),
        "default_dt_nsac": lambda: T.default_dt(ac1, c, cfg),
        "default_dt_incompressible": lambda: T.default_dt(inc1, c, cfg),
        "step_compressible_rk4_nsac": lambda: T.step_compressible_rk4(ac, 1e-3, c),
        "step_from_stepped_nsac": lambda: T.step_compressible_rk4(ac1, 1e-3, c),
        "step_from_stepped_read_nsac": lambda: T.step_compressible_rk4(ac1, 1e-3, c).as_arrays(),
        "step_from_stepped_incompressible": lambda: T.step_incompressible_rk4(inc1, 1e-3, c),
    }
trees = {side: load(f"tf_{side}", d) for side, d in dirs.items()}
sides = list(trees)
out = {}
for n in (64, 128):
    fine = (2 * n) ** 2 * 8
    fns = {side: layers(tree, n) for side, tree in trees.items()}
    rows = {}
    for layer in fns[sides[0]]:
        times = {side: [] for side in sides}
        peak = {}
        for side in sides:
            for _ in range(WARM):
                fns[side][layer]()
            tracemalloc.start()
            fns[side][layer]()
            peak[side] = round(tracemalloc.get_traced_memory()[1] / fine, 3)
            tracemalloc.stop()
        gc.collect()
        for r in range(calls):
            for side in sides[r % len(sides):] + sides[: r % len(sides)]:
                fn = fns[side][layer]
                t0 = time.perf_counter()
                fn()
                times[side].append(time.perf_counter() - t0)
        rows[layer] = {"times": times, "peak": {"parent": peak["parent"], "change": peak["change"]}}
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


# the load orders of the layer table's packages
LOAD_ORDERS = {
    "parent_first": ("parent", "change", "change_aa"),
    "change_first": ("change", "change_aa", "parent"),
}


def _sign_p(wins: int, pairs: int) -> float:
    """Two-sided sign test of wins out of pairs (ties already dropped)."""
    k = min(wins, pairs - wins)
    return min(1.0, 2.0 * sum(math.comb(pairs, i) for i in range(k + 1)) / 2.0**pairs)


def _paired(a: list, b: list) -> tuple:
    """b against a: median ratio b/a, pairs b wins, sign test."""
    ratios = [y / x for x, y in zip(a, b)]
    wins, ties = sum(y < x for x, y in zip(a, b)), sum(y == x for x, y in zip(a, b))
    return round(statistics.median(ratios), 4), wins, float(f"{_sign_p(wins, len(a) - ties):.3g}")


def _layer_row(runs: dict) -> dict:
    """One layer's row from its times in each load order, {order: {side: [s]}}.

    The pooled fields pair the rounds of both orders.  aa_range is
    1 -+ the largest |A/A ratio - 1| of the orders; the row is resolved when
    its ratio lies on the same side outside that range in both orders."""
    pooled = {side: [t for times in runs.values() for t in times[side]]
              for side in LOAD_ORDERS["parent_first"]}
    ratio, wins, p = _paired(pooled["parent"], pooled["change"])
    aa_ratio, aa_wins, aa_p = _paired(pooled["change"], pooled["change_aa"])
    ratios = {order: _paired(t["parent"], t["change"])[0] for order, t in runs.items()}
    aa_ratios = {order: _paired(t["change"], t["change_aa"])[0] for order, t in runs.items()}
    spread = max(abs(a - 1.0) for a in aa_ratios.values())
    lo, hi = round(1.0 - spread, 4), round(1.0 + spread, 4)
    return {
        "parent_ms": round(1e3 * statistics.median(pooled["parent"]), 4),
        "change_ms": round(1e3 * statistics.median(pooled["change"]), 4),
        "ratio": ratio, "change_wins": wins, "pairs": len(pooled["parent"]), "p_sign": p,
        "aa_ratio": aa_ratio, "aa_wins": aa_wins, "aa_p_sign": aa_p,
        "ratios": ratios, "aa_ratios": aa_ratios, "aa_range": [lo, hi],
        "resolved": all(r > hi for r in ratios.values()) or all(r < lo for r in ratios.values()),
    }


def _layers(trees: dict, calls: int) -> dict:
    """Per-layer rows from one process per load order (LAYER_SCRIPT)."""
    pkgs = {side: str(tree / "src" / "torusflow") for side, tree in trees.items()}
    pkgs["change_aa"] = pkgs["change"]
    runs = {}
    for order, sides in LOAD_ORDERS.items():
        proc = subprocess.run(
            [sys.executable, "-c", LAYER_SCRIPT, str(calls),
             json.dumps({side: pkgs[side] for side in sides})],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        runs[order] = json.loads(proc.stdout.splitlines()[-1])
    first = runs["parent_first"]
    return {
        n: {
            layer: {**_layer_row({order: runs[order][n][layer]["times"] for order in runs}),
                    "peak": row["peak"]}
            for layer, row in rows.items()
        }
        for n, rows in first.items()
    }


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
    p.add_argument("--layer-calls", type=int, default=100)
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
                    "one process per load order (parent_first: parent, change, change A/A "
                    "copy; change_first: change, change A/A copy, parent) loads both trees' "
                    "src/torusflow under their own package names, the change's a second "
                    "time for an A/A row; per layer, 3 warm-up calls per side, then "
                    f"{args.layer_calls} rounds of one call per side, the side order "
                    "rotating each round. 2-d taylor_green_bubble, "
                    "well-prepared compressible state (eps 0.1, kappa0 1.0, seed 7), "
                    "constant viscosity; modulated_energy against the incompressible preset "
                    "state (nsch), and modulated_energy_stepped between the two states one "
                    "step of dt 1e-3 returns (fields read); steps at dt 1e-3 from that "
                    "state and from the state one "
                    "such step returns (step_from_stepped_*, fields read, as integrate "
                    "steps it); default_dt and rhs_compressible_hat_nsac on the stepped "
                    "states; batch_rfft_4 transforms the 4 state arrays into the half "
                    "layout. parent_ms/change_ms: medians of the per-call times; ratio: "
                    "median of the per-round ratios change/parent; change_wins: rounds the "
                    "change is faster; p_sign: two-sided sign test of those wins (ties "
                    "dropped); aa_*: the same for the change against its second copy, the "
                    "noise floor of the table; these pool the rounds of both orders. "
                    "ratios / aa_ratios: the median ratios of each order; aa_range: 1 -+ "
                    "the largest |aa_ratio - 1| of the orders; resolved: the ratio lies on "
                    "the same side outside aa_range in both orders. peak: tracemalloc peak "
                    "of one warm call in fine-grid real arrays ((2n)^2 float64), in the "
                    "parent_first process."
                ),
                **_layers(trees, args.layer_calls),
            },
            "tier1": _tier1(trees, args.tier1_rounds),
        }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
