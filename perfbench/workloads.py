"""The benchmark's workloads: generated configs, set-up, timed body and gates.

Each workload writes its config from the seed, so torusflow only ever sees a
generated config file.  ``prepare`` is the set-up a user pays before the
first step; ``run_once`` is one timed repetition, from the first integration
to verified outputs, and returns its operation tally.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io as _io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from torusflow import cli, sweep
from torusflow.dynamics import IncompressibleState, initial_from_preset, well_prepared_initial
from torusflow.errors import NumericsError
from torusflow.io import load_config, load_sweep_config
from torusflow.spectral import TorusGrid

WORKLOADS = ("ch_sweep", "ac_sweep", "run_audit")

EPS_LIST = [0.4, 0.2, 0.1, 0.05]
# the conserved-phase sweep is cut to t_end = 0.02 (1,171 steps at n = 64):
# phase_dt sets its step, so the full acceptance horizon would take minutes
CH_T_END = 0.02
AC_T_END = 0.5
SNAPSHOTS_EVERY = 5

# gate constants, the same bars the acceptance suite holds the sweeps to
DIST_OVER_EPS_BOUND = 1.0
ENVELOPE_A = 1.0
ENVELOPE_B = 2.0
AC_RATE_BARS = {"err_combined": 0.8, "err_rho": 0.8, "err_grad_rho": 3.2}
MASS_DRIFT_TOL = 1e-10

_ERROR_FAMILIES = (
    "err_u",
    "err_phi",
    "err_combined",
    "err_rho",
    "err_grad_rho",
    "err_time_integrated",
)


def config_for(name: str, seed: int) -> dict:
    """The config a workload hands to torusflow; only the seed varies."""
    if name == "ch_sweep":
        return {
            "model": "nsch",
            "grid": {"dim": 2, "n": 64},
            "sweep": {"eps_list": EPS_LIST, "t_end": CH_T_END, "seed": seed},
        }
    if name == "ac_sweep":
        return {
            "model": "nsac",
            "grid": {"dim": 2, "n": 64},
            "sweep": {"eps_list": EPS_LIST, "t_end": AC_T_END, "seed": seed},
        }
    if name == "run_audit":
        return {
            "model": "nsac",
            "regime": "compressible",
            "eps": 0.2,
            "grid": {"dim": 2, "n": 128},
            "stepper": {"t_end": 0.25},
            "initial": {"seed": seed},
            "output": {"sample_cadence": 1},
        }
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def write_config(name: str, seed: int, workdir: Path) -> Path:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(config_for(name, seed), indent=2))
    return path


def _touch_tables(g: TorusGrid):
    """Build every cached spectral table of the grid, whatever it holds."""
    for attr, value in vars(TorusGrid).items():
        if isinstance(value, functools.cached_property):
            getattr(g, attr)


def prepare(name: str, config_path: Path):
    """Parse the config, build the grid tables and the initial data."""
    if name == "run_audit":
        cfg = load_config(config_path)
        _touch_tables(cfg.grid)
        u0, phi0 = initial_from_preset(cfg.initial, cfg.grid)
        well_prepared_initial(u0, phi0, cfg.eps, cfg.kappa0, cfg.seed, cfg.model)
        return cfg
    cfg, c = load_sweep_config(config_path)
    g = TorusGrid(cfg.dim, cfg.n)
    _touch_tables(g)
    u0, phi0 = initial_from_preset(cfg.initial, g)
    IncompressibleState(u0, phi0, cfg.model)
    for eps in cfg.eps_list:
        well_prepared_initial(u0, phi0, eps, cfg.kappa0, cfg.seed, cfg.model)
    return cfg, c


@dataclass
class Tally:
    """Operations of one repetition: legs, references, CLI commands, gates."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def record(self, what: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def _nonincreasing(values) -> bool:
    return all(b <= a for a, b in zip(values, values[1:]))


def _sweep_gates(name: str, result, tally: Tally):
    """Gates over a sweep result; ``None`` (the reference failed) fails them all."""
    recs = result.records if result is not None else ()
    legs_ok = bool(recs) and not any(r.failed for r in recs)
    if name == "ch_sweep":
        errors = [getattr(r, f) for r in recs for f in _ERROR_FAMILIES]
        tally.record(
            "errors finite and positive",
            legs_ok and all(math.isfinite(e) and e > 0 for e in errors),
        )
        for fam in ("err_combined", "err_rho"):
            tally.record(
                f"{fam} non-increasing as eps falls",
                legs_ok and _nonincreasing([getattr(r, fam) for r in recs]),
            )
        ratio = max(r.distance_trace[-1] / r.eps for r in recs) if legs_ok else math.inf
        tally.record(f"distance(T)/eps <= {DIST_OVER_EPS_BOUND}", ratio <= DIST_OVER_EPS_BOUND)
        slack = (
            max(
                d - (ENVELOPE_A * r.eps + ENVELOPE_B * r.distance_trace[0])
                for r in recs
                for d in r.distance_trace
            )
            if legs_ok
            else math.inf
        )
        tally.record("modulated-energy envelope slack <= 0", slack <= 0.0)
    else:
        for fam, bar in AC_RATE_BARS.items():
            slope = result.slopes[fam][0] if legs_ok and fam in result.slopes else -math.inf
            tally.record(f"{fam} slope >= {bar}", slope >= bar)


def _run_sweep(name: str, prepared, span, tally: Tally):
    cfg, c = prepared
    try:
        with span("sweep.run_sweep"):
            result = sweep.run_sweep(cfg, c, parallel=1)
    except NumericsError as exc:
        tally.record(f"incompressible reference: {exc}", False)
        for eps in cfg.eps_list:
            tally.record(f"leg eps = {eps:g} not run", False)
        _sweep_gates(name, None, tally)
        return
    tally.record("incompressible reference", True)
    for r in result.records:
        tally.record(f"leg eps = {r.eps:g}: {r.reason}", not r.failed)
    _sweep_gates(name, result, tally)


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _audit_gates(outdir: Path, tally: Tally):
    try:
        series = _read_csv(outdir / "timeseries.csv")
        audit = _read_csv(outdir / "audit.csv")
    except OSError:
        series, audit = [], []
    # sample_cadence 1 puts the state after step k in timeseries row k
    matched = 0
    for row in audit:
        step = int(row["snapshot"][len("snap_") : -len(".bin")])
        ref = series[step] if step < len(series) else None
        if ref is not None and all(row[col] == ref[col] for col in ref):
            matched += 1
    tally.record(
        f"audit rows equal timeseries rows ({matched} of {len(audit)})",
        len(audit) >= 2 and matched == len(audit),
    )
    mass = [float(r["mass"]) for r in series]
    drift = max(abs(m - mass[0]) for m in mass) / abs(mass[0]) if mass else math.inf
    tally.record(f"relative mass drift {drift:.3e} <= {MASS_DRIFT_TOL}", drift <= MASS_DRIFT_TOL)
    total = [float(r["total"]) for r in series]
    tally.record("total energy non-increasing", len(total) >= 2 and _nonincreasing(total))


def _run_audit(config_path: Path, outdir: Path, span, tally: Tally):
    run_argv = [
        "run",
        "--config", str(config_path),
        "--out", str(outdir),
        "--snapshots-every", str(SNAPSHOTS_EVERY),
        "--quiet",
    ]
    audit_argv = [
        "audit",
        "--snapshots", str(outdir / "snap_*.bin"),
        "--out", str(outdir / "audit.csv"),
        "--config", str(config_path),
    ]
    # the commands report on stdout, whose last line belongs to the benchmark
    with contextlib.redirect_stdout(_io.StringIO()):
        with span("cli.run"):
            rc = cli.main(run_argv)
        tally.record(f"torusflow run exit {rc}", rc == 0)
        with span("cli.audit"):
            rc = cli.main(audit_argv)
        tally.record(f"torusflow audit exit {rc}", rc == 0)
    _audit_gates(outdir, tally)


def run_once(name: str, prepared, config_path: Path, outdir: Path, span) -> Tally:
    """One repetition of the workload; ``span(name)`` brackets the layer calls."""
    tally = Tally()
    if name == "run_audit":
        _run_audit(config_path, outdir, span, tally)
    else:
        _run_sweep(name, prepared, span, tally)
    return tally
