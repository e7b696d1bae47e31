"""Command-line surface.

Subcommands: run (one configured simulation), sweep (the eps convergence
study), audit (recompute diagnostics from stored snapshots), dispersion
(acoustic frequency probe).  Exit codes: 0 success, 2 config error,
3 numerical failure, 4 IO error.  A ValueError raised once the config and
the initial state are built (by the integration, the observer or the
diagnostics of run, sweep and audit) is a numerical failure.

``run`` computes its energy rows and writes its snapshots on one worker
thread while the main thread steps (``_Sampler``), in step order, so the
artifacts are the bytes a serial loop writes.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import queue
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np

from .constitutive import Constitutive
from .diagnostics import energy_compressible, energy_incompressible
from .dynamics import (
    IncompressibleState,
    _check_eps,
    initial_from_preset,
    well_prepared_initial,
)
from .errors import ConfigError, NumericsError, SnapshotError
from .io import (
    RunConfig,
    load_config,
    load_sweep_config,
    read_snapshot,
    snapshot_header,
    write_snapshot,
    write_timeseries,
)
from .spectral import divergence, integral
from .stepper import integrate
from .sweep import (
    ERROR_FAMILIES,
    _check_low_mach,
    acoustic_dispersion_check,
    run_sweep,
)

_SWEEP_ERROR_COLUMNS = ("eps", "failed", "reason", *ERROR_FAMILIES)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="torusflow", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="integrate one configured simulation")
    run.add_argument("--config", required=True, help="path to a run config (JSON)")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument(
        "--snapshots-every",
        type=int,
        default=0,
        metavar="N",
        help="write a snapshot every N accepted steps (0 = never)",
    )
    run.add_argument("--quiet", action="store_true", help="suppress the summary line")

    sweep = sub.add_parser("sweep", help="run the eps convergence sweep")
    sweep.add_argument("--config", required=True, help="path to a sweep config (JSON)")
    sweep.add_argument("--out", default=None, help="output directory")
    sweep.add_argument(
        "--eps", default=None, help="override eps list, comma separated (e.g. 0.4,0.2)"
    )
    sweep.add_argument(
        "--parallel", type=int, default=1, metavar="K", help="worker processes"
    )

    audit = sub.add_parser("audit", help="recompute diagnostics from snapshots")
    audit.add_argument("--snapshots", required=True, help="snapshot glob pattern")
    audit.add_argument("--out", required=True, help="output CSV path")
    audit.add_argument(
        "--config",
        default=None,
        help="optional run config supplying the constitutive block",
    )

    disp = sub.add_parser("dispersion", help="acoustic dispersion probe")
    disp.add_argument("--eps", type=float, required=True)
    disp.add_argument("--k", type=int, required=True, help="density mode index")
    disp.add_argument(
        "--config",
        default=None,
        help="optional run config supplying the constitutive block",
    )
    return p


def _constitutive_from(config_path) -> Constitutive:
    if config_path is None:
        return Constitutive()
    return load_config(config_path).constitutive


def _initial_state(cfg: RunConfig):
    u0, phi0 = initial_from_preset(cfg.initial, cfg.grid)
    if cfg.regime == "compressible":
        return well_prepared_initial(
            u0, phi0, cfg.eps, cfg.kappa0, cfg.seed, cfg.model, cfg.constitutive
        )
    return IncompressibleState(u0, phi0, cfg.model)


@contextlib.contextmanager
def _simulating():
    """Past the config and the initial state, a ValueError comes from the
    integration, the observer or the diagnostics: a numerical failure
    (exit 3), not a config error."""
    try:
        yield
    except ValueError as exc:
        raise NumericsError(f"{type(exc).__name__}: {exc}") from exc


def _run_row(state, c, t: float) -> dict:
    if hasattr(state, "rho"):
        rep = energy_compressible(state, c, time=t)
        return {
            "time": t,
            "kinetic": rep.kinetic,
            "internal": rep.internal,
            "gradient": rep.gradient,
            "potential": rep.potential,
            "total": rep.total,
            "dissipation": rep.dissipation,
            "mass": integral(state.rho),
            "phase_mass": integral(state.q),
        }
    rep = energy_incompressible(state, c, time=t)
    return {
        "time": t,
        "kinetic": rep.kinetic,
        "gradient": rep.gradient,
        "potential": rep.potential,
        "total": rep.total,
        "dissipation": rep.dissipation,
        "phase_mass": integral(state.phi),
        "div_u_max": float(np.max(np.abs(divergence(state.u).values))),
    }


class _Sampler:
    """Runs the run loop's samples (an energy row, a snapshot or both of one
    state) on one worker thread, in submit order, while the caller steps;
    ``results`` takes each sample's result in that order.  The worker owns
    the reports' 2x-grid workspace (a slot of ``spectral._one_slot``), so
    every report of a run goes through here.  The states it is handed are
    never mutated, so it reads them while the caller steps on.

    At most two samples are pending, one running and one queued: ``submit``
    waits for room in the queue.  After a sample fails the worker skips
    every later one, so nothing is written past a failed report, and
    ``submit`` raises that error.  On leaving the block the pending samples
    are run and the worker is joined; a failed sample's error replaces the
    caller's own.
    """

    def __init__(self):
        self.results = []
        self._error = None
        self._queue = queue.Queue(maxsize=1)  # a queued state: 512 KB at n = 128
        self._worker = threading.Thread(target=self._work, name="torusflow-sampler")
        self._worker.start()

    def _work(self):
        while (fn := self._queue.get()) is not None:
            if self._error is None:
                try:
                    self.results.append(fn())
                except BaseException as exc:
                    self._error = exc

    def submit(self, fn) -> None:
        if self._error is not None:
            raise self._error
        self._queue.put(fn)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._queue.put(None)
        self._worker.join()
        if self._error is not None:
            raise self._error
        return False


def _cmd_run(args) -> int:
    if args.snapshots_every < 0:
        raise ConfigError(f"--snapshots-every must be >= 0, got {args.snapshots_every}")
    cfg = load_config(args.config)
    state = _initial_state(cfg)
    outdir = Path(args.out or cfg.outdir or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    c = cfg.constitutive
    every = args.snapshots_every
    steps = 0

    with _simulating(), _Sampler() as sampler:

        def sample(k, t, st, row: bool, snap: bool):
            def job():
                # the report before the snapshot, so a failed report writes none
                out = _run_row(st, c, t) if row else None
                if snap:
                    write_snapshot(st, outdir / f"snap_{k:06d}.bin", t)
                return out

            if row or snap:
                # a stepped state forms its fields on first read; reading
                # them here keeps every transform of the run on the stepping
                # thread, so traced transform counts do not depend on timing
                st.as_arrays()
                sampler.submit(job)

        def observer(t, st):
            nonlocal steps
            steps += 1
            sample(steps, t, st, steps % cfg.sample_cadence == 0, every and steps % every == 0)

        sample(0, 0.0, state, True, every)
        samples = integrate(state, c, cfg.stepper, [cfg.stepper.t_end], observer=observer)
        t_final, final_state = samples[-1]
        # the final state, unless its step was sampled already
        sample(
            steps,
            t_final,
            final_state,
            steps % cfg.sample_cadence != 0,
            every and steps % every != 0,
        )
    rows = [row for row in sampler.results if row is not None]

    csv_path = outdir / "timeseries.csv"
    write_timeseries(rows, csv_path)
    if not args.quiet:
        print(
            f"run complete: {steps} steps to t = {t_final:g}, "
            f"total energy {rows[-1]['total']:.6e}, wrote {csv_path}"
        )
    return 0


def _cmd_sweep(args) -> int:
    cfg, c = load_sweep_config(args.config)
    if args.eps:
        try:
            eps_list = tuple(float(tok) for tok in args.eps.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --eps override {args.eps!r}: {exc}") from exc
        try:
            cfg = replace(cfg, eps_list=eps_list)
        except ValueError as exc:
            raise ConfigError(f"bad --eps override: {exc}") from exc
    if args.parallel < 1:
        raise ConfigError(f"--parallel must be >= 1, got {args.parallel}")
    # past the low-Mach range the sweep is a config error, before any stepping
    _check_low_mach(cfg, c)

    with _simulating():
        result = run_sweep(cfg, c, parallel=args.parallel)
    outdir = Path(args.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)

    # failed legs carry nan errors; emit empty cells instead of tripping
    # the finite-values contract of the CSV writer
    err_rows = []
    for r in result.records:
        row = {k: getattr(r, k) for k in _SWEEP_ERROR_COLUMNS}
        if r.failed:
            row.update(dict.fromkeys(ERROR_FAMILIES, ""))
        err_rows.append(row)
    write_timeseries(err_rows, outdir / "sweep_errors.csv")

    slope_rows = [
        {"family": fam, "slope": s, "intercept": b, "r2": r2}
        for fam, (s, b, r2) in sorted(result.slopes.items())
    ]
    write_timeseries(
        slope_rows, outdir / "sweep_slopes.csv", ["family", "slope", "intercept", "r2"]
    )

    mod_rows = []
    for r in result.records:
        if r.failed:
            continue
        for t, dist, full in zip(result.sample_times, r.distance_trace, r.full_trace):
            mod_rows.append({"eps": r.eps, "time": t, "distance": dist, "full": full})
    write_timeseries(
        mod_rows, outdir / "sweep_modulated.csv", ["eps", "time", "distance", "full"]
    )

    failed = [r for r in result.records if r.failed]
    for r in failed:
        print(f"eps = {r.eps:g} failed: {r.reason}", file=sys.stderr)
    for fam, (s, _, r2) in sorted(result.slopes.items()):
        print(f"{fam}: slope {s:.3f} (r2 {r2:.4f})")
    print(f"wrote sweep tables to {outdir}")
    if failed and len(failed) == len(result.records):
        return 3
    return 0


def _cmd_audit(args) -> int:
    paths = sorted(glob.glob(args.snapshots))
    if not paths:
        raise ConfigError(f"no snapshots match {args.snapshots!r}")
    c = _constitutive_from(args.config)
    rows = []
    for p in paths:
        header = snapshot_header(p)
        state = read_snapshot(p)
        with _simulating():
            row = _run_row(state, c, float(header["time"]))
        rows.append({"snapshot": Path(p).name, **row})
    write_timeseries(rows, args.out)
    print(f"audited {len(rows)} snapshots -> {args.out}")
    return 0


def _cmd_dispersion(args) -> int:
    c = _constitutive_from(args.config)
    _check_eps(args.eps)  # before eps**2 can overflow
    amplitude = 1e-3 * args.eps**2
    measured, predicted = acoustic_dispersion_check(args.eps, args.k, amplitude, c)
    rel = abs(measured - predicted) / predicted
    print(
        f"mode k = {args.k}, eps = {args.eps:g}: measured {measured:.6f}, "
        f"predicted {predicted:.6f}, relative error {rel:.3e}"
    )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "audit":
            return _cmd_audit(args)
        if args.command == "dispersion":
            return _cmd_dispersion(args)
        raise ConfigError(f"unknown command {args.command!r}")
    # a ValueError is raised before any stepping (config values, initial
    # data, CLI values); later ones are re-raised as NumericsError (_simulating)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (SnapshotError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
