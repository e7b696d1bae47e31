"""Spans and exact counters for the traced run.

torusflow's modules bind each other's functions with ``from`` imports, so
``stepper`` calls ``rhs_compressible_hat`` through its own module namespace.
The tracer therefore rebinds each public function in the namespace of the
module that calls it, and wraps the ``TorusGrid`` transform methods on the
class.  No torusflow source file is touched, and ``uninstall`` restores every
binding.

A span is ``[id, parent, name, start_ns, end_ns]``; spans stay in memory and
are written out once the run ends.  A layer's self time is its spans'
duration minus the part covered by their child spans.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import math
import os
import time
from collections import defaultdict

from torusflow import cli, diagnostics, dynamics, stepper, sweep
from torusflow.dynamics import CompressibleState, IncompressibleState
from torusflow.spectral import TorusGrid

FFT_SPANS = ("spectral.batch_rfft", "spectral.batch_irfft", "spectral.TorusGrid.fft")
RHS_SPANS = ("dynamics.rhs_compressible_hat", "dynamics.rhs_incompressible_hat")
STEP_SPANS = ("stepper.step_compressible_rk4", "stepper.step_incompressible_rk4")
ENERGY_SPANS = ("diagnostics.energy_compressible", "diagnostics.energy_incompressible")

# (unit, better) of every per-layer metric, in report order
LAYER_METRICS = {
    "spectral.fft_calls": ("count", "lower"),
    "spectral.fft_arrays": ("count", "lower"),
    "spectral.fft_s": ("s", "lower"),
    "spectral.fft_bytes": ("bytes_computed", "lower"),
    "spectral.refine_calls": ("count", "lower"),
    "spectral.refine_s": ("s", "lower"),
    "dynamics.rhs_calls": ("count", "lower"),
    "dynamics.rhs_self_s": ("s", "lower"),
    "dynamics.rhs_ms": ("ms", "lower"),
    "stepper.steps": ("count", "lower"),
    "stepper.dt_min": ("s", "higher"),
    "stepper.rhs_per_step": ("rhs/step", "lower"),
    "stepper.step_self_s": ("s", "lower"),
    "stepper.step_ms": ("ms", "lower"),
    "diagnostics.energy_calls": ("count", "lower"),
    "diagnostics.energy_self_s": ("s", "lower"),
    "diagnostics.modulated_calls": ("count", "lower"),
    "diagnostics.modulated_self_s": ("s", "lower"),
    "sweep.legs": ("count", "higher"),
    "sweep.leg_s_max": ("s", "lower"),
    "sweep.reference_s": ("s", "lower"),
    "sweep.eval_s": ("s", "lower"),
    "io.snapshot_writes": ("count", "lower"),
    "io.snapshot_write_s": ("s", "lower"),
    "io.snapshot_bytes": ("B", "lower"),
    "io.snapshot_reads": ("count", "lower"),
    "io.snapshot_read_s": ("s", "lower"),
    "io.csv_write_s": ("s", "lower"),
    "cli.run_s": ("s", "lower"),
    "cli.audit_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

# counters that must repeat bit for bit across traced runs of one seed
EXACT_COUNTERS = (
    "stepper.steps",
    "dynamics.rhs_calls",
    "spectral.fft_arrays",
    "io.snapshot_bytes",
    "diagnostics.energy_calls",
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._undo = []
        self.fft_arrays = 0
        self.fft_bytes = 0
        self.snapshot_bytes = 0
        self.dt_min = math.inf

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [len(self.spans), parent, name, time.perf_counter_ns(), 0]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def _close(self, rec: list):
        rec[4] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, owner, attr: str, name, after=None):
        """Rebind ``owner.attr`` to a spanned call; ``name`` may map args to a name."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def install(self):
        def batch_done(args, result):
            self.fft_arrays += len(result)
            self.fft_bytes += sum(a.nbytes for a in args[1]) + sum(r.nbytes for r in result)

        def method_done(args, result):
            self.fft_arrays += 1
            self.fft_bytes += args[1].nbytes + result.nbytes

        def step_span(args):
            # names the step span and tracks the smallest step taken
            self.dt_min = min(self.dt_min, float(args[1]))
            return STEP_SPANS[0] if isinstance(args[0], CompressibleState) else STEP_SPANS[1]

        def snapshot_done(args, result):
            self.snapshot_bytes += os.path.getsize(args[1])

        for module in (dynamics, stepper):
            self.wrap(module, "batch_rfft", "spectral.batch_rfft", batch_done)
            self.wrap(module, "batch_irfft", "spectral.batch_irfft", batch_done)
        for method in ("fft", "ifft", "rfft", "irfft"):
            self.wrap(TorusGrid, method, "spectral.TorusGrid.fft", method_done)
        self.wrap(diagnostics, "refine", "spectral.refine")
        for fn in ("rhs_compressible_hat", "rhs_incompressible_hat"):
            self.wrap(stepper, fn, f"dynamics.{fn}")
        self.wrap(stepper, "step_compressible_rk4", step_span)
        self.wrap(stepper, "step_incompressible_rk4", step_span)
        for fn in ("energy_compressible", "energy_incompressible"):
            self.wrap(cli, fn, f"diagnostics.{fn}")
        self.wrap(sweep, "modulated_energy", "diagnostics.modulated_energy")
        self.wrap(
            sweep,
            "integrate",
            lambda args: "sweep.reference" if isinstance(args[0], IncompressibleState) else "sweep.leg",
        )
        self.wrap(cli, "write_snapshot", "io.write_snapshot", snapshot_done)
        self.wrap(cli, "read_snapshot", "io.read_snapshot")
        self.wrap(cli, "snapshot_header", "io.snapshot_header")
        self.wrap(cli, "write_timeseries", "io.write_timeseries")

    def uninstall(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def _by_name(self) -> dict:
        """name -> [calls, inclusive ns, self ns, max inclusive ns]."""
        covered = defaultdict(int)
        for sid, parent, _, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        agg = defaultdict(lambda: [0, 0, 0, 0])
        for sid, _, name, start, end in self.spans:
            a = agg[name]
            a[0] += 1
            a[1] += end - start
            a[2] += end - start - covered[sid]
            a[3] = max(a[3], end - start)
        return agg

    def layer_metrics(self) -> dict:
        """Every per-layer metric except the overhead, which needs an untraced run."""
        agg = self._by_name()

        def calls(*names):
            return sum(agg[n][0] for n in names if n in agg)

        def incl_s(*names):
            return sum(agg[n][1] for n in names if n in agg) * 1e-9

        def self_s(*names):
            return sum(agg[n][2] for n in names if n in agg) * 1e-9

        steps = calls(*STEP_SPANS)
        rhs = calls(*RHS_SPANS)
        return {
            "spectral.fft_calls": calls(*FFT_SPANS),
            "spectral.fft_arrays": self.fft_arrays,
            "spectral.fft_s": self_s(*FFT_SPANS),
            "spectral.fft_bytes": self.fft_bytes,
            "spectral.refine_calls": calls("spectral.refine"),
            "spectral.refine_s": self_s("spectral.refine"),
            "dynamics.rhs_calls": rhs,
            "dynamics.rhs_self_s": self_s(*RHS_SPANS),
            "dynamics.rhs_ms": 1e3 * incl_s(*RHS_SPANS) / rhs if rhs else 0.0,
            "stepper.steps": steps,
            "stepper.dt_min": self.dt_min if steps else 0.0,
            "stepper.rhs_per_step": rhs / steps if steps else 0.0,
            "stepper.step_self_s": self_s(*STEP_SPANS),
            "stepper.step_ms": 1e3 * incl_s(*STEP_SPANS) / steps if steps else 0.0,
            "diagnostics.energy_calls": calls(*ENERGY_SPANS),
            "diagnostics.energy_self_s": self_s(*ENERGY_SPANS),
            "diagnostics.modulated_calls": calls("diagnostics.modulated_energy"),
            "diagnostics.modulated_self_s": self_s("diagnostics.modulated_energy"),
            "sweep.legs": calls("sweep.leg"),
            "sweep.leg_s_max": agg["sweep.leg"][3] * 1e-9 if "sweep.leg" in agg else 0.0,
            "sweep.reference_s": incl_s("sweep.reference"),
            "sweep.eval_s": incl_s("sweep.run_sweep") - incl_s("sweep.leg", "sweep.reference"),
            "io.snapshot_writes": calls("io.write_snapshot"),
            "io.snapshot_write_s": incl_s("io.write_snapshot"),
            "io.snapshot_bytes": self.snapshot_bytes,
            "io.snapshot_reads": calls("io.read_snapshot"),
            "io.snapshot_read_s": incl_s("io.read_snapshot", "io.snapshot_header"),
            "io.csv_write_s": incl_s("io.write_timeseries"),
            "cli.run_s": incl_s("cli.run"),
            "cli.audit_s": incl_s("cli.audit"),
            "trace.spans": len(self.spans),
        }

    def write_spans(self, path):
        """Write the spans as CSV, times in ns from the first span's start."""
        t0 = self.spans[0][3] if self.spans else 0
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["run", "id", "parent", "name", "start_ns", "end_ns"])
            for sid, parent, name, start, end in self.spans:
                w.writerow([self.run_id, sid, parent, name, start - t0, end - t0])
