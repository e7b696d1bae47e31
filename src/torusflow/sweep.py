"""Low-Mach sweep harness.

Runs the compressible system for a decreasing list of eps from well-prepared
data, runs the incompressible reference once from the unperturbed preset,
evaluates the error norms of the limit estimates at shared sample times, and
fits log-log convergence rates.  Also hosts the acoustic dispersion probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .constitutive import Constitutive, ModelKind
from .dynamics import (
    CompressibleState,
    IncompressibleState,
    _balanced_offset,
    _check_balanced,
    _check_eps,
    _check_initial,
    _prepared_parts,
    _prepared_state,
    _require_positive,
    initial_from_preset,
)
from .errors import ConfigError, NumericsError
from .spectral import Field, TorusGrid, VectorField, batch_rfft, hermitian_sq, l2_norm
from .stepper import (
    DEFAULT_CFL,
    StepperConfig,
    _check_sample_times,
    _marched,
    integrate,
    step_compressible_rk4,
)
from .diagnostics import modulated_energy

@dataclass(frozen=True)
class SweepConfig:
    model: ModelKind = ModelKind.CH
    eps_list: tuple = (0.4, 0.2, 0.1, 0.05)
    n: int = 64
    dim: int = 2
    t_end: float = 0.5
    sample_times: Optional[tuple] = None
    s_index: int = 3
    initial: str = "taylor_green_bubble"
    kappa0: float = 0.1
    seed: int = 0
    cfl: float = DEFAULT_CFL

    def __post_init__(self):
        object.__setattr__(self, "eps_list", tuple(float(e) for e in self.eps_list))
        if not self.eps_list:
            raise ValueError("eps_list must be nonempty")
        for eps in self.eps_list:
            _check_eps(eps)
        if any(b >= a for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ValueError("eps_list must be strictly decreasing")
        # n and dim: the rules of the grid the sweep runs on
        TorusGrid(self.dim, self.n)
        _check_initial(self.initial, self.kappa0, self.seed)
        # cfl and t_end: the rules of the reference's own stepper config
        _reference_stepper_config(self)
        if self.sample_times is not None:
            st = tuple(float(t) for t in self.sample_times)
            object.__setattr__(self, "sample_times", st)
            _check_sample_times(st, self.t_end)
        if self.s_index < 1:
            raise ValueError(f"s_index must be >= 1, got {self.s_index}")
        if 3 * self.s_index > self.n:
            raise ValueError(
                f"s_index {self.s_index} is not resolvable at n = {self.n}"
            )
        if self.model is ModelKind.AC and self.s_index < 3:
            # err_grad_rho uses the s-2 norm in the relaxational model
            raise ValueError("the relaxational model needs s_index >= 3")

    def samples(self) -> tuple:
        if self.sample_times is not None:
            return self.sample_times
        return tuple(float(t) for t in np.linspace(0.0, self.t_end, 11))


@dataclass(frozen=True)
class EpsRecord:
    """Per-eps sup-in-time squared errors against the incompressible reference."""

    eps: float
    failed: bool = False
    reason: str = ""
    err_u: float = math.nan
    err_phi: float = math.nan
    err_combined: float = math.nan
    err_rho: float = math.nan
    err_grad_rho: float = math.nan
    err_time_integrated: float = math.nan
    distance_trace: tuple = ()
    full_trace: tuple = ()


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    sample_times: tuple
    records: tuple
    slopes: dict = field(default_factory=dict)


ERROR_FAMILIES = (
    "err_u",
    "err_phi",
    "err_combined",
    "err_rho",
    "err_grad_rho",
    "err_time_integrated",
)


def fit_rate(points) -> tuple:
    """Least-squares fit of log err vs log eps; returns (slope, intercept, r2)."""
    pts = [(float(e), float(r)) for e, r in points]
    if len(pts) < 2:
        raise ValueError(f"rate fit needs at least 2 points, got {len(pts)}")
    if any(e <= 0 for e, _ in pts):
        raise ValueError("rate fit requires positive eps values")
    if any(r <= 0 for _, r in pts):
        raise ValueError(
            "rate fit requires positive errors; a zero error usually means the "
            "two solutions coincide to rounding"
        )
    x = np.log([e for e, _ in pts])
    y = np.log([r for _, r in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def _reference_stepper_config(cfg: SweepConfig) -> StepperConfig:
    return StepperConfig(scheme="rk4", cfl=cfg.cfl, t_end=cfg.t_end)


class _LegStopped(Exception):
    """Carries the NumericsError that stopped a leg while it was built or
    stepped out through _eval_record, told apart from a NumericsError of
    the evaluation, which propagates."""


def _leg_samples(cfg: SweepConfig, c: Constitutive, parts, eps: float, samples):
    """The leg's (t, state) samples from the sweep's _prepared_parts, each
    yielded as it is stepped to."""
    try:
        yield from _marched(
            _prepared_state(parts, eps, cfg.kappa0, cfg.model),
            c,
            _reference_stepper_config(cfg),
            samples,
        )
    except NumericsError as exc:
        raise _LegStopped(exc) from exc


def _leg_record(cfg, c, parts, ref, ref_offsets, samples, eps: float) -> EpsRecord:
    """One compressible leg's record.  Each sample is evaluated as it is
    stepped to, so a leg holds at most two samples at a time; a leg that a
    NumericsError stops is recorded as failed with its reason."""
    stepped = _leg_samples(cfg, c, parts, eps, samples)
    try:
        return _eval_record(cfg, c, eps, stepped, ref, ref_offsets, samples)
    except _LegStopped as stop:
        return EpsRecord(eps=eps, failed=True, reason=str(stop.__cause__))


# a pool worker's sweep: _leg_record's arguments but the eps, handed to the
# worker once by the pool's initializer, so each task carries only its eps
_pool_shared = None


def _init_pool_worker(*shared) -> None:
    global _pool_shared
    _pool_shared = shared


def _pool_leg(eps: float) -> EpsRecord:
    """One leg's record in a pool worker, which returns it."""
    return _leg_record(*_pool_shared, eps)


def _hs_sq(g: TorusGrid, fh: np.ndarray, w: np.ndarray, work: np.ndarray) -> float:
    """hs_norm(f, s) ** 2 from f's half spectrum fh, with w = (1 + |k|^2)^s:
    hs_norm's arithmetic, its square root and then the square."""
    return float(np.sqrt(hermitian_sq(g, fh, w, work))) ** 2


def _eval_record(cfg, c, eps, comp_traj, ref_traj, ref_offsets, samples) -> EpsRecord:
    """The leg's errors from its (t, state) samples comp_traj, taken one
    at a time.  err_rho and err_grad_rho measure rho - 1 -
    eps^2 pi/P'(1), the density's departure from the pressure balance of
    the reference, with ref_offsets the reference's pi/P'(1) at each
    sample.  Each sample transforms its differences u_e - u, phi_e - phi
    and that departure in one batch_rfft, and every norm keeps the
    arithmetic of l2_norm and hs_norm, with the weights built once."""
    s = cfg.s_index
    phi_idx = 1 if cfg.model is ModelKind.CH else 2
    grad_idx = s if cfg.model is ModelKind.CH else s - 2
    g = TorusGrid(cfg.dim, cfg.n)
    d = g.dim
    bessel = 1.0 + g.rk_squared
    w1, w_phi, w3 = bessel**1, bessel**phi_idx, bessel**3
    rho_w = bessel**s
    # sum_a ||d_a rho||^2 in H^grad_idx; first derivatives zero the Nyquist plane
    grad_w = g._rik2 * bessel**grad_idx
    diff = np.empty((d + 2, *g.shape))
    hats = np.empty((d + 2, *g.rshape), dtype=complex)
    work = np.empty_like(hats)
    sq_work = np.empty((2, *g.rshape))

    sup_u = sup_phi = sup_comb = sup_rho = sup_grad = 0.0
    integrand = []
    dist_trace = []
    full_trace = []
    for (_, cs), (_, ris), offset in zip(comp_traj, ref_traj, ref_offsets):
        # (u_e - u, phi_e - phi, rho - 1 - eps^2 offset), u_e = m/rho, phi_e = q/rho
        rho = cs.rho.values
        _require_positive(rho, "sweep errors")
        for x, m, u in zip(diff, cs.mom, ris.u):
            np.divide(m.values, rho, out=x)
            x -= u.values
        np.divide(cs.q.values, rho, out=diff[d])
        diff[d] -= ris.phi.values
        np.subtract(rho, 1.0, out=diff[d + 1])
        diff[d + 1] -= eps**2 * offset
        batch_rfft(g, diff, out=hats, work=work)
        du_hat, dphi_hat, rh = hats[:d], hats[d], hats[d + 1]

        du2 = sum(l2_norm(Field(g, x)) ** 2 for x in diff[:d])
        dphi2 = _hs_sq(g, dphi_hat, w_phi, sq_work)
        drho2 = hermitian_sq(g, rh, rho_w, sq_work)
        dgrad2 = hermitian_sq(g, rh, grad_w, sq_work)
        sup_u = max(sup_u, du2)
        sup_phi = max(sup_phi, dphi2)
        sup_comb = max(sup_comb, du2 + dphi2)
        sup_rho = max(sup_rho, drho2)
        sup_grad = max(sup_grad, dgrad2)
        du_h1 = sum(_hs_sq(g, h, w1, sq_work) for h in du_hat)
        integrand.append(du_h1 + _hs_sq(g, dphi_hat, w3, sq_work))
        full, dist = modulated_energy(cs, ris, c)
        dist_trace.append(dist)
        full_trace.append(full)

    err_int = float(np.trapezoid(np.asarray(integrand), np.asarray(samples)))
    return EpsRecord(
        eps=eps,
        err_u=sup_u,
        err_phi=sup_phi,
        err_combined=sup_comb,
        err_rho=sup_rho,
        err_grad_rho=sup_grad,
        err_time_integrated=err_int,
        distance_trace=tuple(dist_trace),
        full_trace=tuple(full_trace),
    )


def run_sweep(cfg: SweepConfig, c: Constitutive, parallel: int = 1) -> SweepResult:
    """Run the eps sweep against one shared incompressible reference.

    The eps-free part of the prepared data (_prepared_parts) is built once
    and scaled for each leg; an eps_list that starts past the data's
    low-Mach range is a ConfigError.  Each leg is evaluated as it is
    stepped (_leg_record), in the caller or, with parallel > 1, in a
    process pool whose workers return the records.  A leg that aborts
    (vacuum, blow-up) is recorded as failed with its reason and excluded
    from the rate fits.  Deterministic for a fixed config seed.
    """
    samples = cfg.samples()
    g = TorusGrid(cfg.dim, cfg.n)
    u0, phi0 = initial_from_preset(cfg.initial, g)
    parts = _prepared_parts(u0, phi0, cfg.seed, c)
    # the largest eps puts the prepared data furthest from rho = 1: past the
    # low-Mach range the sweep is a config error, before any stepping
    try:
        _check_balanced(parts[2], cfg.eps_list[0])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    ref = integrate(
        IncompressibleState(u0, phi0, cfg.model), c, _reference_stepper_config(cfg), samples
    )
    # the t = 0 sample is (u0, phi0), whose offset the parts hold
    ref_offsets = [
        parts[2] if t == 0.0 else _balanced_offset(ris.u, ris.phi, c) for t, ris in ref
    ]
    shared = (cfg, c, parts, ref, ref_offsets, samples)
    if parallel > 1:
        # loaded here, so a serial sweep starts no multiprocessing machinery
        from concurrent.futures import ProcessPoolExecutor

        # a fork-based pool starts every worker at its first task
        with ProcessPoolExecutor(
            max_workers=min(parallel, len(cfg.eps_list)),
            initializer=_init_pool_worker,
            initargs=shared,
        ) as ex:
            records = list(ex.map(_pool_leg, cfg.eps_list))
    else:
        records = [_leg_record(*shared, eps) for eps in cfg.eps_list]

    slopes = {}
    for family in ERROR_FAMILIES:
        pts = [
            (r.eps, getattr(r, family))
            for r in records
            if not r.failed and getattr(r, family) > 0
        ]
        if len(pts) >= 2:
            slopes[family] = fit_rate(pts)
    return SweepResult(cfg, tuple(samples), tuple(records), slopes)


# ---------------------------------------------------------------------------
# acoustic dispersion probe

_DISPERSION_SAMPLES = 32  # steps per predicted acoustic period
# smallest probe amplitude: rho = 1 + amplitude*cos(kx) keeps about
# log10(amplitude/2.2e-16) digits of the mode.  Measured at n = 64, k = 1
# and eps 0.2, 1e-3 and 1e-5: relative error <= 2.9e-4 at 1e-14, up to
# 2.3e-3 at 1e-15, 1.4e-2 at 3e-16 and 9.5 at 1e-16 (tolerance 2e-2)
_DISPERSION_AMPLITUDE_FLOOR = 1e-14


def acoustic_dispersion_check(
    eps: float,
    k: int,
    amplitude: float,
    c: Constitutive,
    n: int = 64,
    n_periods: float = 3.5,
) -> tuple:
    """Measure the oscillation frequency of one small density mode.

    Starts from rho = 1 + amplitude*cos(kx), u = 0, phi = 1 on the 2-d grid
    (the mode (k, 0)), tracks Re(rho_hat_(k, 0)) under the compressible
    dynamics, and times its zero crossings.  Returns (measured_freq, predicted_freq) with the prediction
    |k| sqrt(P'(1)) / eps from the linearized acoustic system.

    step_compressible_rk4 integrates that linear system exactly, viscous
    damping included, so the probe checks the acoustic block of the ETD
    tables and the mode's weak nonlinearity rather than a time
    discretization error, and a fixed _DISPERSION_SAMPLES steps per
    predicted period resolve the zero crossings it times.
    """
    _check_eps(eps)
    if k < 1:
        raise ValueError(f"mode index must be >= 1, got {k}")
    g = TorusGrid(2, n)
    if k > g.dealias_cutoff:
        raise ValueError(f"mode {k} exceeds the dealiased band of n = {n}")
    if not 0 < amplitude <= 1e-3 * eps**2:
        raise ValueError(
            f"amplitude must lie in (0, 1e-3*eps^2]; got {amplitude} at eps = {eps}"
        )
    floor = _DISPERSION_AMPLITUDE_FLOOR
    if amplitude < floor:
        raise ValueError(
            f"amplitude {amplitude:.3g} is below the probe's floor {floor:g}: the "
            f"density 1 + amplitude*cos(kx) keeps too few digits of the mode "
            f"(at the amplitude 1e-3*eps^2, eps must be >= {math.sqrt(floor / 1e-3):.3g})"
        )

    x = g.coords()[0]
    rho = Field(g, 1.0 + amplitude * np.cos(k * x))
    zero = Field(g, np.zeros(g.shape))
    state = CompressibleState(
        eps, rho, VectorField((zero, zero)), Field(g, rho.values.copy()), ModelKind.CH
    )

    predicted = k * math.sqrt(float(c.pressure_prime(1.0))) / eps
    t_end = n_periods * 2.0 * math.pi / predicted
    steps = max(1, math.ceil(n_periods * _DISPERSION_SAMPLES))
    dt = t_end / steps

    signal = [float(np.real(g.rfft(state.rho.values)[k, 0]))]
    times = [0.0]
    for i in range(steps):
        state = step_compressible_rk4(state, dt, c)
        signal.append(float(np.real(g.rfft(state.rho.values)[k, 0])))
        times.append((i + 1) * dt)

    crossings = []
    for (t0, s0), (t1, s1) in zip(zip(times, signal), zip(times[1:], signal[1:])):
        if s0 == 0.0:
            crossings.append(t0)
        elif s0 * s1 < 0:
            crossings.append(t0 - s0 * (t1 - t0) / (s1 - s0))
    if len(crossings) < 3:
        raise NumericsError(
            f"horizon too short: found {len(crossings)} zero crossings, need >= 3"
        )
    spacings = np.diff(crossings)
    measured = math.pi / float(np.mean(spacings))
    return measured, predicted
