"""Low-Mach sweep harness.

Runs the compressible system for a decreasing list of eps from well-prepared
data, runs the incompressible reference once from the unperturbed preset,
evaluates the error norms of the limit estimates at shared sample times, and
fits log-log convergence rates.  Also hosts the acoustic dispersion probe.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .constitutive import Constitutive, ModelKind
from .dynamics import (
    CompressibleState,
    IncompressibleState,
    _check_eps,
    _check_initial,
    initial_from_preset,
    primitives,
    well_prepared_initial,
)
from .errors import NumericsError
from .spectral import Field, TorusGrid, VectorField, hermitian_sq, hs_norm, l2_norm
from .stepper import StepperConfig, _check_sample_times, integrate, step_compressible_rk4
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
    cfl: float = 0.4

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


def _run_compressible_leg(cfg: SweepConfig, c: Constitutive, eps: float, samples):
    """Integrate one compressible leg, or return the NumericsError that
    stopped it; module-level so sweeps can fork workers."""
    g = TorusGrid(cfg.dim, cfg.n)
    u0, phi0 = initial_from_preset(cfg.initial, g)
    try:
        state = well_prepared_initial(u0, phi0, eps, cfg.kappa0, cfg.seed, cfg.model)
        return integrate(state, c, _reference_stepper_config(cfg), samples)
    except NumericsError as exc:
        return exc


def _eval_record(cfg, c, eps, comp_traj, ref_traj, samples) -> EpsRecord:
    s = cfg.s_index
    phi_idx = 1 if cfg.model is ModelKind.CH else 2
    grad_idx = s if cfg.model is ModelKind.CH else s - 2
    g = TorusGrid(cfg.dim, cfg.n)
    bessel = 1.0 + g.rk_squared
    rho_w = bessel**s
    # sum_a ||d_a rho||^2 in H^grad_idx; first derivatives zero the Nyquist plane
    grad_w = g._rik2 * bessel**grad_idx

    sup_u = sup_phi = sup_comb = sup_rho = sup_grad = 0.0
    integrand = []
    dist_trace = []
    full_trace = []
    for (_, cs), (_, ris) in zip(comp_traj, ref_traj):
        ue, phie = primitives(cs)
        du2 = sum(l2_norm(a - b) ** 2 for a, b in zip(ue, ris.u))
        dphi = phie - ris.phi
        dphi2 = hs_norm(dphi, phi_idx) ** 2
        rh = g.rfft(cs.rho.values - 1.0)
        drho2 = hermitian_sq(g, rh, rho_w)
        dgrad2 = hermitian_sq(g, rh, grad_w)
        sup_u = max(sup_u, du2)
        sup_phi = max(sup_phi, dphi2)
        sup_comb = max(sup_comb, du2 + dphi2)
        sup_rho = max(sup_rho, drho2)
        sup_grad = max(sup_grad, dgrad2)
        integrand.append(
            sum(hs_norm(a - b, 1) ** 2 for a, b in zip(ue, ris.u))
            + hs_norm(dphi, 3) ** 2
        )
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

    A leg that aborts (vacuum, blow-up) is recorded as failed with its reason
    and excluded from the rate fits.  Deterministic for a fixed config seed.
    """
    samples = cfg.samples()
    g = TorusGrid(cfg.dim, cfg.n)
    u0, phi0 = initial_from_preset(cfg.initial, g)
    ref = integrate(
        IncompressibleState(u0, phi0, cfg.model), c, _reference_stepper_config(cfg), samples
    )

    def record(eps, leg) -> EpsRecord:
        if isinstance(leg, NumericsError):
            return EpsRecord(eps=eps, failed=True, reason=str(leg))
        return _eval_record(cfg, c, eps, leg, ref, samples)

    if parallel > 1:
        # a fork-based pool starts every worker at the first submit
        with ProcessPoolExecutor(max_workers=min(parallel, len(cfg.eps_list))) as ex:
            futs = [
                ex.submit(_run_compressible_leg, cfg, c, eps, samples)
                for eps in cfg.eps_list
            ]
            legs = [fut.result() for fut in futs]
        records = [record(eps, leg) for eps, leg in zip(cfg.eps_list, legs)]
    else:
        # each leg is evaluated before the next one is integrated, so one
        # leg's samples (their fields and band stacks) are held at a time
        records = [
            record(eps, _run_compressible_leg(cfg, c, eps, samples)) for eps in cfg.eps_list
        ]

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


def with_eps_list(cfg: SweepConfig, eps_list) -> SweepConfig:
    return replace(cfg, eps_list=tuple(eps_list))


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
