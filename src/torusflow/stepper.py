"""Time integration.

The production "rk4" scheme is ETDRK4 (Cox & Matthews): the stiff
constant-coefficient cores (the phase operator, the reference viscous
operator and the spectral vanishing viscosity) are integrated exactly, and
the remainder by a fourth-order exponential Runge-Kutta tableau, so the
acoustic/advective bound sets the step for both phase models.  "imex" is a
first-order splitting with explicit transport and implicit
constant-coefficient solves.  A Picard loop provides a fully implicit Euler
step on the conservative variables for verification runs.  Every scheme
evaluates its tendencies through the half-spectrum kernels
rhs_compressible_hat / rhs_incompressible_hat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .constitutive import Constitutive, ModelKind
from .dynamics import (
    CompressibleState,
    CompressibleTendency,
    IncompressibleState,
    IncompressibleTendency,
    primitives,
    rhs_compressible_hat,
    rhs_incompressible_hat,
)
from .errors import NumericsError
from .spectral import TorusGrid, batch_irfft, batch_rfft, hermitian_sq

# nominal wave speed entering the advective step bound of incompressible runs
_INCOMPRESSIBLE_WAVE_SPEED = 4.0


@dataclass(frozen=True)
class PicardOptions:
    enabled: bool = False
    tol: float = 1e-10
    max_iter: int = 50

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError(f"picard tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"picard max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class StepperConfig:
    scheme: str = "rk4"
    cfl: float = 0.4
    dt_override: Optional[float] = None
    t_end: float = 1.0
    picard: PicardOptions = field(default_factory=PicardOptions)
    dealias_each_stage: bool = True

    def __post_init__(self):
        if self.scheme not in ("rk4", "imex"):
            raise ValueError(f"scheme must be 'rk4' or 'imex', got {self.scheme!r}")
        if not 0 < self.cfl <= 1:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.dt_override is not None and self.dt_override <= 0:
            raise ValueError(f"dt_override must be positive, got {self.dt_override}")
        if self.t_end <= 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")


@dataclass(frozen=True)
class PicardReport:
    iterations: int
    converged: bool
    ratios: tuple
    final_diff: float


def acoustic_dt(
    eps: float, grid: TorusGrid, c: Constitutive, cfl: float = 0.4, umax: float = 0.0
) -> float:
    """Acoustic CFL step: cfl * dx / (umax + sqrt(P'(1)) / eps)."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if umax < 0:
        raise ValueError(f"umax must be nonnegative, got {umax}")
    sound = math.sqrt(float(c.pressure_prime(1.0))) / eps
    return cfl * grid.dx / (umax + sound)


# ---------------------------------------------------------------------------
# generic classical RK4; used directly for ODE-style right-hand sides


def _tend_arrays(t):
    if isinstance(t, CompressibleTendency):
        return [t.drho.values, *[x.values for x in t.dmom], t.dq.values]
    if isinstance(t, IncompressibleTendency):
        return [*[x.values for x in t.du], t.dphi.values]
    raise TypeError(f"unsupported tendency type {type(t)!r}")


def _nudged(state, tend, a: float):
    if isinstance(state, np.ndarray):
        out = state + a * tend
        if not np.all(np.isfinite(out)):
            raise NumericsError("non-finite values in RK4 stage")
        return out
    base = state.as_arrays()
    try:
        return state.with_arrays([x + a * y for x, y in zip(base, _tend_arrays(tend))])
    except ValueError as exc:
        raise NumericsError("non-finite values in RK4 stage") from exc


def _combined(state, tends, dt: float):
    if isinstance(state, np.ndarray):
        k1, k2, k3, k4 = tends
        out = state + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(out)):
            raise NumericsError("non-finite values in RK4 update")
        return out
    base = state.as_arrays()
    parts = [_tend_arrays(t) for t in tends]
    new = [
        x + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
        for x, a, b, c, d in zip(base, *parts)
    ]
    try:
        return state.with_arrays(new)
    except ValueError as exc:
        raise NumericsError("non-finite values in RK4 update") from exc


def step_rk4(state, rhs: Callable, dt: float):
    """One classical RK4 step of d(state)/dt = rhs(state).

    Works on bare numpy arrays and on the PDE state types alike.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    k1 = rhs(state)
    k2 = rhs(_nudged(state, k1, 0.5 * dt))
    k3 = rhs(_nudged(state, k2, 0.5 * dt))
    k4 = rhs(_nudged(state, k3, dt))
    return _combined(state, (k1, k2, k3, k4), dt)


# ---------------------------------------------------------------------------
# exponential time differencing RK4 on the PDE states

# terms of the phi_3 Taylor series used on |z| < 1; the first dropped term
# is below 1/22! ~ 9e-22, far under rounding
_TAYLOR_TERMS = 19


def _phi123(z: np.ndarray) -> tuple:
    """phi_1, phi_2, phi_3 of a real array z, phi_k(z) = sum_j z^j / (j+k)!.

    Closed forms where |z| >= 1.  Below that the closed forms cancel, so
    phi_3 comes from its Taylor series and the others from the recurrence
    phi_k = z phi_{k+1} + 1/k!.
    """
    z = np.asarray(z, dtype=float)
    p1, p2, p3 = np.empty_like(z), np.empty_like(z), np.empty_like(z)
    big = np.abs(z) >= 1.0
    zb = z[big]
    em1 = np.expm1(zb)
    p1[big] = em1 / zb
    p2[big] = (em1 - zb) / zb**2
    p3[big] = (em1 - zb - 0.5 * zb**2) / zb**3
    small = ~big
    zs = z[small]
    s3 = np.zeros_like(zs)
    for j in range(_TAYLOR_TERMS - 1, -1, -1):
        s3 = s3 * zs + 1.0 / math.factorial(j + 3)
    s2 = zs * s3 + 0.5
    p3[small] = s3
    p2[small] = s2
    p1[small] = zs * s2 + 1.0
    return p1, p2, p3


def _etd_tables(lam: np.ndarray, dt: float) -> dict:
    """Cox-Matthews coefficients of the symbol lam at step dt.

    E = exp(lam dt), E2 = exp(lam dt/2), Q = dt/2 phi_1(lam dt/2), and the
    weights f1, f2, f3 of the final stage in Kassam & Trefethen's notation,
    written in phi functions of z = lam dt.
    """
    z = lam * dt
    p1, p2, p3 = _phi123(z)
    return {
        "E": np.exp(z),
        "E2": np.exp(0.5 * z),
        "Q": 0.5 * dt * _phi123(0.5 * z)[0],
        "f1": dt * (p1 - 3.0 * p2 + 4.0 * p3),
        "f2": dt * (p2 - 2.0 * p3),
        "f3": dt * (4.0 * p3 - p2),
    }


# one table set per regime, rebuilt when grid, model, reference viscosities
# or dt change; dt is constant within a sampling interval of integrate.  A
# hit returns what a rebuild would, so no caller can tell the cache is there;
# a single slot keeps memory flat when dt changes every interval.
_ETD_CACHE: dict = {}


def _cached_tables(regime: str, key: tuple, dt: float, symbols: Callable) -> list:
    """_etd_tables of each symbol in symbols(), kept while (key, dt) repeats."""
    hit = _ETD_CACHE.get(regime)
    if hit is None or hit[0] != (key, dt):
        hit = ((key, dt), [_etd_tables(lam, dt) for lam in symbols()])
        _ETD_CACHE[regime] = hit
    return hit[1]


def _etdrk4(zh, ops, nonlin, mask):
    """One ETDRK4 step (Cox & Matthews, JCP 176, 2002) of z' = L z + N(z).

    zh is the spectral state list; ops(key, list) applies the table key
    ("E", "E2", "Q", "f1", "f2", "f3", see _etd_tables) of L at the step;
    nonlin(list) returns fft(rhs(z)) - L0*zh, with L0 the part of L that
    the tendency itself contains.  L is integrated exactly, so a purely
    linear system steps by exp(L dt).
    """
    if mask is not None:
        zh = [np.where(mask, z, 0.0) for z in zh]
    nu = nonlin(zh)
    half = ops("E2", zh)
    a = [e + q for e, q in zip(half, ops("Q", nu))]
    na = nonlin(a)
    b = [e + q for e, q in zip(half, ops("Q", na))]
    nb = nonlin(b)
    c = [
        e + q
        for e, q in zip(ops("E2", a), ops("Q", [2.0 * x - y for x, y in zip(nb, nu)]))
    ]
    nc = nonlin(c)
    out = [
        e + f1 + 2.0 * f2 + f3
        for e, f1, f2, f3 in zip(
            ops("E", zh),
            ops("f1", nu),
            ops("f2", [x + y for x, y in zip(na, nb)]),
            ops("f3", nc),
        )
    ]
    if mask is not None:
        out = [np.where(mask, z, 0.0) for z in out]
    return out


def _reference_viscosities(c: Constitutive):
    one = np.ones(())
    zero = np.zeros(())
    return float(c.viscosity_nu(one, zero)), float(c.viscosity_eta(one, zero))


def _phase_symbol(g: TorusGrid, model: ModelKind) -> np.ndarray:
    k2 = g.rk_squared
    if model is ModelKind.CH:
        return -(k2**2) + k2
    return -k2 + 1.0


def _split_apply(g: TorusGrid, mh: list, sol_sym, irr_sym) -> list:
    """Multiply the solenoidal part of mh by sol_sym, its gradient part by irr_sym."""
    return [
        sol_sym * (vh - irr) + irr_sym * irr
        for vh, irr in zip(mh, g.irrotational_hat(mh))
    ]


def _viscous_fn(g: TorusGrid, mh: list, nu_bar: float, eta_bar: float, fn) -> list:
    """fn(L) m for the reference viscous operator L = nu*Lap + eta*grad div.

    L acts as -nu|k|^2 on the solenoidal part of m and as -(nu+eta)|k|^2 on
    its gradient part, so fn (identity, resolvent) sees only those two
    symbols.
    """
    k2 = g.rk_squared
    return _split_apply(g, mh, fn(-nu_bar * k2), fn(-(nu_bar + eta_bar) * k2))


def _rhs_hat(s, c: Constitutive, zh: list) -> list:
    """Tendency spectra of the state layout zh, with s supplying regime,
    model and eps."""
    g = s.grid
    d = g.dim
    if isinstance(s, CompressibleState):
        drh, dmh, dqh = rhs_compressible_hat(
            g, s.eps, zh[0], zh[1 : 1 + d], zh[-1], c, s.model
        )
        return [drh, *dmh, dqh]
    du_hat, dphi_hat = rhs_incompressible_hat(g, zh[:d], zh[-1], c, s.model)
    return [*du_hat, dphi_hat]


def step_compressible_rk4(
    s: CompressibleState, dt: float, c: Constitutive, dealias_each_stage: bool = True
) -> CompressibleState:
    """ETDRK4 step of the conservative compressible system.

    The exact linear part is -svv on density, the reference viscous
    operator minus svv on momentum (split into solenoidal and gradient
    parts) and the phase symbol minus svv on q.  Runs entirely on the
    half-spectrum layout.
    """
    g = s.grid
    d = g.dim
    nu_bar, eta_bar = _reference_viscosities(c)
    ell_q = _phase_symbol(g, s.model)
    k2 = g.rk_squared
    svv = g.rsvv
    rho_t, sol_t, irr_t, q_t = _cached_tables(
        "compressible",
        (g, s.model, nu_bar, eta_bar),
        dt,
        lambda: (-svv, -nu_bar * k2 - svv, -(nu_bar + eta_bar) * k2 - svv, ell_q - svv),
    )

    def ops(key: str, zl: list) -> list:
        mom = _split_apply(g, zl[1 : 1 + d], sol_t[key], irr_t[key])
        return [rho_t[key] * zl[0], *mom, q_t[key] * zl[-1]]

    # the tables carry the extra -svv damping while the remainder still
    # subtracts the bare symbols, so the integrated system is rhs - svv*z
    def nonlin(zh: list) -> list:
        t = _rhs_hat(s, c, zh)
        lin_m = _viscous_fn(g, zh[1 : 1 + d], nu_bar, eta_bar, lambda lam: lam)
        return [
            t[0],
            *[a - b for a, b in zip(t[1 : 1 + d], lin_m)],
            t[-1] - ell_q * zh[-1],
        ]

    zh = batch_rfft(g, list(s.as_arrays()))
    mask = g.rdealias_mask if dealias_each_stage else None
    zh_new = _etdrk4(zh, ops, nonlin, mask)
    try:
        return s.with_arrays(batch_irfft(g, zh_new))
    except ValueError as exc:
        raise NumericsError("non-finite values in RK4 update") from exc


def step_incompressible_rk4(
    s: IncompressibleState, dt: float, c: Constitutive, dealias_each_stage: bool = True
) -> IncompressibleState:
    """ETDRK4 step of the projected incompressible system (exact linear part
    -nu|k|^2 - svv on velocity, the phase symbol minus svv on phi)."""
    g = s.grid
    d = g.dim
    nu_bar, _ = _reference_viscosities(c)
    ell_phi = _phase_symbol(g, s.model)
    k2 = g.rk_squared
    svv = g.rsvv
    u_t, phi_t = _cached_tables(
        "incompressible",
        (g, s.model, nu_bar),
        dt,
        lambda: (-nu_bar * k2 - svv, ell_phi - svv),
    )

    def ops(key: str, zl: list) -> list:
        return [*[u_t[key] * z for z in zl[:d]], phi_t[key] * zl[-1]]

    def nonlin(zh: list) -> list:
        t = _rhs_hat(s, c, zh)
        return [
            *[a + nu_bar * k2 * z for a, z in zip(t[:d], zh[:d])],
            t[-1] - ell_phi * zh[-1],
        ]

    zh = batch_rfft(g, list(s.as_arrays()))
    mask = g.rdealias_mask if dealias_each_stage else None
    zh_new = _etdrk4(zh, ops, nonlin, mask)
    try:
        return s.with_arrays(batch_irfft(g, zh_new))
    except ValueError as exc:
        raise NumericsError("non-finite values in RK4 update") from exc


# ---------------------------------------------------------------------------
# implicit solves: first-order IMEX and Picard-iterated implicit Euler


def _lagged_euler(g: TorusGrid, zn: list, z: list, tend: list, dt: float,
                  nu_bar: float, eta_bar: float, ell: np.ndarray) -> list:
    """Implicit Euler update with the constant-coefficient core solved exactly
    and the rest of the tendency lagged at z:

        (1 - dt*L) z_new = zn + dt*(tend - L z),

    L = 0 on a leading density slot (when the layout has one), the reference
    viscous operator on the velocity/momentum block, and ell on the phase.
    """
    d = g.dim
    lead = len(zn) - d - 1
    vel = slice(lead, lead + d)
    lin = _viscous_fn(g, z[vel], nu_bar, eta_bar, lambda lam: lam)
    rhs = [a + dt * (f - l) for a, f, l in zip(zn[vel], tend[vel], lin)]
    return [
        *[a + dt * f for a, f in zip(zn[:lead], tend[:lead])],
        *_viscous_fn(g, rhs, nu_bar, eta_bar, lambda lam: 1.0 / (1.0 - dt * lam)),
        (zn[-1] + dt * (tend[-1] - ell * z[-1])) / (1.0 - dt * ell),
    ]


def step_imex(state, dt: float, c: Constitutive, model: Optional[ModelKind] = None):
    """First-order IMEX step: explicit transport/pressure/capillary, implicit
    constant-coefficient viscosity and phase stiffness (-Lap^2 for the
    conserved model, Lap for the relaxational one)."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not isinstance(state, (CompressibleState, IncompressibleState)):
        raise TypeError(f"unsupported state type {type(state)!r}")
    if model is None:
        model = state.model
    elif model is not state.model:
        raise ValueError(f"model {model} does not match state model {state.model}")
    g = state.grid
    nu_bar, eta_bar = _reference_viscosities(c)
    if isinstance(state, IncompressibleState):
        eta_bar = 0.0  # the projected velocity has no grad-div part
    k2 = g.rk_squared
    stiff = k2**2 if model is ModelKind.CH else k2
    zh = batch_rfft(g, state.as_arrays())
    out_hat = _lagged_euler(g, zh, zh, _rhs_hat(state, c, zh), dt, nu_bar, eta_bar, -stiff)
    try:
        return state.with_arrays(batch_irfft(g, out_hat))
    except ValueError as exc:
        raise NumericsError("non-finite values in IMEX update") from exc


def picard_step(
    s: CompressibleState, dt: float, c: Constitutive, cfg: StepperConfig
):
    """Implicit Euler step z = z_n + dt*F(z) of the conservative compressible
    system by Picard iteration on the half spectra (see _lagged_euler for the
    splitting); the increment is measured in H^1, density scaled by 1/eps.
    Returns the updated state and a convergence report."""
    if not isinstance(s, CompressibleState):
        raise TypeError("picard_step expects a compressible state")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    g = s.grid
    nu_bar, eta_bar = _reference_viscosities(c)
    ell_q = _phase_symbol(g, s.model)
    h1 = 1.0 + g.rk_squared
    zn = [np.where(g.rdealias_mask, z, 0.0) for z in batch_rfft(g, s.as_arrays())]

    z = zn
    ratios = []
    converged = False
    diff = math.inf
    for it in range(1, cfg.picard.max_iter + 1):
        z_new = _lagged_euler(g, zn, z, _rhs_hat(s, c, z), dt, nu_bar, eta_bar, ell_q)
        prev_diff = diff
        sq = [hermitian_sq(g, a - b, h1) for a, b in zip(z_new, z)]
        diff = math.sqrt(sq[0]) / s.eps + sum(math.sqrt(x) for x in sq[1:])
        if 0 < prev_diff < math.inf:
            ratios.append(diff / prev_diff)
        z = z_new
        if diff < cfg.picard.tol:
            converged = True
            break

    report = PicardReport(it, converged, tuple(ratios), diff)
    try:
        return s.with_arrays(batch_irfft(g, z)), report
    except ValueError as exc:
        raise NumericsError("non-finite values in Picard update") from exc


# ---------------------------------------------------------------------------
# driver


def _max_speed(state) -> float:
    if isinstance(state, CompressibleState):
        u, _ = primitives(state)
    else:
        u = state.u
    return float(max(np.max(np.abs(comp.values)) for comp in u))


def default_dt(state, c: Constitutive, cfg: StepperConfig) -> float:
    """Step size implied by the config: an override when given, else the
    acoustic bound (compressible) or an advective bound (incompressible).

    The same bound holds for every scheme and both phase models: ETDRK4 and
    the implicit solves take the phase stiffness exactly, so no separate
    phase cap applies."""
    if cfg.dt_override is not None:
        return cfg.dt_override
    g = state.grid
    umax = _max_speed(state)
    if isinstance(state, CompressibleState):
        return acoustic_dt(state.eps, g, c, cfg.cfl, umax)
    return cfg.cfl * g.dx / (umax + _INCOMPRESSIBLE_WAVE_SPEED)


def _make_stepper(state, c: Constitutive, cfg: StepperConfig) -> Callable:
    if cfg.picard.enabled:
        if not isinstance(state, CompressibleState):
            raise ValueError("picard stepping applies to compressible runs only")

        def run(s, dt):
            s_new, rep = picard_step(s, dt, c, cfg)
            if not rep.converged:
                raise NumericsError(
                    f"picard iteration stalled: {rep.iterations} iterations, "
                    f"last update {rep.final_diff:.3e} > tol {cfg.picard.tol:.3e}"
                )
            return s_new

        return run
    if cfg.scheme == "imex":
        return lambda s, dt: step_imex(s, dt, c)
    if isinstance(state, CompressibleState):
        return lambda s, dt: step_compressible_rk4(s, dt, c, cfg.dealias_each_stage)
    return lambda s, dt: step_incompressible_rk4(s, dt, c, cfg.dealias_each_stage)


def integrate(
    state,
    c: Constitutive,
    cfg: StepperConfig,
    sample_times: Optional[Sequence] = None,
    observer: Optional[Callable] = None,
):
    """March the state to cfg.t_end, returning [(t, state)] at sample_times.

    Each sampling interval is covered by equal substeps no larger than the
    configured bound, so samples land on their times exactly.  ``observer``
    (if given) is called as observer(t, state) after every accepted step.
    """
    if sample_times is None:
        sample_times = [cfg.t_end]
    times = [float(t) for t in sample_times]
    if any(t < 0 for t in times) or any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("sample_times must be strictly increasing and nonnegative")
    if times and times[-1] > cfg.t_end + 1e-12:
        raise ValueError(
            f"sample time {times[-1]} exceeds t_end {cfg.t_end}"
        )

    stepper = _make_stepper(state, c, cfg)

    out = []
    t = 0.0
    for target in times:
        if target == 0.0:
            out.append((0.0, state))
            continue
        # re-evaluate the step bound from the current state so the cap
        # follows the flow (still the same formula, fresh inputs)
        dt_target = default_dt(state, c, cfg)
        span = target - t
        nsub = max(1, math.ceil(span / dt_target - 1e-12))
        dt = span / nsub
        for i in range(nsub):
            try:
                state = stepper(state, dt)
            except NumericsError as exc:
                raise NumericsError(f"step failed at t = {t + i * dt:.6g}: {exc}") from exc
            if observer is not None:
                observer(t + (i + 1) * dt, state)
        t = target
        out.append((t, state))
    return out
