"""Right-hand sides of the two-phase systems.

Compressible runs evolve the conservative variables (rho, m, q) =
(density, momentum, phase density); incompressible runs evolve (u, phi)
with a Leray projection.  The phase dynamics is either conserved
(Cahn-Hilliard, A mu = Lap mu) or relaxational (Allen-Cahn, A mu = -mu).

All nonlinear products are collocated in physical space and truncated by
the 2/3 rule; divergences are evaluated spectrally, which makes the means
of drho and (CH) dq vanish identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constitutive import Constitutive, ModelKind
from .errors import NumericsError, VacuumError
from .spectral import (
    Field,
    TorusGrid,
    VectorField,
    batch_irfft,
    batch_rfft,
    divergence,
    hs_norm,
    random_band_limited,
)


@dataclass(frozen=True)
class CompressibleState:
    """Conservative state (rho, m = rho*u, q = rho*phi) at Mach parameter eps."""

    eps: float
    rho: Field
    mom: VectorField
    q: Field
    model: ModelKind

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be finite and positive, got {self.eps}")
        g = self.rho.grid
        if self.mom.grid != g or self.q.grid != g:
            raise ValueError("state fields must share one grid")

    @property
    def grid(self) -> TorusGrid:
        return self.rho.grid

    def as_arrays(self) -> list:
        return [self.rho.values, *[m.values for m in self.mom], self.q.values]

    def with_arrays(self, arrays: list) -> "CompressibleState":
        g = self.grid
        rho = Field(g, arrays[0])
        mom = VectorField(tuple(Field(g, a) for a in arrays[1:-1]))
        return CompressibleState(self.eps, rho, mom, Field(g, arrays[-1]), self.model)


@dataclass(frozen=True)
class IncompressibleState:
    """Divergence-free velocity plus order parameter."""

    u: VectorField
    phi: Field
    model: ModelKind

    def __post_init__(self):
        if self.u.grid != self.phi.grid:
            raise ValueError("state fields must share one grid")
        if self.u.grid.dim < 2:
            raise ValueError("incompressible states need dim >= 2")

    @property
    def grid(self) -> TorusGrid:
        return self.u.grid

    def as_arrays(self) -> list:
        return [*[c.values for c in self.u], self.phi.values]

    def with_arrays(self, arrays: list) -> "IncompressibleState":
        g = self.grid
        u = VectorField(tuple(Field(g, a) for a in arrays[:-1]))
        return IncompressibleState(u, Field(g, arrays[-1]), self.model)


class CompressibleTendency(NamedTuple):
    drho: Field
    dmom: VectorField
    dq: Field


class IncompressibleTendency(NamedTuple):
    du: VectorField
    dphi: Field


# ---------------------------------------------------------------------------
# assembly helpers on raw arrays


def _require_positive(rho: np.ndarray, where: str):
    rmin = float(np.min(rho))
    if rmin <= 0.0:
        idx = np.unravel_index(int(np.argmin(rho)), rho.shape)
        raise VacuumError(f"{where}: density reached {rmin:.6e} at grid index {idx}")


def _wrap(g: TorusGrid, arr: np.ndarray, name: str) -> Field:
    try:
        return Field(g, arr)
    except ValueError as exc:
        raise NumericsError(f"non-finite values in {name}") from exc


def primitives(s: CompressibleState):
    """Recover (u, phi) = (m/rho, q/rho); rejects vacuum."""
    rho = s.rho.values
    _require_positive(rho, "primitives")
    g = s.grid
    u = VectorField(tuple(Field(g, m.values / rho) for m in s.mom))
    phi = Field(g, s.q.values / rho)
    return u, phi


def rhs_compressible_hat(
    g: TorusGrid,
    eps: float,
    rh: np.ndarray,
    mh: list,
    qh: np.ndarray,
    c: Constitutive,
    model: ModelKind,
):
    """Half-spectrum core of the conservative compressible tendencies.

    Takes and returns rfft-layout spectra (rho, momentum components, q).
    All nonlinear terms are formed pointwise in physical space and
    2/3-truncated; linear operators act on the spectra directly.  Constant
    viscosities take a transform-free spectral path.
    """
    d = g.dim
    mask = g.rdealias_mask
    ik = g._rik
    k2 = g.rk_squared

    phys = batch_irfft(g, [rh, *mh, qh])
    rho, m, q = phys[0], phys[1 : 1 + d], phys[1 + d]
    if not np.all(np.isfinite(rho)):
        raise NumericsError("non-finite density in rhs_compressible")
    _require_positive(rho, "rhs_compressible")

    # primitive fields; the divisions reintroduce out-of-band tails, so truncate
    prim = batch_rfft(g, [mi / rho for mi in m] + [q / rho])
    uh = [np.where(mask, z, 0.0) for z in prim[:d]]
    phih = np.where(mask, prim[d], 0.0)

    down = batch_irfft(
        g, uh + [phih] + [ik[a] * phih for a in range(d)] + [-k2 * phih]
    )
    u = down[:d]
    phi = down[d]
    grad_phi = down[d + 1 : d + 1 + d]
    lap_phi = down[-1]

    drh = np.zeros(g.rshape, dtype=complex)
    for a in range(d):
        drh -= ik[a] * mh[a]

    # one batched transform for every pointwise product: the symmetric
    # momentum flux m_i u_j (i <= j), pressure, capillary, phase transport,
    # the cubic chemistry term, and the density-weighted curvature
    flux = [m[i] * u[j] for i in range(d) for j in range(i, d)]
    ntri = len(flux)
    prods = (
        flux
        + [c.pressure(rho)]
        + [lap_phi * ga for ga in grad_phi]
        + [q * ua for ua in u]
        + [phi**3, lap_phi / rho]
    )
    ph_hats = [np.where(mask, z, 0.0) for z in batch_rfft(g, prods)]
    press_hat = ph_hats[ntri]
    cap_hat = ph_hats[ntri + 1 : ntri + 1 + d]
    qu_hat = ph_hats[ntri + 1 + d : ntri + 1 + 2 * d]
    cube_hat, curv_hat = ph_hats[-2], ph_hats[-1]

    def flux_hat(i: int, j: int):
        lo, hi = min(i, j), max(i, j)
        return ph_hats[lo * d - lo * (lo - 1) // 2 + (hi - lo)]

    dmh = []
    for i in range(d):
        acc = -ik[i] * press_hat / eps**2 - cap_hat[i]
        for j in range(d):
            acc -= ik[j] * flux_hat(i, j)
        dmh.append(acc)

    divu_hat = np.zeros(g.rshape, dtype=complex)
    for a in range(d):
        divu_hat += ik[a] * uh[a]
    if c.visc_kind == "constant":
        for i in range(d):
            dmh[i] += c.nu0 * (-k2) * uh[i] + c.eta0 * ik[i] * divu_hat
    else:
        vis_phys = batch_irfft(
            g, [-k2 * uh[i] for i in range(d)] + [ik[i] * divu_hat for i in range(d)]
        )
        nu = c.viscosity_nu(rho, phi)
        eta = c.viscosity_eta(rho, phi)
        vis_hats = batch_rfft(
            g,
            [nu * vis_phys[i] for i in range(d)]
            + [eta * vis_phys[d + i] for i in range(d)],
        )
        for i in range(d):
            dmh[i] += np.where(mask, vis_hats[i] + vis_hats[d + i], 0.0)

    mu_hat = -curv_hat + cube_hat - phih
    dqh = np.zeros(g.rshape, dtype=complex)
    for a in range(d):
        dqh -= ik[a] * qu_hat[a]
    if model is ModelKind.CH:
        dqh += -k2 * mu_hat
    else:
        dqh -= mu_hat

    return drh, dmh, dqh


def rhs_compressible(s: CompressibleState, c: Constitutive) -> CompressibleTendency:
    """Tendencies of the conservative compressible system.

    drho = -div m
    dmom = -div(m x u) - (1/eps^2) grad P(rho) + nu*Lap u + eta*grad(div u)
           - Lap(phi) grad(phi)
    dq   = -div(q u) + A mu,   mu = (-Lap phi)/rho + phi^3 - phi
    """
    g = s.grid
    zh = batch_rfft(g, list(s.as_arrays()))
    drh, dmh, dqh = rhs_compressible_hat(
        g, s.eps, zh[0], zh[1 : 1 + g.dim], zh[-1], c, s.model
    )
    out = batch_irfft(g, [drh, *dmh, dqh])
    return CompressibleTendency(
        _wrap(g, out[0], "density tendency"),
        VectorField(
            tuple(
                _wrap(g, a, f"momentum[{i}] tendency")
                for i, a in enumerate(out[1 : 1 + g.dim])
            )
        ),
        _wrap(g, out[-1], "phase tendency"),
    )


def rhs_incompressible_hat(
    g: TorusGrid, uh_in: list, ph_in: np.ndarray, c: Constitutive, model: ModelKind
):
    """Half-spectrum core of the incompressible tendencies (rho = 1)."""
    d = g.dim
    mask = g.rdealias_mask
    ik = g._rik
    k2 = g.rk_squared

    uh = list(uh_in)
    phih = np.where(mask, ph_in, 0.0)
    grads = [ik[j] * uh[i] for i in range(d) for j in range(d)]
    down = batch_irfft(
        g,
        uh
        + grads
        + [phih, -k2 * phih]
        + [ik[a] * phih for a in range(d)],
    )
    u = down[:d]
    grad_u = [down[d + i * d : d + (i + 1) * d] for i in range(d)]
    phi = down[d + d * d]
    lap_phi = down[d + d * d + 1]
    grad_phi = down[d + d * d + 2 :]

    constant_nu = c.visc_kind == "constant"
    advect = [
        sum(u[j] * grad_u[i][j] for j in range(d)) for i in range(d)
    ]
    prods = (
        advect
        + [lap_phi * ga for ga in grad_phi]
        + [sum(u[j] * grad_phi[j] for j in range(d)), phi**3]
    )
    if not constant_nu:
        lap_u = batch_irfft(g, [-k2 * uh[i] for i in range(d)])
        nu = c.viscosity_nu(np.ones(g.shape), phi)
        prods = prods + [nu * lap_u[i] for i in range(d)]
    ph_hats = [np.where(mask, z, 0.0) for z in batch_rfft(g, prods)]

    du_hat = []
    for i in range(d):
        acc = -ph_hats[i] - ph_hats[d + i]
        if constant_nu:
            acc += c.nu0 * (-k2) * uh[i]
        else:
            acc += ph_hats[2 * d + 2 + i]
        du_hat.append(acc)
    du_hat = g.project_hat(du_hat)

    mu_hat = k2 * phih + ph_hats[2 * d + 1] - phih
    dphi_hat = -ph_hats[2 * d]
    if model is ModelKind.CH:
        dphi_hat = dphi_hat + (-k2) * mu_hat
    else:
        dphi_hat = dphi_hat - mu_hat
    return du_hat, dphi_hat


def rhs_incompressible(s: IncompressibleState, c: Constitutive) -> IncompressibleTendency:
    """Leray-projected velocity tendency and phase tendency (rho = 1)."""
    g = s.grid
    zh = batch_rfft(g, list(s.as_arrays()))
    du_hat, dphi_hat = rhs_incompressible_hat(g, zh[:-1], zh[-1], c, s.model)
    out = batch_irfft(g, du_hat + [dphi_hat])
    return IncompressibleTendency(
        VectorField(
            tuple(_wrap(g, a, f"velocity[{i}] tendency") for i, a in enumerate(out[:-1]))
        ),
        _wrap(g, out[-1], "phase tendency"),
    )


# ---------------------------------------------------------------------------
# initial data


def make_compressible(
    eps: float, rho: Field, u: VectorField, phi: Field, model: ModelKind
) -> CompressibleState:
    """Pack primitive fields into conservative variables."""
    g = rho.grid
    rv = rho.values
    _require_positive(rv, "make_compressible")
    mom = VectorField(tuple(Field(g, rv * comp.values) for comp in u))
    q = Field(g, rv * phi.values)
    return CompressibleState(eps, rho, mom, q, model)


# perturbations live in modes |k_axis| <= _PERT_KMAX; presets stay below
# cutoff - _PERT_KMAX so conservative packing rho*u, rho*phi is band-exact
_PERT_KMAX = 4


def well_prepared_initial(
    u0: VectorField,
    phi0: Field,
    eps: float,
    kappa0: float,
    seed: int,
    model: ModelKind = ModelKind.CH,
) -> CompressibleState:
    """Compressible data an O(eps^2, eps, eps) perturbation off (1, u0, phi0).

    rho0 = 1 + eps^2*kappa0*r1, u0e = u0 + eps*kappa0*r2, phi0e = phi0 +
    eps*kappa0*r3 with fixed-seed band-limited fields r_i of unit H^3 norm.
    Requires div u0 = 0.
    """
    g = u0.grid
    div_max = float(np.max(np.abs(divergence(u0).values)))
    if div_max > 1e-10:
        raise ValueError(f"u0 is not divergence-free: max |div u0| = {div_max:.3e}")

    rng = np.random.default_rng(seed)
    kmax = min(_PERT_KMAX, g.dealias_cutoff)
    r1 = random_band_limited(g, rng, kmax)
    r2 = [random_band_limited(g, rng, kmax) for _ in range(g.dim)]
    r3 = random_band_limited(g, rng, kmax)

    r1 = Field(g, r1.values / hs_norm(r1, 3))
    r2_scale = np.sqrt(sum(hs_norm(comp, 3) ** 2 for comp in r2))
    r2 = [Field(g, comp.values / r2_scale) for comp in r2]
    r3 = Field(g, r3.values / hs_norm(r3, 3))

    rho = Field(g, 1.0 + eps**2 * kappa0 * r1.values)
    u = VectorField(
        tuple(Field(g, a.values + eps * kappa0 * b.values) for a, b in zip(u0, r2))
    )
    phi = Field(g, phi0.values + eps * kappa0 * r3.values)
    return make_compressible(eps, rho, u, phi, model)


# ---------------------------------------------------------------------------
# named presets (d = 2)


def _band_limit(g: TorusGrid, arr: np.ndarray, kmax: int) -> np.ndarray:
    return g.irfft(np.where(g.rband_mask(kmax), g.rfft(arr), 0.0))


def taylor_green_bubble(grid: TorusGrid):
    """Taylor-Green vortex plus a smooth circular bubble in phi."""
    if grid.dim != 2:
        raise ValueError("taylor_green_bubble is a 2-d preset")
    x, y = grid.coords()
    amp = 0.5
    ux = amp * np.sin(x) * np.cos(y)
    uy = -amp * np.cos(x) * np.sin(y)
    r = np.sqrt((x - np.pi) ** 2 + (y - np.pi) ** 2)
    # interface width 0.8: spectrally resolved at n = 32 and up, and keeps
    # the capillary-driven acoustic transient mild at moderate Mach numbers
    phi = np.tanh((1.2 - r) / 0.8)
    kmax = grid.dealias_cutoff - _PERT_KMAX
    phi = _band_limit(grid, phi, kmax)
    u0 = VectorField((Field(grid, ux), Field(grid, uy)))
    return u0, Field(grid, phi)


def single_mode(grid: TorusGrid):
    """One shear mode in u and one cosine mode in phi."""
    if grid.dim != 2:
        raise ValueError("single_mode is a 2-d preset")
    x, y = grid.coords()
    u0 = VectorField((Field(grid, 0.5 * np.sin(y)), Field(grid, np.zeros(grid.shape))))
    return u0, Field(grid, 0.3 * np.cos(x))


PRESETS = {
    "taylor_green_bubble": taylor_green_bubble,
    "single_mode": single_mode,
}


def initial_from_preset(name: str, grid: TorusGrid):
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return PRESETS[name](grid)
