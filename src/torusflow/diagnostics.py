"""Norms, energy reports, modulated-energy distance, conservation ledgers.

Sobolev norms use the Bessel weight (1 + |k|^2)^s, which is equivalent to
the multi-index sum over derivatives up to order s; the exact multi-index
weight is also available as a cross-check.  Both weights live on the half
(rfft) layout and are summed with Hermitian multiplicities
(``spectral.hermitian_sq``).  Quadratures of quartic and rational
integrands run on a 2x oversampled grid (``refine``), which makes them
exact for the polynomial cases and rounding-accurate for smooth states;
derivatives there come from the fine grid's half-spectrum tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constitutive import Constitutive, ModelKind
from .dynamics import CompressibleState, IncompressibleState
from .errors import VacuumError
from .spectral import (
    Field,
    TorusGrid,
    divergence,
    hermitian_sq,
    hs_norm,
    integral,
    refine,
)


def sobolev_norm(f: Field, s: int) -> float:
    """H^s norm sqrt(sum_k (1+|k|^2)^s |c_k|^2 * volume); s=0 is the L2 norm."""
    return hs_norm(f, s)


@dataclass(frozen=True)
class SobolevSpec:
    """Sobolev index plus an optional weight for the scaled density slot."""

    s: int
    eps_weight: Optional[float] = None

    def __post_init__(self):
        if self.s < 0:
            raise ValueError(f"Sobolev index must be nonnegative, got {self.s}")
        if self.eps_weight is not None and self.eps_weight <= 0:
            raise ValueError(f"eps_weight must be positive, got {self.eps_weight}")

    def validate_for(self, grid: TorusGrid):
        if self.s > grid.n / 3:
            raise ValueError(
                f"Sobolev index {self.s} is not resolvable on n = {grid.n} (need s <= n/3)"
            )


@dataclass(frozen=True)
class EnergyReport:
    kinetic: float
    internal: float
    gradient: float
    potential: float
    total: float
    dissipation: float
    time: float


def _fine_mean(gf: TorusGrid, arr: np.ndarray) -> float:
    return float(np.mean(arr)) * gf.volume


def _fine_grad(gf: TorusGrid, a: np.ndarray) -> list:
    """Spectral gradient of a fine-grid array; the Nyquist plane is zeroed."""
    ah = gf.rfft(a)
    return [gf.irfft(ik * ah) for ik in gf._rik]


def _fine_terms(gf: TorusGrid, rho, u: list, phi, c: Constitutive, model: ModelKind):
    """Gradient and potential energies and the dissipation rate of the energy
    law on the fine grid; ``rho`` is all ones for incompressible states."""
    ph = gf.rfft(phi)
    gradient = _fine_mean(
        gf, 0.5 * sum(gf.irfft(ik * ph) ** 2 for ik in gf._rik)
    )
    potential = _fine_mean(gf, 0.25 * rho * (phi * phi - 1.0) ** 2)

    grad_u = [_fine_grad(gf, ua) for ua in u]
    grad_u_sq = sum(d * d for row in grad_u for d in row)
    divu = sum(grad_u[a][a] for a in range(gf.dim))
    nu = c.viscosity_nu(rho, phi)
    eta = c.viscosity_eta(rho, phi)
    dissipation = _fine_mean(gf, nu * grad_u_sq + eta * divu * divu)

    mu = gf.irfft(gf.rk_squared * ph) / rho + phi**3 - phi
    if model is ModelKind.CH:
        dissipation += _fine_mean(gf, sum(d * d for d in _fine_grad(gf, mu)))
    else:
        dissipation += _fine_mean(gf, rho * mu * mu)
    return gradient, potential, dissipation


def energy_compressible(
    s: CompressibleState, c: Constitutive, time: float = 0.0
) -> EnergyReport:
    """Energy components int 1/2 rho|u|^2 + eps^-2 omega(rho) + 1/2|grad phi|^2
    + 1/4 rho(phi^2-1)^2 and the dissipation rate of the energy law."""
    g = s.grid
    gf = TorusGrid(g.dim, 2 * g.n)
    rho = refine(s.rho)
    if np.min(rho) <= 0:
        raise VacuumError("energy_compressible: nonpositive density")
    m = [refine(comp) for comp in s.mom]
    q = refine(s.q)
    u = [mi / rho for mi in m]

    kinetic = _fine_mean(gf, 0.5 * sum(mi * ui for mi, ui in zip(m, u)))
    internal = _fine_mean(gf, c.omega(rho)) / s.eps**2
    gradient, potential, dissipation = _fine_terms(gf, rho, u, q / rho, c, s.model)
    total = kinetic + internal + gradient + potential
    return EnergyReport(kinetic, internal, gradient, potential, total, dissipation, time)


def energy_incompressible(
    s: IncompressibleState, c: Constitutive, time: float = 0.0
) -> EnergyReport:
    g = s.grid
    gf = TorusGrid(g.dim, 2 * g.n)
    u = [refine(comp) for comp in s.u]

    kinetic = _fine_mean(gf, 0.5 * sum(ua * ua for ua in u))
    gradient, potential, dissipation = _fine_terms(
        gf, np.ones(gf.shape), u, refine(s.phi), c, s.model
    )
    total = kinetic + gradient + potential
    return EnergyReport(kinetic, 0.0, gradient, potential, total, dissipation, time)


def modulated_energy(
    cs: CompressibleState, is_: IncompressibleState, c: Constitutive
):
    """Modulated-energy pair (full, distance).

    distance = int 1/2 |sqrt(rho_e) u_e - u|^2 + Pi_e + 1/2 |grad(phi_e - phi)|^2
    with Pi_e = eps^-2 (omega(rho_e) - P(1)(rho_e - 1)); full adds the two
    double-well bulk terms.
    """
    if cs.grid != is_.grid:
        raise ValueError("modulated_energy requires states on the same grid")
    g = cs.grid
    gf = TorusGrid(g.dim, 2 * g.n)
    rho = refine(cs.rho)
    if np.min(rho) <= 0:
        raise VacuumError("modulated_energy: nonpositive density")
    m = [refine(comp) for comp in cs.mom]
    q = refine(cs.q)
    ue = [mi / rho for mi in m]
    phie = q / rho
    u = [refine(comp) for comp in is_.u]
    phi = refine(is_.phi)

    sqrt_rho = np.sqrt(rho)
    kin = 0.5 * sum((sqrt_rho * a - b) ** 2 for a, b in zip(ue, u))
    p1 = float(c.pressure(np.ones(())))
    pi_e = (c.omega(rho) - p1 * (rho - 1.0)) / cs.eps**2

    grad_d_sq = sum(d * d for d in _fine_grad(gf, phie - phi))

    distance = _fine_mean(gf, kin + pi_e + 0.5 * grad_d_sq)
    bulk = _fine_mean(
        gf, 0.25 * rho * (phie**2 - 1.0) ** 2 + 0.25 * (phi**2 - 1.0) ** 2
    )
    return distance + bulk, distance


# ---------------------------------------------------------------------------
# scaled functionals


def _weight(g: TorusGrid, s: int, weight: str) -> np.ndarray:
    """Sobolev weight on the half layout: the Bessel weight (1 + |k|^2)^s
    ("spectral") or the exact sum_{|alpha| <= s} prod_i k_i^(2 alpha_i)
    ("multiindex")."""
    if weight == "spectral":
        return (1.0 + g.rk_squared) ** s
    if weight != "multiindex":
        raise ValueError(f"unknown weight {weight!r}")
    w = np.zeros(g.rshape)
    for alpha in _alphas(g.dim, s):
        term = 1.0
        for ka, order in zip(g.rwavenumbers, alpha):
            term = term * ka.astype(float) ** (2 * order)
        w = w + term
    return w


def functional_Es(s_state: CompressibleState, s: int, weight: str = "spectral") -> float:
    """Scaled regularity functional sum_{|a|<=s} int eps^-2 |D^a(rho-1)|^2 + |D^a u|^2.

    ``weight`` chooses the Bessel-weight evaluation ("spectral", the default)
    or the exact multi-index sum ("multiindex").
    """
    g = s_state.grid
    w = _weight(g, s, weight)
    u, _ = _primitive_fields(s_state)
    out = hermitian_sq(g, g.rfft(s_state.rho.values - 1.0), w) / s_state.eps**2
    out += sum(hermitian_sq(g, g.rfft(comp.values), w) for comp in u)
    return out


def functional_Es_weighted(s_state: CompressibleState, s: int, c: Constitutive) -> float:
    """Density/pressure-weighted variant sum int P'(rho)/(eps^2 rho)|D^a(rho-1)|^2
    + rho|D^a u|^2; equivalent to functional_Es while rho stays near 1."""
    g = s_state.grid
    gf = TorusGrid(g.dim, 2 * g.n)
    rho_f = refine(s_state.rho)
    if np.min(rho_f) <= 0:
        raise VacuumError("functional_Es_weighted: nonpositive density")
    u, _ = _primitive_fields(s_state)
    wrho = c.pressure_prime(rho_f) / rho_f / s_state.eps**2
    out = 0.0
    dens = Field(g, s_state.rho.values - 1.0)
    for alpha in _alphas(g.dim, s):
        da = _deriv_alpha(dens, alpha)
        out += _fine_mean(gf, wrho * refine(da) ** 2)
        for comp in u:
            out += _fine_mean(gf, rho_f * refine(_deriv_alpha(comp, alpha)) ** 2)
    return out


def _alphas(dim: int, s: int):
    if dim == 1:
        return [(a,) for a in range(s + 1)]
    return [(a, b) for a in range(s + 1) for b in range(s + 1 - a)]


def _deriv_alpha(f: Field, alpha: tuple) -> Field:
    """D^alpha f as one product of rderiv symbols on the half layout."""
    g = f.grid
    sym = 1.0
    for axis, order in enumerate(alpha):
        if order:
            sym = sym * g.rderiv(axis, order)
    return Field(g, g.irfft(sym * g.rfft(f.values)))


def _primitive_fields(s_state: CompressibleState):
    g = s_state.grid
    rho = s_state.rho.values
    if np.min(rho) <= 0:
        raise VacuumError("functional evaluation: nonpositive density")
    u = tuple(Field(g, comp.values / rho) for comp in s_state.mom)
    phi = Field(g, s_state.q.values / rho)
    return u, phi


def functional_Fs(phi: Field, s: int, weight: str = "spectral") -> float:
    """Phase regularity functional sum_{|a|<=s} int |grad D^a phi|^2."""
    g = phi.grid
    w = _weight(g, s, weight)
    return hermitian_sq(g, g.rfft(phi.values), g.rk_squared * w)


# ---------------------------------------------------------------------------
# conservation ledger


@dataclass(frozen=True)
class ConservationReport:
    kind: str
    model: ModelKind
    mass_drift: Optional[float]
    phase_mass_drift: Optional[float]
    div_u_max: Optional[float]
    mass_initial: Optional[float]
    phase_mass_initial: Optional[float]


def _rel_drift(values: list) -> float:
    v0 = values[0]
    scale = max(abs(v0), 1.0)
    return max(abs(v - v0) for v in values) / scale


def conservation_ledger(trajectory) -> ConservationReport:
    """Maximum relative drift of the conserved integrals along a trajectory.

    Accepts a list of states or of (t, state) pairs.  Drifts are relative to
    max(|initial|, 1).  The phase-mass drift is reported for both phase
    models but is a conservation statement only for the conserved one.
    """
    states = [st[1] if isinstance(st, tuple) else st for st in trajectory]
    if not states:
        raise ValueError("conservation_ledger needs a nonempty trajectory")
    first = states[0]
    if isinstance(first, CompressibleState):
        masses = [integral(s.rho) for s in states]
        phases = [integral(s.q) for s in states]
        return ConservationReport(
            "compressible",
            first.model,
            _rel_drift(masses),
            _rel_drift(phases),
            None,
            masses[0],
            phases[0],
        )
    if isinstance(first, IncompressibleState):
        phases = [integral(s.phi) for s in states]
        div_max = max(
            float(np.max(np.abs(divergence(s.u).values))) for s in states
        )
        return ConservationReport(
            "incompressible",
            first.model,
            None,
            _rel_drift(phases),
            div_max,
            None,
            phases[0],
        )
    raise TypeError(f"unsupported state type {type(first)!r}")
