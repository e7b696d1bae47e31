"""Energy reports and the modulated-energy distance.

Each report refines all of its fields in one stacked ``refine`` call to an
oversampled grid whose size follows the degree of its integrand (Orszag,
J. Atmos. Sci. 28 (1971)): a product of p fields of the 2/3 band,
|k| <= floor(n/3), has modes up to p floor(n/3), and its mean on an N grid
is exact while N > p floor(n/3).  Rational integrands (u = m/rho, 1/rho in
mu) are rounding-accurate for smooth states.

- ``energy_compressible`` and ``energy_incompressible`` run on the 2x grid.
  Their dissipation squares mu, which holds phi^3 (modes up to
  3 floor(n/3)), so it needs N > 6 floor(n/3), about 2n: on the 3/2 grid
  the CH reports read 3.7e-13 off the 2x-grid reference on a rough state
  (n = 32, eps 0.5, kappa0 3).
- ``modulated_energy`` runs on the 3/2 grid, N = 2 ceil(3n/4) (96 at
  n = 64): its polynomial parts have degree <= 4, and N > 4 floor(n/3).  On
  that rough state it reads the same on the 3/2, 2x and 3x grids to
  5.6e-16, for both models and both viscosity laws.  A pair
  of stepped states refines the rows of their carried band stacks, so the
  column pass runs on the n//3 + 1 band columns and no forward transform is
  taken; a pair with a state built from fields refines their half spectra,
  since the prepared q and m are not band-exact.

On the fine grid, discrete Parseval turns the quadratic spectral terms into
Hermitian-weighted sums over its half spectrum, with the derivative symbols
``_rik`` / ``_rik2``: the gradient energy 1/2 int |grad phi|^2, the
constant-viscosity dissipation nu int |grad u|^2 + eta int (div u)^2, the CH
dissipation int |grad mu|^2 and the 1/2 int |grad(phi_e - phi)|^2 term of
the modulated distance.  They equal the fine-grid means to round-off.  The
kinetic, internal and double-well terms, the AC dissipation int mu^2 and
a viscosity law with a nonzero slope (nu(rho, phi) and eta(rho, phi) weight
the integrand point by point) stay pointwise means on the fine grid.

The reports form every integrand in a per-grid workspace on their fine
grid (_FineWorkspace: the refined stack, one complex pool shared by refine
and the fine half spectra, two real scratch arrays) with ``out=`` ufuncs,
in the order of the allocating formulas, so a warm report allocates no
grid-sized array and returns the same bits.  Each workspace, with its fine
grid and that grid's tables, is a slot of ``spectral._one_slot``, built on
the first report and rebuilt when the grid changes: ``diagnostics.workspace``
(2x, owned by ``torusflow run``'s report thread during a run) and
``diagnostics.modulated`` (3/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constitutive import Constitutive, ModelKind
from .dynamics import (
    CompressibleState,
    IncompressibleState,
    _require_positive,
)
from .spectral import (
    TorusGrid,
    _div_hat,
    _one_slot,
    batch_irfft,
    batch_rfft,
    hermitian_sq,
    refine,
    refine_work_size,
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


class _FineWorkspace:
    """Preallocated buffers of the reports of one grid, on the fine grid
    of n = ``size``.

    ``fine`` is the refined stack, sized for modulated_energy's rho, m, q,
    u and phi; the energy reports fill at most d + 2 slots, and the
    pointwise viscous path takes the last one.  ``pool`` is one complex
    buffer: refine carves it first for its padded and column spectra, then
    the reports reuse it as ``spec``, d + 3 fine half-spectrum slots (the
    spectra of phi and u, a working spectrum and a transform scratch), and
    ``sq_work``, the real scratch pair of hermitian_sq.  ``real`` holds two
    fine-grid scratch arrays for the pointwise integrands.  Pages a report
    never touches cost no memory.
    """

    def __init__(self, g: TorusGrid, size: int):
        d = g.dim
        gf = TorusGrid(d, size)
        self.fine_grid = gf
        self.fine = np.empty((3 + 2 * d, *gf.shape))
        slot = math.prod(gf.rshape)
        nspec = d + 3
        self.pool = np.empty(
            max(refine_work_size(g, len(self.fine), size=size), (nspec + 1) * slot),
            dtype=complex,
        )
        self.spec = self.pool[: nspec * slot].reshape(nspec, *gf.rshape)
        sq = self.pool[nspec * slot : (nspec + 1) * slot]
        self.sq_work = sq.view(float).reshape(2, *gf.rshape)
        self.real = np.empty((2, *gf.shape))


def _workspace(g: TorusGrid) -> _FineWorkspace:
    """The energy reports' workspace, on the 2x grid."""
    return _one_slot("diagnostics.workspace", g, lambda: _FineWorkspace(g, 2 * g.n))


def _modulated_size(n: int) -> int:
    """The 3/2 grid, N = 2 ceil(3n/4), the smallest even N >= 3n/2.  It is
    exact for products of four fields of the 2/3 band, since
    N > 4 floor(n/3), and keeps the transform lengths smooth (96 at
    n = 64)."""
    return 2 * -(-3 * n // 4)


def _modulated_workspace(g: TorusGrid) -> _FineWorkspace:
    """modulated_energy's workspace, on the 3/2 grid."""
    return _one_slot(
        "diagnostics.modulated", g, lambda: _FineWorkspace(g, _modulated_size(g.n))
    )


def _fine_terms(w: _FineWorkspace, rho, phi, hats, c: Constitutive, model: ModelKind):
    """Gradient and potential energies and the dissipation rate of the energy
    law on the fine grid.  ``hats`` stacks the half spectra of (phi, u_1, ..)
    in the workspace's first slots; ``rho`` is 1.0 for incompressible
    states.  Every integrand is formed in the workspace.  The transforms are
    this module's batch calls, not the grid's rfft/irfft (the same calls):
    ``torusflow run`` reports on a worker thread, and the benchmark's tracer
    counts the grid methods and the stepper's transforms without a lock."""
    gf = w.fine_grid
    d = gf.dim
    ph, uh = hats[0], hats[1:]
    a, b = w.real
    spec, tmp = w.spec[d + 1], w.spec[d + 2 :]
    gradient = 0.5 * hermitian_sq(gf, ph, gf._rik2, w.sq_work)
    # 1/4 rho (phi^2 - 1)^2
    np.multiply(phi, phi, out=b)
    b -= 1.0
    np.square(b, out=b)
    np.multiply(0.25, rho, out=a)
    a *= b
    potential = _fine_mean(gf, a)

    if c.constant_viscosity:
        _div_hat(gf._rik, uh, spec, tmp[0])
        dissipation = c.nu0 * sum(hermitian_sq(gf, h, gf._rik2, w.sq_work) for h in uh)
        dissipation += c.eta0 * hermitian_sq(gf, spec, 1.0, w.sq_work)
    else:
        # nu(rho, phi) and eta(rho, phi) weight the integrand point by point;
        # each d_j u_i comes back to the 2x grid in turn, into the stack's
        # last slot, which no energy report fills
        grad_sq, div_u, comp = a, b, w.fine[-1]
        grad_sq.fill(0.0)
        div_u.fill(0.0)
        for i in range(d):
            for j in range(d):
                np.multiply(uh[i], gf._rik_stack[j], out=spec)
                batch_irfft(gf, spec[None], out=comp[None], work=tmp)
                if i == j:
                    div_u += comp
                comp *= comp
                grad_sq += comp
        nu = c.viscosity_nu(rho, phi)
        eta = c.viscosity_eta(rho, phi)
        nu *= grad_sq
        eta *= div_u
        eta *= div_u
        nu += eta
        dissipation = _fine_mean(gf, nu)

    # mu = -Lap phi / rho + phi^3 - phi
    np.multiply(gf.rk_squared, ph, out=spec)
    mu = batch_irfft(gf, spec[None], out=a[None], work=tmp)[0]
    mu /= rho
    np.multiply(phi, phi, out=b)
    b *= phi
    mu += b
    mu -= phi
    if model is ModelKind.CH:
        mu_hat = batch_rfft(gf, mu[None], out=spec[None], work=tmp)[0]
        dissipation += hermitian_sq(gf, mu_hat, gf._rik2, w.sq_work)
    else:
        # rho Dphi/Dt = -mu, so the relaxational law dissipates int mu^2
        np.multiply(mu, mu, out=b)
        dissipation += _fine_mean(gf, b)
    return gradient, potential, dissipation


def energy_compressible(
    s: CompressibleState, c: Constitutive, time: float = 0.0
) -> EnergyReport:
    """Energy components int 1/2 rho|u|^2 + eps^-2 omega(rho) + 1/2|grad phi|^2
    + 1/4 rho(phi^2-1)^2 and the dissipation rate of the energy law."""
    w = _workspace(s.grid)
    gf = w.fine_grid
    d = gf.dim
    fine = refine([s.rho, s.q, *s.mom], size=gf.n, out=w.fine[: d + 2], work=w.pool)
    rho = fine[0]
    _require_positive(rho, "energy_compressible (2x grid)")
    a, b = w.real
    # 1/2 sum_i m_i (m_i / rho)
    a.fill(0.0)
    for mi in fine[2:]:
        np.divide(mi, rho, out=b)
        np.multiply(mi, b, out=b)
        a += b
    a *= 0.5
    kinetic = _fine_mean(gf, a)
    internal = _fine_mean(gf, c.omega(rho, out=a)) / s.eps**2
    # (q, m_1, ..) -> (phi, u_1, ..) in place, transformed as one stack
    prim = fine[1:]
    prim /= rho
    hats = batch_rfft(gf, prim, out=w.spec[: d + 1], work=w.spec[d + 1 : d + 2])
    gradient, potential, dissipation = _fine_terms(w, rho, prim[0], hats, c, s.model)
    total = kinetic + internal + gradient + potential
    return EnergyReport(kinetic, internal, gradient, potential, total, dissipation, time)


def energy_incompressible(
    s: IncompressibleState, c: Constitutive, time: float = 0.0
) -> EnergyReport:
    w = _workspace(s.grid)
    gf = w.fine_grid
    d = gf.dim
    fine = refine([s.phi, *s.u], size=gf.n, out=w.fine[: d + 1], work=w.pool)
    a, b = w.real
    # 1/2 sum_i u_i u_i
    a.fill(0.0)
    for ua in fine[1:]:
        np.multiply(ua, ua, out=b)
        a += b
    a *= 0.5
    kinetic = _fine_mean(gf, a)
    hats = batch_rfft(gf, fine, out=w.spec[: d + 1], work=w.spec[d + 1 : d + 2])
    gradient, potential, dissipation = _fine_terms(w, 1.0, fine[0], hats, c, s.model)
    total = kinetic + gradient + potential
    return EnergyReport(kinetic, 0.0, gradient, potential, total, dissipation, time)


def modulated_energy(
    cs: CompressibleState, is_: IncompressibleState, c: Constitutive
):
    """Modulated-energy pair (full, distance).

    distance = int 1/2 |sqrt(rho_e) u_e - u|^2 + Pi_e + 1/2 |grad(phi_e - phi)|^2
    with Pi_e = eps^-2 (omega(rho_e) - P(1)(rho_e - 1)); full adds the two
    double-well bulk terms.  Evaluated on the 3/2 grid, from the carried
    band stacks when both states have one (see the module docstring).
    """
    if cs.grid != is_.grid:
        raise ValueError("modulated_energy requires states on the same grid")
    w = _modulated_workspace(cs.grid)
    gf = w.fine_grid
    d = gf.dim
    if cs.stack is not None and is_.stack is not None:
        # stepped states: the rows of their carried band stacks
        src = [*cs.stack, *is_.stack]
    else:
        src = [cs.rho, *cs.mom, cs.q, *is_.u, is_.phi]
    fine = refine(src, size=gf.n, out=w.fine, work=w.pool)
    rho, u, phi = fine[0], fine[2 + d : 2 + 2 * d], fine[2 + 2 * d]
    _require_positive(rho, "modulated_energy (3/2 grid)")
    # (m_1, .., q) -> (u_e1, .., phi_e) in place
    fine[1 : 2 + d] /= rho
    ue, phie = fine[1 : 1 + d], fine[1 + d]
    a, b = w.real

    # 1/2 sum_i (sqrt(rho) u_ei - u_i)^2 + Pi_e, summed in the u_e slots
    np.sqrt(rho, out=a)
    for x, y in zip(ue, u):
        np.multiply(a, x, out=x)
        x -= y
        np.square(x, out=x)
    kin = ue[0]
    for x in ue[1:]:
        kin += x
    kin *= 0.5
    p1 = float(c.pressure(np.ones(())))
    pi_e = c.omega(rho, out=b)
    np.subtract(rho, 1.0, out=a)
    np.multiply(p1, a, out=a)
    pi_e -= a
    pi_e /= cs.eps**2
    kin += pi_e

    np.subtract(phie, phi, out=a)
    dh = gf.rfft(a, out=w.spec[0], work=w.spec[1:2])
    grad_d = 0.5 * hermitian_sq(gf, dh, gf._rik2, w.sq_work)
    distance = _fine_mean(gf, kin) + grad_d
    # 1/4 rho (phi_e^2 - 1)^2 + 1/4 (phi^2 - 1)^2
    np.multiply(0.25, rho, out=a)
    np.multiply(phie, phie, out=b)
    b -= 1.0
    np.square(b, out=b)
    a *= b
    np.multiply(phi, phi, out=b)
    b -= 1.0
    np.square(b, out=b)
    np.multiply(0.25, b, out=b)
    a += b
    bulk = _fine_mean(gf, a)
    return distance + bulk, distance
