"""Right-hand sides of the two-phase systems.

Compressible runs evolve the conservative variables (rho, m, q) =
(density, momentum, phase density); incompressible runs evolve (u, phi)
with a Leray projection.  The phase dynamics is either conserved
(Cahn-Hilliard, A mu = Lap mu) or relaxational (Allen-Cahn, A mu = -mu).

All nonlinear products are collocated in physical space and truncated by
the 2/3 rule; divergences are evaluated spectrally, which makes the means
of drho and (CH) dq vanish identically.

The half-spectrum kernels rhs_compressible_hat / rhs_incompressible_hat
take and return one stacked complex array in the band layout (nvar,
*bshape) of ``spectral``: the half spectrum cut to the columns the 2/3
rule keeps.  Their physical fields, products and product spectra live in
a per-grid workspace that holds preallocated buffers only (a slot of
``spectral._one_slot``; the symbols are the grid's band tables, and ik.v
is ``spectral._div_hat``), transformed through batch_rfft / batch_irfft on
band-layout stacks with ``out=`` and one shared work buffer; per call they
allocate only the returned tendency.  The state stack they take is
dealiased, its rows |k| > floor(n/3) zero, and so is the tendency they
return, since every product spectrum comes out of the band transform.
Products that enter the tendency only through the same operator are
summed before their transform: (P(rho) - P(1))/eps^2 rides on the diagonal
momentum flux, phi^3 on the curvature term of mu and (incompressible) the
capillary force on the advection, so a 2-d compressible call transforms
21 arrays and an incompressible one 14.

Each state class owns its array layout: ``as_arrays`` and ``from_arrays``
run in the order of ``field_names``, which also names a snapshot's fields,
and ``STATES`` maps each regime name to its class.  A state a step returns
carries its band stack, which the next step starts from, and forms its
physical Fields from it only when they are first read (see ``_Carried``).
"""

from __future__ import annotations

import copy
import math
import sys
import threading
from typing import ClassVar

import numpy as np

from .constitutive import Constitutive, ModelKind
from .errors import NumericsError, VacuumError
from .spectral import (
    Field,
    TorusGrid,
    VectorField,
    _div_hat,
    _one_slot,
    batch_irfft,
    batch_rfft,
    divergence,
    hs_norm,
    random_band_limited,
)


# the Mach parameter's range: eps**2 a normal float, so 1/eps**2 is finite
_EPS_RANGE = (math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max))


def _check_eps(eps: float) -> None:
    """The rule of every Mach parameter: eps in _EPS_RANGE, about
    [1.5e-154, 1.3e154] (NaN fails the comparison)."""
    lo, hi = _EPS_RANGE
    if not lo <= eps <= hi:
        raise ValueError(f"eps must lie in [{lo:.4g}, {hi:.4g}] (eps**2 normal), got {eps}")


class _Carried:
    """What the two state classes share: the grid, the dealiased band stack
    (nvar, *grid.bshape) that a step leaves, and the Fields.

    A state built from Fields carries no stack; a step transforms its fields
    on entry.  A state a step returns carries the new stack and forms its
    Fields from it on first read, under a lock, into buffers of its own (no
    workspace), so any thread may read them while another one steps on.
    The state owns its stack, and nothing writes to it.
    """

    def _carry(self, grid: TorusGrid, fields, zh) -> None:
        self._grid, self._fields, self._zh = grid, fields, zh
        self._lock = threading.Lock()

    @property
    def grid(self) -> TorusGrid:
        return self._grid

    @property
    def stack(self):
        """The band stack a step left, or None for a state built from Fields."""
        return self._zh

    def with_stack(self, zh: np.ndarray):
        """The state of this kind, model and eps whose dealiased band stack is zh."""
        new = copy.copy(self)
        new._carry(self._grid, None, zh)
        return new

    def _values(self) -> tuple:
        if self._fields is None:
            with self._lock:
                if self._fields is None:
                    arrays = batch_irfft(self._grid, self._zh)
                    self._fields = self._pack(self._grid, arrays)
        return self._fields

    # a lock does not pickle (sweep legs come back from worker processes)
    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_lock"}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()


class CompressibleState(_Carried):
    """Conservative state (rho, m = rho*u, q = rho*phi) at Mach parameter eps."""

    REGIME: ClassVar[str] = "compressible"

    def __init__(self, eps: float, rho: Field, mom: VectorField, q: Field, model: ModelKind):
        _check_eps(eps)
        g = rho.grid
        if mom.grid != g or q.grid != g:
            raise ValueError("state fields must share one grid")
        self.eps, self.model = eps, model
        self._carry(g, (rho, mom, q), None)

    @staticmethod
    def _pack(g: TorusGrid, arrays) -> tuple:
        mom = VectorField(tuple(Field(g, a) for a in arrays[1:-1]))
        return Field(g, arrays[0]), mom, Field(g, arrays[-1])

    @property
    def rho(self) -> Field:
        return self._values()[0]

    @property
    def mom(self) -> VectorField:
        return self._values()[1]

    @property
    def q(self) -> Field:
        return self._values()[2]

    @staticmethod
    def field_names(dim: int) -> list:
        """Names of the as_arrays slots on a dim-d grid."""
        return ["rho", *(f"mom_{ax}" for ax in "xy"[:dim]), "q"]

    def as_arrays(self) -> list:
        rho, mom, q = self._values()
        return [rho.values, *[m.values for m in mom], q.values]

    @classmethod
    def from_arrays(cls, g: TorusGrid, arrays: list, model: ModelKind, eps):
        """The state whose as_arrays are ``arrays``, at Mach parameter
        float(eps)."""
        return cls(float(eps), *cls._pack(g, arrays), model)


class IncompressibleState(_Carried):
    """Divergence-free velocity plus order parameter."""

    REGIME: ClassVar[str] = "incompressible"

    def __init__(self, u: VectorField, phi: Field, model: ModelKind):
        if u.grid != phi.grid:
            raise ValueError("state fields must share one grid")
        self.model = model
        self._carry(u.grid, (u, phi), None)

    @staticmethod
    def _pack(g: TorusGrid, arrays) -> tuple:
        return VectorField(tuple(Field(g, a) for a in arrays[:-1])), Field(g, arrays[-1])

    @property
    def u(self) -> VectorField:
        return self._values()[0]

    @property
    def phi(self) -> Field:
        return self._values()[1]

    @staticmethod
    def field_names(dim: int) -> list:
        """Names of the as_arrays slots on a dim-d grid."""
        return [*(f"u_{ax}" for ax in "xy"[:dim]), "phi"]

    def as_arrays(self) -> list:
        u, phi = self._values()
        return [*[c.values for c in u], phi.values]

    @classmethod
    def from_arrays(cls, g: TorusGrid, arrays: list, model: ModelKind, eps=None):
        """The state whose as_arrays are ``arrays``; there is no Mach
        parameter, so ``eps`` is ignored."""
        return cls(*cls._pack(g, arrays), model)


# the state class of each regime, by its name in configs and snapshots
STATES = {cls.REGIME: cls for cls in (CompressibleState, IncompressibleState)}


# ---------------------------------------------------------------------------
# assembly helpers on raw arrays


def _require_positive(rho: np.ndarray, where: str):
    rmin = float(np.min(rho))
    if rmin <= 0.0:
        idx = tuple(int(i) for i in np.unravel_index(int(np.argmin(rho)), rho.shape))
        raise VacuumError(f"{where}: density reached {rmin:.6e} at grid index {idx}")


def primitives(s: CompressibleState):
    """Recover (u, phi) = (m/rho, q/rho); rejects vacuum."""
    rho = s.rho.values
    _require_positive(rho, "primitives")
    g = s.grid
    u = VectorField(tuple(Field(g, m.values / rho) for m in s.mom))
    phi = Field(g, s.q.values / rho)
    return u, phi


# ---------------------------------------------------------------------------
# the half-spectrum kernels and their workspace


class _Workspace:
    """Preallocated buffers of the half-spectrum kernels on one grid.

    ``phys`` holds real collocation stacks, ``spec`` band-layout stacks and
    ``work`` the half-layout scratch of the two-pass batch transforms; each
    kernel carves its stacks out of them, sized for the larger of the two
    kernels (pages a kernel never touches cost no memory).  It holds
    buffers only: the kernels read the symbols from the grid's band tables.
    """

    def __init__(self, g: TorusGrid):
        d = g.dim
        nprod_c = d * (d + 1) // 2 + 2 * d + 1
        # incompressible spectral stack: u, grad u, phi, lap phi, grad phi
        ndown_i = d + d * d + 2 + d
        nphys = max(d + 2 + 2 * d + 2 + nprod_c, ndown_i + d + 2)
        nspec = max(2 * d + 2 + nprod_c, ndown_i + d + 2)
        self.phys = np.empty((nphys, *g.shape))
        self.spec = np.empty((nspec, *g.bshape), dtype=complex)
        # the batch transforms take longer stacks in chunks of this length
        self.work = np.empty((d + 2, *g.rshape), dtype=complex)


def _workspace(g: TorusGrid) -> _Workspace:
    return _one_slot("dynamics.workspace", g, lambda: _Workspace(g))


def _carve(pool: np.ndarray, *counts: int) -> list:
    """Consecutive sub-stacks of pool with the given slot counts."""
    out, start = [], 0
    for n in counts:
        out.append(pool[start : start + n])
        start += n
    return out


def _rowwise(op, x: np.ndarray, y: np.ndarray, out: np.ndarray):
    """out[r] = op(x[r], y[r]) row by row, where a single array stands for
    every row: numpy allocates a stack-sized temporary when one operand
    broadcasts over a stack."""
    for r in range(len(out)):
        op(x[r] if x.ndim == out.ndim else x, y[r] if y.ndim == out.ndim else y, out=out[r])


def _leray_hat(g: TorusGrid, v: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Leray projection of the band stack v in place:
    v += ik (ik . v) / |k|^2, which is v - k (k . v) / |k|^2, the k = 0
    mode (mean flow) kept.  tmp holds d + 1 band slots of scratch."""
    d = len(v)
    ik = g._bik_stack
    div, irr = tmp[d], tmp[:d]
    _div_hat(ik, v, div, tmp[0])
    _rowwise(np.multiply, ik, div, irr)
    _rowwise(np.divide, irr, g._bk2safe, irr)
    irr[(slice(None),) + (0,) * d] = 0.0
    v += irr
    return v


def rhs_compressible_hat(
    g: TorusGrid,
    eps: float,
    zh: np.ndarray,
    c: Constitutive,
    model: ModelKind,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Half-spectrum core of the conservative compressible tendencies

        drho = -div m
        dm   = -div(m x u) - (1/eps^2) grad P(rho) + nu Lap u + eta grad(div u)
               - Lap(phi) grad(phi)
        dq   = -div(q u) + A mu,   mu = (-Lap phi)/rho + phi^3 - phi.

    Takes the dealiased band-layout state stack (rho, momentum components,
    q) and returns the tendency stack in the same layout, the only array it
    allocates; given ``out`` (not overlapping zh) it writes the tendency
    there and allocates nothing.  All nonlinear terms are formed pointwise
    in physical space in the workspace and 2/3-truncated; linear operators
    act on the spectra directly.  A constant viscosity law (every slope 0,
    Constitutive.constant_viscosity) takes a transform-free spectral path.
    One call transforms d(d+1)/2 + 6d + 6 arrays (21 in 2-d).
    """
    d = g.dim
    w = _workspace(g)
    ik, k2 = g._bik_stack, g._bk2_complex
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    nflux = len(pairs)
    nprod = nflux + 2 * d + 1
    state, down, prods = _carve(w.phys, d + 2, 2 * d + 2, nprod)
    spec, prod_hat = _carve(w.spec, 2 * d + 2, nprod)

    batch_irfft(g, zh, out=state, work=w.work)
    rho, m, q = state[0], state[1 : 1 + d], state[1 + d]
    if not np.all(np.isfinite(rho)):
        raise NumericsError("non-finite density in rhs_compressible_hat")
    _require_positive(rho, "rhs_compressible_hat")

    # primitive fields, carved out of the product stack; the divisions
    # reintroduce out-of-band tails, which the band transform truncates
    prim = prods[: d + 1]
    _rowwise(np.divide, m, rho, prim[:d])
    np.divide(q, rho, out=prim[d])
    batch_rfft(g, prim, out=spec[: d + 1], work=w.work)
    uh, phih = spec[:d], spec[d]
    _rowwise(np.multiply, ik, phih, spec[d + 1 : 2 * d + 1])
    np.multiply(k2, phih, out=spec[-1])
    np.negative(spec[-1], out=spec[-1])
    batch_irfft(g, spec, out=down, work=w.work)
    u, phi, grad_phi, lap_phi = down[:d], down[d], down[d + 1 : 2 * d + 1], down[-1]
    # the derivative slots are free from here on
    divu_hat, tmp = spec[d + 1], spec[d + 2]

    # one batched transform for every pointwise product: the symmetric
    # momentum flux m_i u_j (i <= j) with the pressure (P(rho) - P(1))/eps^2
    # on its diagonal, the capillary force, the phase transport and the
    # chemistry phi^3 - Lap(phi)/rho of mu.  The constant P(1)/eps^2 exerts
    # no force; left in, it would drown the O(1) pressure fluctuation in the
    # flux's transform at stiff eps
    flux, cap, qu, chem = _carve(prods, nflux, d, d, 1)
    pres = chem[0]  # until the chemistry goes in
    np.subtract(c.pressure(rho), float(c.pressure(1.0)), out=pres)
    pres /= eps**2
    for idx, (i, j) in enumerate(pairs):
        np.multiply(m[i], u[j], out=flux[idx])
        if i == j:
            flux[idx] += pres
    _rowwise(np.multiply, lap_phi, grad_phi, cap)
    _rowwise(np.multiply, q, u, qu)
    # phi*phi*phi: within an ulp of phi**3, whose pow() costs 40x more
    np.multiply(phi, phi, out=chem[0])
    chem[0] *= phi
    chem[0] -= lap_phi / rho
    batch_rfft(g, prods, out=prod_hat, work=w.work)
    flux_hat, cap_hat, qu_hat, chem_hat = _carve(prod_hat, nflux, d, d, 1)

    if out is None:
        out = np.empty((d + 2, *g.bshape), dtype=complex)
    drh, dmh, dqh = out[0], out[1 : 1 + d], out[-1]
    _div_hat(ik, zh[1 : 1 + d], drh, tmp)
    np.negative(drh, out=drh)

    # dq = -div(q u) + A mu with mu_hat = chem_hat - phi_hat
    mu_hat = chem_hat[0]
    mu_hat -= phih
    _div_hat(ik, qu_hat, dqh, tmp)
    if model is ModelKind.CH:
        np.multiply(k2, mu_hat, out=tmp)
        dqh += tmp
    else:
        dqh += mu_hat
    np.negative(dqh, out=dqh)

    for i in range(d):
        row = [flux_hat[pairs.index((min(i, j), max(i, j)))] for j in range(d)]
        _div_hat(ik, row, dmh[i], tmp)
    dmh += cap_hat
    np.negative(dmh, out=dmh)

    _div_hat(ik, uh, divu_hat, tmp)
    if c.constant_viscosity:
        # (nu0 (-k^2)) u_i + (eta0 ik_i) div u, in the product slots, which
        # are free once the tendency holds their terms
        nu_k2, eta_ik, visc, grad_div = prod_hat[:4]
        np.multiply(k2, -c.nu0, out=nu_k2)
        for i in range(d):
            np.multiply(ik[i], c.eta0, out=eta_ik)
            np.multiply(nu_k2, uh[i], out=visc)
            np.multiply(eta_ik, divu_hat, out=grad_div)
            visc += grad_div
            dmh[i] += visc
    else:
        # nu Lap u + eta grad div u, summed pointwise before one transform;
        # the product stacks are free once the tendency holds their terms
        vis_hat, vis = prod_hat[: 2 * d], prods[: 2 * d]
        _rowwise(np.multiply, k2, uh, vis_hat[:d])
        np.negative(vis_hat[:d], out=vis_hat[:d])
        _rowwise(np.multiply, ik, divu_hat, vis_hat[d:])
        batch_irfft(g, vis_hat, out=vis, work=w.work)
        vis[:d] *= c.viscosity_nu(rho, phi)
        vis[d:] *= c.viscosity_eta(rho, phi)
        vis[:d] += vis[d:]
        batch_rfft(g, vis[:d], out=vis_hat[:d], work=w.work)
        dmh += vis_hat[:d]
    return out


def rhs_incompressible_hat(
    g: TorusGrid,
    zh: np.ndarray,
    c: Constitutive,
    model: ModelKind,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Half-spectrum core of the incompressible tendencies (rho = 1).

    Takes the dealiased band-layout stack (velocity components, phi) and
    returns the tendency stack, the only array it allocates (none with ``out``, as in
    rhs_compressible_hat); the velocity tendency is Leray-projected.  One
    call transforms d^2 + 3d + 4 arrays (14 in 2-d).
    """
    d = g.dim
    w = _workspace(g)
    ik, k2 = g._bik_stack, g._bk2_complex
    ndown = d + d * d + 2 + d
    down_hat, prod_hat = _carve(w.spec, ndown, d + 2)
    down, prods = _carve(w.phys, ndown, d + 2)
    uh = zh[:d]

    # spectral stack: u, grad u (row d*i + j holds d_j u_i), phi, lap phi,
    # grad phi
    u_s, gu_s, phih, lap_s, gp_s = _carve(down_hat, d, d * d, 1, 1, d)
    np.copyto(u_s, uh)
    for i in range(d):
        _rowwise(np.multiply, ik, uh[i], gu_s[d * i : d * (i + 1)])
    np.copyto(phih, zh[-1:])
    phih = phih[0]
    np.multiply(k2, phih, out=lap_s[0])
    np.negative(lap_s, out=lap_s)
    _rowwise(np.multiply, ik, phih, gp_s)
    batch_irfft(g, down_hat, out=down, work=w.work)
    u, grad_u, phi, lap_phi, grad_phi = _carve(down, d, d * d, 1, 1, d)
    phi, lap_phi = phi[0], lap_phi[0]
    # the velocity-gradient slots are free from here on
    tmp = gu_s

    # advection plus capillary force u.grad u_i + Lap(phi) d_i phi, the
    # phase transport u.grad phi and the cube phi^3, in one transform
    adv, transport, cube = _carve(prods, d, 1, 1)
    scratch = cube[0]  # until the cube goes in
    _rowwise(np.multiply, lap_phi, grad_phi, adv)
    for i in range(d):
        for j in range(d):
            np.multiply(u[j], grad_u[d * i + j], out=scratch)
            adv[i] += scratch
    np.multiply(u[0], grad_phi[0], out=transport[0])
    for j in range(1, d):
        np.multiply(u[j], grad_phi[j], out=scratch)
        transport[0] += scratch
    np.multiply(phi, phi, out=cube[0])
    cube[0] *= phi
    constant_nu = c.constant_viscosity
    if not constant_nu:
        # subtract nu Lap u before the transform; grad u is spent
        lap_u = grad_u[:d]
        _rowwise(np.multiply, k2, uh, tmp[:d])
        np.negative(tmp[:d], out=tmp[:d])
        batch_irfft(g, tmp[:d], out=lap_u, work=w.work)
        lap_u *= c.viscosity_nu(np.ones(g.shape), phi)
        adv -= lap_u
    batch_rfft(g, prods, out=prod_hat, work=w.work)
    adv_hat, transport_hat, cube_hat = _carve(prod_hat, d, 1, 1)

    if out is None:
        out = np.empty((d + 1, *g.bshape), dtype=complex)
    du_hat, dphi_hat = out[:d], out[-1]
    np.negative(adv_hat, out=du_hat)
    if constant_nu:
        nu_k2, visc = tmp[0], tmp[1 : 1 + d]
        np.multiply(k2, -c.nu0, out=nu_k2)
        _rowwise(np.multiply, nu_k2, uh, visc)
        du_hat += visc
    _leray_hat(g, du_hat, tmp)

    # dphi = -u.grad phi + A mu with mu_hat = k^2 phi_hat + cube_hat - phi_hat
    mu_hat = cube_hat[0]
    np.multiply(k2, phih, out=tmp[0])
    mu_hat += tmp[0]
    mu_hat -= phih
    if model is ModelKind.CH:
        np.multiply(k2, mu_hat, out=dphi_hat)
        dphi_hat += transport_hat[0]
    else:
        np.add(transport_hat[0], mu_hat, out=dphi_hat)
    np.negative(dphi_hat, out=dphi_hat)
    return out


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
# cutoff - _PERT_KMAX, so rho*u and rho*phi are band-exact while rho - 1
# holds the perturbation alone.  The pressure-balanced offset
# eps^2 pi0/P'(1) fills the band, so the prepared m_x and q carry a small
# part outside it (at n = 64 and kappa0 0.1, 3.7e-6 and 3.1e-6 of their L2
# norm at eps 0.4, 5.7e-8 and 4.9e-8 at eps 0.05), which the first step's
# band cut drops
_PERT_KMAX = 4

# the low-Mach range of the prepared data: 1 + eps^2 pi0/P'(1) >= _RHO0_FLOOR
# everywhere.  Runs of taylor_green_bubble in the conserved model reach
# vacuum in their first steps once min rho0 falls to about 0.70 and reach
# T = 1 from about 0.75 up (n = 32, the constant and an affine law)
_RHO0_FLOOR = 0.75


def _incompressible_pressure(u: VectorField, phi: Field, c: Constitutive) -> np.ndarray:
    """The incompressible pressure pi of a divergence-free (u, phi): the
    mean-zero potential, cut to the 2/3 band, of the irrotational part of
    the momentum tendency at rho = 1, where the kernel's pressure term is 0
    and eta grad div u drops out, so

        Lap pi = div(-div(u x u) - Lap(phi) grad(phi) + nu(1, phi) Lap u).

    It does not depend on eps.  The viscous term is solenoidal for the
    constant law; an affine one gives it a gradient part."""
    g = u.grid
    d = g.dim
    zh = batch_rfft(
        g,
        [np.ones(g.shape), *(a.values for a in u), phi.values],
        out=np.empty((d + 2, *g.bshape), dtype=complex),
    )
    # the momentum tendency does not depend on the phase model
    dzh = rhs_compressible_hat(g, 1.0, zh, c, ModelKind.AC)
    # Lap pi = div dm: pi_hat = -(ik . dm_hat) / |k|^2, mean zero; ik . dm_hat
    # goes in the free density row, with the phase row as scratch
    pih = -_div_hat(g._bik_stack, dzh[1 : 1 + d], dzh[0], dzh[-1]) / g._bk2safe
    pih[(0,) * d] = 0.0
    return batch_irfft(g, pih[None])[0]


def _check_balanced(offset: np.ndarray, eps: float) -> None:
    """A ValueError when eps puts the pressure-balanced density
    1 + eps^2 offset below _RHO0_FLOOR somewhere, outside the low-Mach
    range; it names the largest eps these data admit."""
    balanced_min = 1.0 + eps**2 * float(np.min(offset))
    if not balanced_min >= _RHO0_FLOOR:
        limit = math.sqrt((1.0 - _RHO0_FLOOR) / -float(np.min(offset)))
        raise ValueError(
            f"eps = {eps:g} puts the pressure-balanced density at {balanced_min:.4g} < "
            f"{_RHO0_FLOOR} somewhere, outside the low-Mach range; these data admit "
            f"eps <= {limit:.4g}"
        )


def _balanced_offset(u: VectorField, phi: Field, c: Constitutive) -> np.ndarray:
    """The offset pi/P'(1) of the pressure-balanced density
    1 + eps^2 pi/P'(1), with pi the incompressible pressure of (u, phi)."""
    return _incompressible_pressure(u, phi, c) / float(c.pressure_prime(1.0))


def _prepared_parts(u0: VectorField, phi0: Field, seed: int, c: Constitutive) -> tuple:
    """The eps-free part of well_prepared_initial's data, (u0, phi0,
    pi0/P'(1), r1, r2, r3): a sweep builds it once and scales it for each
    leg with _prepared_state.  Requires div u0 = 0."""
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
    return u0, phi0, _balanced_offset(u0, phi0, c), r1, r2, r3


def _prepared_state(parts: tuple, eps: float, kappa0: float, model: ModelKind):
    """well_prepared_initial's state at eps from its _prepared_parts."""
    u0, phi0, offset, r1, r2, r3 = parts
    g = u0.grid
    _check_balanced(offset, eps)
    rho = Field(g, 1.0 + eps**2 * (offset + kappa0 * r1.values))
    u = VectorField(
        tuple(Field(g, a.values + eps * kappa0 * b.values) for a, b in zip(u0, r2))
    )
    phi = Field(g, phi0.values + eps * kappa0 * r3.values)
    return make_compressible(eps, rho, u, phi, model)


def well_prepared_initial(
    u0: VectorField,
    phi0: Field,
    eps: float,
    kappa0: float,
    seed: int,
    model: ModelKind = ModelKind.CH,
    c: Constitutive = Constitutive(),
) -> CompressibleState:
    """Compressible data an O(eps^2, eps, eps) perturbation off the
    pressure-balanced state (1 + eps^2 pi0/P'(1), u0, phi0).

    rho0 = 1 + eps^2 (pi0/P'(1) + kappa0*r1), u0e = u0 + eps*kappa0*r2,
    phi0e = phi0 + eps*kappa0*r3 with fixed-seed band-limited fields r_i of
    unit H^3 norm, and pi0 the incompressible pressure of (u0, phi0) under
    the law c, see _incompressible_pressure.  Then
    P(rho0) - P(1) = eps^2 pi0 + O(eps^4) balances the irrotational part of
    the momentum tendency, and a run starts without an acoustic layer (the
    well-prepared data of Klainerman & Majda, CPAM 34 (1981)).  Requires
    div u0 = 0, and 1 + eps^2 pi0/P'(1) >= _RHO0_FLOOR = 0.75 everywhere,
    the low-Mach range: a larger eps raises a ValueError that names the
    largest eps these data admit.  The kappa0 perturbation is left to
    make_compressible's vacuum check.

    c defaults to the constant law; a caller that runs another law must
    pass it, or pi0 misses the gradient part of that law's viscous force
    and the data are not pressure-balanced.
    """
    _check_eps(eps)
    return _prepared_state(_prepared_parts(u0, phi0, seed, c), eps, kappa0, model)


# ---------------------------------------------------------------------------
# named presets


def _band_limit(g: TorusGrid, arr: np.ndarray, kmax: int) -> np.ndarray:
    return g.irfft(np.where(g.rband_mask(kmax), g.rfft(arr), 0.0))


def taylor_green_bubble(grid: TorusGrid):
    """Taylor-Green vortex plus a smooth circular bubble in phi."""
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
    x, y = grid.coords()
    u0 = VectorField((Field(grid, 0.5 * np.sin(y)), Field(grid, np.zeros(grid.shape))))
    return u0, Field(grid, 0.3 * np.cos(x))


PRESETS = {
    "taylor_green_bubble": taylor_green_bubble,
    "single_mode": single_mode,
}


def _preset(name: str):
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return PRESETS[name]


def _check_initial(preset: str, kappa0: float, seed: int) -> None:
    """The rule of the initial data of runs and sweeps: a known preset,
    kappa0 >= 0 (NaN fails the comparison) and a seed that numpy's
    generator takes."""
    _preset(preset)
    if not kappa0 >= 0:
        raise ValueError(f"kappa0 must be nonnegative, got {kappa0}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def initial_from_preset(name: str, grid: TorusGrid):
    return _preset(name)(grid)
