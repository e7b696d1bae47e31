"""Time integration.

StepperConfig.scheme is the one setting that picks how a step is taken:
"rk4" or "picard".  The production "rk4" scheme is ETDRK4 in Krogstie's
tableau ETDRK4-B (Hochbruck & Ostermann, SINUM 43 (2005)).  The stiff
constant-coefficient cores are integrated exactly: the phase operator, the
viscous operator at the law's largest viscosities (_reference_viscosities),
the spectral vanishing viscosity and, in the compressible system, the
linearised acoustics (the 2x2 block coupling density and the gradient part
of the momentum through the sound speed sqrt(P'(1))/eps).  The remainder
goes through the four stages of the tableau.  "picard", for verification
runs of the compressible system, is implicit Euler on the same linear part
and remainder, solved by fixed-point iteration through the resolvent
(I - dt L)^-1, which takes the acoustics exactly (all-speed, as in Degond &
Tang, CiCP 10 (2011)).  Relaxational (nsac) compressible runs therefore
step at a bound that does not depend on eps but on the flow,
cfl sqrt(2) dx/max(|u| + |grad phi|), with the band's Euclidean radius
and the pointwise speed of the explicit advection and capillary coupling,
as incompressible runs do; conserved (nsch) runs keep
the acoustic bound for accuracy, see default_dt, whose default cfl keeps
every band mode of the explicit remainder inside the stability region of
ETDRK4-B.  Both schemes evaluate their tendencies through the half-spectrum
kernels rhs_compressible_hat / rhs_incompressible_hat and carry their
spectral state as one stacked complex array in the band layout
(nvar, *bshape) of ``spectral``, the columns the 2/3 rule keeps.  A step
starts from the stack its state carries (only a state built from fields is
transformed on entry) and returns a state that carries the new stack
(_to_state), with its k_last = 0 column made Hermitian, whose fields are
formed only when read.  The band transform
is the one 2/3 cut: no step applies a mask, as every table, closure and
kernel keeps a stack's rows |k| > floor(n/3) zero.  The stage values of
ETDRK4 and the iterates of Picard sit in cached stacks, and the kernels
write their tendencies into them.  The ops and nonlin closures apply the
tables, complex like the spectra, and form ik.m with ``spectral._div_hat``,
with ``out=`` ufuncs in a few cached scratch spectra, in the order of the
allocating expressions (same bits), so a step allocates little beyond the
new state's stack.  The tables (one set
per regime), the stage stacks and the scratch are slots of
``spectral._one_slot``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .constitutive import Constitutive, ModelKind
from .dynamics import (
    CompressibleState,
    IncompressibleState,
    _check_eps,
    primitives,
    rhs_compressible_hat,
    rhs_incompressible_hat,
)
from .errors import NumericsError
from .spectral import TorusGrid, _div_hat, _one_slot, batch_irfft, batch_rfft, hermitian_sq

# max|grad phi| of the planar equilibrium tanh(x/sqrt(2)) of
# mu = -Lap phi + phi^3 - phi: the capillary speed of a fluid at rest
_CAPILLARY_FLOOR = 1.0 / math.sqrt(2.0)

# the most steps integrate forms over one sampling interval
_MAX_STEPS = 2.0**53

# just under 3 sqrt(2)/(2 pi), the edge of ETDRK4-B's stability on the band
# for the explicit remainder at the eps-free bound cfl sqrt(2) dx/S; see
# default_dt
DEFAULT_CFL = 0.675


@dataclass(frozen=True)
class PicardOptions:
    """Tolerance and iteration cap of the "picard" scheme."""

    tol: float = 1e-10
    max_iter: int = 50

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"picard tol must be positive, got {self.tol}")
        if not (isinstance(self.max_iter, numbers.Integral) and self.max_iter >= 1):
            raise ValueError(f"picard max_iter must be an integer >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class StepperConfig:
    scheme: str = "rk4"
    cfl: float = DEFAULT_CFL
    dt_override: Optional[float] = None
    t_end: float = 1.0
    picard: PicardOptions = field(default_factory=PicardOptions)

    def __post_init__(self):
        if self.scheme not in ("rk4", "picard"):
            raise ValueError(f"scheme must be 'rk4' or 'picard', got {self.scheme!r}")
        if not 0 < self.cfl <= 1:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.dt_override is not None and not self.dt_override > 0:
            raise ValueError(f"dt_override must be positive, got {self.dt_override}")
        if not self.t_end > 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")


@dataclass(frozen=True)
class PicardReport:
    iterations: int
    converged: bool
    ratios: tuple
    final_diff: float


def acoustic_dt(
    eps: float, grid: TorusGrid, c: Constitutive, cfl: float = DEFAULT_CFL, umax: float = 0.0
) -> float:
    """Acoustic CFL step: cfl * dx / (umax + sqrt(P'(1)) / eps)."""
    _check_eps(eps)
    if umax < 0:
        raise ValueError(f"umax must be nonnegative, got {umax}")
    sound = math.sqrt(float(c.pressure_prime(1.0))) / eps
    return cfl * grid.dx / (umax + sound)


# ---------------------------------------------------------------------------
# exponential time differencing RK4

# terms of the phi_3 Taylor series used on |z| < 1; the first dropped term
# is below 1/22! ~ 9e-22, far under rounding
_TAYLOR_TERMS = 19


def _expm1(z: np.ndarray) -> np.ndarray:
    """exp(z) - 1 of a real or complex array, without cancellation near 0."""
    if not np.iscomplexobj(z):
        return np.expm1(z)
    x, y = z.real, z.imag
    return np.expm1(x) * np.cos(y) - 2.0 * np.sin(0.5 * y) ** 2 + 1j * np.exp(x) * np.sin(y)


def _phi123(z: np.ndarray) -> tuple:
    """phi_1, phi_2, phi_3 of a real or complex array z,
    phi_k(z) = sum_j z^j / (j+k)!.

    Closed forms where |z| >= 1.  Below that the closed forms cancel, so
    phi_3 comes from its Taylor series and the others from the recurrence
    phi_k = z phi_{k+1} + 1/k!.
    """
    z = np.asarray(z)
    if not np.iscomplexobj(z):
        z = z.astype(float)
    p1, p2, p3 = np.empty_like(z), np.empty_like(z), np.empty_like(z)
    big = np.abs(z) >= 1.0
    zb = z[big]
    em1 = _expm1(zb)
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


def _phi_block(m: np.ndarray, s2: np.ndarray, det: np.ndarray) -> list:
    """phi_0 = exp, phi_1, phi_2, phi_3 of a field of real 2x2 matrices Z.

    Entry by entry, Z has eigenvalues m +- sqrt(s2) and determinant det
    (= m^2 - s2, passed in a cancellation-free form).  Returns real pairs
    (a_k, b_k) with phi_k(Z) = a_k I + b_k Z.

    Where both eigenvalues lie in the unit disk, the phi_3 Taylor series and
    the recurrence phi_k = Z phi_{k+1} + I/k! run on the pairs themselves
    (Z^2 = tr(Z) Z - det I); this covers k = 0 and eigenvalues coalescing
    near 0.  Elsewhere, with z1 = m - sqrt(s2) the eigenvalue of larger
    modulus (m <= 0 for every damped symbol here) and z2 = det/z1,
    phi_k(Z) = phi_k(z2) I + phi_k[z1, z2] (Z - z2 I).  The divided
    differences come from exp[z1, z2] = exp(z2) phi_1(z1 - z2) and
    phi_k[z1, z2] = (phi_{k-1}[z1, z2] - phi_k(z2)) / z1, which stay
    accurate as z1 and z2 coalesce.
    """
    z1 = m - np.sqrt(s2 + 0j)
    a = [np.empty(m.shape) for _ in range(4)]
    b = [np.empty(m.shape) for _ in range(4)]
    small = np.abs(z1) < 1.0
    tr, dets = 2.0 * m[small], det[small]
    pa, pb = np.zeros(tr.shape), np.zeros(tr.shape)
    for j in range(_TAYLOR_TERMS - 1, -1, -1):
        pa, pb = 1.0 / math.factorial(j + 3) - pb * dets, pa + pb * tr
    a[3][small], b[3][small] = pa, pb
    for k in (2, 1, 0):
        pa, pb = 1.0 / math.factorial(k) - pb * dets, pa + pb * tr
        a[k][small], b[k][small] = pa, pb

    big = ~small
    z1 = z1[big]
    z2 = det[big] / z1
    phi_z2 = (np.exp(z2), *_phi123(z2))
    dd = phi_z2[0] * _phi123(z1 - z2)[0]
    for k in range(4):
        if k:
            dd = (dd - phi_z2[k]) / z1
        a[k][big] = (phi_z2[k] - z2 * dd).real
        b[k][big] = dd.real
    return list(zip(a, b))


def _etd_tables(lam: np.ndarray, dt: float) -> dict:
    """ETDRK4-B coefficients of the scalar symbol lam at step dt.

    E2 = exp(lam dt/2), Q = dt/2 phi_1(lam dt/2), P2h = dt phi_2(lam dt/2),
    P2 = dt phi_2(lam dt) and P3 = dt phi_3(lam dt); see _etdrk4.  R =
    1/(1 - dt lam) is the implicit Euler resolvent of picard_step.
    """
    h1, h2, _ = _phi123(0.5 * dt * lam)
    _, f2, f3 = _phi123(dt * lam)
    return {
        "E2": np.exp(0.5 * dt * lam),
        "Q": 0.5 * dt * h1,
        "P2h": dt * h2,
        "P2": dt * f2,
        "P3": dt * f3,
        "R": 1.0 / (1.0 - dt * lam),
    }


def _block_tables(m: np.ndarray, s2: np.ndarray, det: np.ndarray, dt: float) -> dict:
    """The _etd_tables coefficients of a field of real 2x2 symbols L with
    eigenvalues m +- sqrt(s2) and determinant det, each key a real pair
    (c0, c1) with f(L) = c0 I + c1 L.  R = (I - dt L)^-1 is ((1 - 2 dt m) I
    + dt L) / D, D = det(I - dt L) >= 1 as m <= 0 and det >= 0."""
    h = 0.5 * dt
    half = _phi_block(h * m, h * h * s2, h * h * det)
    full = _phi_block(dt * m, dt * dt * s2, dt * dt * det)
    d = 1.0 - 2.0 * dt * m + dt * dt * det

    def pair(ab, tau, weight):
        # phi(tau L) = a I + b tau L
        return weight * ab[0], weight * tau * ab[1]

    return {
        "E2": pair(half[0], h, 1.0),
        "Q": pair(half[1], h, h),
        "P2h": pair(half[2], h, dt),
        "P2": pair(full[2], dt, dt),
        "P3": pair(full[3], dt, dt),
        "R": ((1.0 - 2.0 * dt * m) / d, dt / d),
    }


def _cached_tables(regime: str, key: tuple, dt: float, build: Callable):
    """build(), kept while (key, dt) repeats: the regime's one table set,
    rebuilt when grid, model, reference viscosities, eps, P'(1) or dt
    change; dt is constant over the equal sampling intervals of integrate."""
    return _one_slot(f"stepper.tables.{regime}", (key, dt), build)


def _cached_stack(name: str, shape: tuple) -> np.ndarray:
    """A complex stack kept while its shape repeats: the stage stacks of
    _etdrk4 and picard_step and the scratch of the ops/nonlin closures; none
    leaves the step."""
    return _one_slot(f"stepper.{name}", shape, lambda: np.empty(shape, dtype=complex))


def _etdrk4(zh, ops, nonlin):
    """One ETDRK4 step of z' = L z + N(z) in Krogstie's tableau ETDRK4-B
    (Hochbruck & Ostermann, SINUM 43 (2005), sec. 5).

    zh is the stacked band-layout state (nvar, *bshape), which the step
    only reads.  Its rows cutoff < |k| are zero, and so are the update's,
    because ops and nonlin map zero rows to zero rows: no mask is applied.
    ops(key, z, out) writes the table key of L at the step h (see
    _etd_tables) applied to z into out; nonlin(z, out) writes
    fft(rhs(z)) - L0*z into out, with L0 the part of L that the tendency
    itself contains.  With N_i the remainder at stage i, the four stages are

        U2 = E2 u + Q N1
        U3 = U2 + P2h (N2 - N1)
        U4 = E2 U2 + Q N1 + P2 (2 N3 - 2 N1)
        u+ = U4 + P2 (2 N2 - N1 - N4) + P3 (4 N1 - 4 N2 - 4 N3 + 4 N4)

    where E2 U2 + Q N1 = exp(hL) u + h phi_1(hL) N1, so five tables serve
    the whole step.  L is integrated exactly: a purely linear system steps
    by exp(hL).  Six cached stacks hold the stages, each reused once its
    value is spent; only u+, the new state's stack, is allocated.
    """
    n1, n2, qn1, u2, u3, n3 = _cached_stack("stages", (6, *zh.shape))
    nonlin(zh, n1)
    ops("Q", n1, qn1)
    ops("E2", zh, u2)
    u2 += qn1
    nonlin(u2, n2)
    # N2 - N1 passes through n3 before N3 takes it
    np.subtract(n2, n1, out=n3)
    ops("P2h", n3, u3)
    u3 += u2
    nonlin(u3, n3)
    # U4 goes to u3; 2 N3 - 2 N1 passes through u2 and its P2 through qn1
    ops("E2", u2, u3)
    u3 += qn1
    np.subtract(n3, n1, out=u2)
    u2 *= 2.0
    ops("P2", u2, qn1)
    u3 += qn1
    # fold N1..N3 into the last two weights' inputs, so N4 can take n1
    a, b = qn1, u2
    np.multiply(n2, 2.0, out=a)
    a -= n1
    np.subtract(n1, n2, out=b)
    b -= n3
    nonlin(u3, n1)
    a -= n1
    b += n1
    b *= 4.0
    out = np.empty_like(zh)
    ops("P2", a, out)
    out += u3
    ops("P3", b, n2)
    out += n2
    return out


def _entry_stack(s) -> np.ndarray:
    """The band stack a step of s starts from: the one s carries, or the
    band transform of its fields for a state built from fields."""
    if s.stack is not None:
        return s.stack
    arrays = s.as_arrays()
    return batch_rfft(s.grid, arrays, out=np.empty((len(arrays), *s.grid.bshape), complex))


def _to_state(s, zh: np.ndarray, scheme: str):
    """The state of s's kind that carries the band stack zh, which it then
    owns; a non-finite value is a NumericsError naming the scheme.

    Column 0 (k_last = 0) of zh is replaced by its Hermitian part
    (c[k] + conj c[-k])/2.  The inverse transform drops the anti-Hermitian
    part, so the kernels never see it, but the tables act on it: left in
    the stack, round-off there grows like dt c|k|/eps per step under the
    explicitly treated -L0 z of the remainder."""
    if not np.isfinite(zh).all():
        raise NumericsError(f"non-finite values in {scheme} update")
    col = zh[..., 0]
    mirror = col[:, -np.arange(col.shape[-1])]
    np.conj(mirror, out=mirror)
    mirror += col
    np.multiply(mirror, 0.5, out=col)
    return s.with_stack(zh)


def _reference_viscosities(c: Constitutive):
    """(nu_bar, eta_bar): the largest values of the clamped viscosity laws at
    rho = 1 over phi^2 in [0, 1], which an affine law takes at a corner.

    The exact linear part carries -nu_bar k^2 and the remainder
    div((nu - nu_bar) grad u), so with nu_bar at the law's maximum the
    remainder's symbol (nu_bar - nu) k^2 lies in [0, nu_bar k^2], bounded by
    the exact part (Douglas & Dupont (1971)); at the minimum it would be
    explicit diffusion, stable only while (nu - nu_bar) k^2 dt is below about
    2.8.  The constant law gives nu0 and eta0 exactly."""
    corners = np.array([0.0, 1.0])
    return float(np.max(c.viscosity_nu(1.0, corners))), float(np.max(c.viscosity_eta(1.0, corners)))


def _phase_symbol(k2: np.ndarray, model: ModelKind) -> np.ndarray:
    """The phase operator's symbol on a layout whose |k|^2 is k2."""
    if model is ModelKind.CH:
        return -(k2**2) + k2
    return -k2 + 1.0


def _acoustic_tables(k2, kk2, svv, nu_bar: float, eta_bar: float, c2: float, dt: float):
    """ETDRK4-B tables of the compressible linear part at step dt, on the
    layout of the symbols k2 = |k|^2, kk2 = |k|^2 without the Nyquist
    components (_bik2) and svv.

    With k from the first-derivative symbols and b = i k.m/|k| the gradient
    part of the momentum, the linearised acoustics with the reference
    viscosities is the real block on (rho, b)

        L = [[-svv, -|k|], [|k| c2, -(nu k^2 + eta |k|^2) - svv]],

    c2 = P'(1)/eps^2; the solenoidal momentum has -nu k^2 - svv.  Its
    eigenvalues are m +- sqrt(s2) with m = -svv - visc/2 and
    s2 = visc^2/4 - c2 |k|^2, visc = nu k^2 + eta |k|^2.  Returns the block
    tables, the solenoidal tables, c2 |k|, 1/|k| (0 at |k| = 0) and L_bb.
    """
    kk = np.sqrt(kk2)
    visc = nu_bar * k2 + eta_bar * kk2
    m = -svv - 0.5 * visc
    s2 = 0.25 * visc**2 - c2 * kk2
    det = svv * (visc + svv) + c2 * kk2
    inv_kk = np.divide(1.0, kk, out=np.zeros_like(kk), where=kk > 0)
    block = _block_tables(m, s2, det, dt)
    sol = _etd_tables(-nu_bar * k2 - svv, dt)
    return block, sol, c2 * kk, inv_kk, -visc - svv


def _complex(tables):
    """tables with every array cast to complex, the spectra's dtype, so
    the closures' products with the spectra run without a cast on every
    call; numpy casts a real operand the same way, so the bits agree."""
    if isinstance(tables, dict):
        return {key: _complex(t) for key, t in tables.items()}
    if isinstance(tables, tuple):
        return tuple(_complex(t) for t in tables)
    return tables.astype(complex)


def _compressible_closures(s: CompressibleState, dt: float, c: Constitutive):
    """The ops and nonlin closures (see _etdrk4) of the conservative
    compressible system at step dt, which ETDRK4 and Picard both use.

    The linear part L is the linearised acoustics with the reference
    viscosities (see _acoustic_tables) on density and the gradient part of
    the momentum, the reference viscosity on the solenoidal momentum and the
    phase symbol on q, each minus svv.  Runs entirely on the band layout,
    with complex tables; ops and nonlin work in four cached scratch spectra.
    """
    g = s.grid
    d = g.dim
    nu_bar, eta_bar = _reference_viscosities(c)
    p1 = float(c.pressure_prime(1.0))
    c2 = p1 / s.eps**2
    ik = g._bik_stack

    def build():
        k2, svv = g.bk_squared, g.bsvv
        ell_q = _phase_symbol(k2, s.model)
        return _complex((
            *_acoustic_tables(k2, g._bik2, svv, nu_bar, eta_bar, c2, dt),
            _etd_tables(ell_q - svv, dt),
            ell_q,
            nu_bar * k2,
            -svv,
        ))

    block, sol_t, c2_kk, inv_kk, l_bb, q_t, ell_q, nu_k2, neg_svv = _cached_tables(
        "compressible", (g, s.model, nu_bar, eta_bar, s.eps, p1), dt, build
    )
    scratch = _cached_stack("scratch", (4, *g.bshape))

    def ops(key: str, z: np.ndarray, out: np.ndarray):
        div, b, b_new, t = scratch
        c0, c1 = block[key]
        rho, mom = z[0], z[1 : 1 + d]
        _div_hat(ik, mom, div, t)  # |k| b
        np.multiply(inv_kk, div, out=b)
        # b_new = c0 b + c1 (c2|k| rho + l_bb b); out[0] is scratch until set
        np.multiply(c0, b, out=b_new)
        np.multiply(c2_kk, rho, out=t)
        np.multiply(l_bb, b, out=out[0])
        t += out[0]
        np.multiply(c1, t, out=t)
        b_new += t
        # out[0] = c0 rho + c1 (-svv rho - |k| b)
        np.multiply(neg_svv, rho, out=t)
        t -= div
        np.multiply(c1, t, out=t)
        np.multiply(c0, rho, out=out[0])
        out[0] += t
        # the gradient part of m is -i k b/|k|: f on the solenoidal part,
        # b_new on the gradient part
        f = sol_t[key]
        np.multiply(f, mom, out=out[1 : 1 + d])
        np.multiply(f, b, out=t)
        t -= b_new
        np.multiply(inv_kk, t, out=t)
        for a in range(d):
            np.multiply(ik[a], t, out=div)
            out[1 + a] += div
        np.multiply(q_t[key], z[-1], out=out[-1])

    # the tables carry the extra -svv damping while the remainder still
    # subtracts the bare linear part, so the integrated system is rhs - svv*z
    def nonlin(z: np.ndarray, out: np.ndarray):
        rhs_compressible_hat(g, s.eps, z, c, s.model, out)
        div, pot, _, t = scratch
        mom = z[1 : 1 + d]
        _div_hat(ik, mom, div, t)
        out[0] += div
        for a in range(d):
            np.multiply(nu_k2, mom[a], out=t)
            out[1 + a] += t
        # the linear pressure and the bulk viscosity are the gradient ik*pot
        np.multiply(c2, z[0], out=pot)
        np.multiply(eta_bar, div, out=t)
        pot -= t
        for a in range(d):
            np.multiply(ik[a], pot, out=t)
            out[1 + a] += t
        np.multiply(ell_q, z[-1], out=t)
        out[-1] -= t

    return ops, nonlin


def step_compressible_rk4(
    s: CompressibleState, dt: float, c: Constitutive
) -> CompressibleState:
    """ETDRK4 step of the conservative compressible system, whose linear
    part (see _compressible_closures) holds the acoustics: the sound speed
    sqrt(P'(1))/eps sets no step bound."""
    ops, nonlin = _compressible_closures(s, dt, c)
    zh = _entry_stack(s)
    return _to_state(s, _etdrk4(zh, ops, nonlin), "RK4")


def step_incompressible_rk4(
    s: IncompressibleState, dt: float, c: Constitutive
) -> IncompressibleState:
    """ETDRK4 step of the projected incompressible system (exact linear part
    -nu|k|^2 - svv on velocity, the phase symbol minus svv on phi)."""
    g = s.grid
    d = g.dim
    nu_bar, _ = _reference_viscosities(c)

    def build():
        ell_phi = _phase_symbol(g.bk_squared, s.model)
        nu_k2 = nu_bar * g.bk_squared
        return _complex((
            _etd_tables(-nu_k2 - g.bsvv, dt),
            _etd_tables(ell_phi - g.bsvv, dt),
            ell_phi,
            nu_k2,
        ))

    u_t, phi_t, ell_phi, nu_k2 = _cached_tables(
        "incompressible", (g, s.model, nu_bar), dt, build
    )
    scratch = _cached_stack("scratch", (4, *g.bshape))

    def ops(key: str, z: np.ndarray, out: np.ndarray):
        np.multiply(u_t[key], z[:d], out=out[:d])
        np.multiply(phi_t[key], z[-1], out=out[-1])

    def nonlin(z: np.ndarray, out: np.ndarray):
        rhs_incompressible_hat(g, z, c, s.model, out)
        t = scratch[0]
        for a in range(d):
            np.multiply(nu_k2, z[a], out=t)
            out[a] += t
        np.multiply(ell_phi, z[-1], out=t)
        out[-1] -= t

    zh = _entry_stack(s)
    return _to_state(s, _etdrk4(zh, ops, nonlin), "RK4")


# ---------------------------------------------------------------------------
# Picard-iterated implicit Euler


def picard_step(
    s: CompressibleState, dt: float, c: Constitutive, cfg: StepperConfig
):
    """Implicit Euler step z = z_n + dt (L z + N(z)) of the system ETDRK4
    integrates (rhs - svv*z; L, N from _compressible_closures), by Picard
    iteration z <- R (z_n + dt N(z)) with the resolvent R = (I - dt L)^-1:
    only N is lagged, so the acoustics set no contraction bound.  The
    increment is measured in H^1, density scaled by 1/eps.  Returns the
    updated state and a convergence report."""
    if not isinstance(s, CompressibleState):
        raise TypeError("picard_step expects a compressible state")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    g = s.grid
    ops, nonlin = _compressible_closures(s, dt, c)
    h1 = 1.0 + g.bk_squared
    zh = _entry_stack(s)
    z, z_new, f = _cached_stack("stages", (6, *zh.shape))[:3]
    z[...] = zh

    ratios = []
    converged = False
    diff = math.inf
    for it in range(1, cfg.picard.max_iter + 1):
        nonlin(z, f)
        f *= dt
        f += zh
        ops("R", f, z_new)
        np.subtract(z_new, z, out=f)
        prev_diff = diff
        sq = [hermitian_sq(g, row, h1) for row in f]
        diff = math.sqrt(sq[0]) / s.eps + sum(math.sqrt(x) for x in sq[1:])
        if 0 < prev_diff < math.inf:
            ratios.append(diff / prev_diff)
        z, z_new = z_new, z
        if diff < cfg.picard.tol:
            converged = True
            break

    # the iterate sits in a cached stage stack, which the next step reuses
    return _to_state(s, z.copy(), "Picard"), PicardReport(it, converged, tuple(ratios), diff)


# ---------------------------------------------------------------------------
# driver


def _explicit_speed(u, phi) -> float:
    """max(max_x(|u(x)| + |grad phi(x)|), _CAPILLARY_FLOOR): the speed of the
    explicit advection and capillary coupling, whose linearisation (-Lap phi
    grad phi in the momentum, -u.grad phi in the phase) has frequencies
    |k.u| + |k| |grad phi| <= |k| (|u| + |grad phi|) at each point.
    grad phi is taken on the band."""
    g = phi.grid
    ph = batch_rfft(g, phi.values[None], out=np.empty((1, *g.bshape), dtype=complex))
    grad = batch_irfft(g, g._bik_stack * ph)
    speed = np.sqrt(np.sum(grad * grad, axis=0))
    speed += np.sqrt(sum(comp.values * comp.values for comp in u))
    return max(float(np.max(speed)), _CAPILLARY_FLOOR)


def default_dt(state, c: Constitutive, cfg: StepperConfig) -> float:
    """Step size implied by the config: an override when given, else a CFL
    bound.

    Incompressible runs take the eps-free bound cfl sqrt(2) dx/S, with the
    explicit speed S = max(max_x(|u(x)| + |grad phi(x)|), 1/sqrt(2)) of the
    state (see _explicit_speed); 1/sqrt(2) gives a fluid at rest a finite
    step.  Compressible runs take the acoustic bound, except runs of the
    relaxational model: both schemes solve the linear acoustics exactly, so
    these take the larger of the acoustic bound and the eps-free one, with
    u = m/rho and phi = q/rho.  The conserved model keeps the acoustic bound:
    at the eps-free step its total energy (n = 64, T = 0.25) moves by 2.8e-5
    from a cfl 0.3 run (2.4e-5 with an affine law), against 2.3e-7 for the
    relaxational model and the 1e-6 that a cfl-independent total allows.
    No separate phase cap applies: ETDRK4 and the Picard solve take the
    phase stiffness exactly.

    The default cfl, DEFAULT_CFL = 0.675, is just under 3 sqrt(2)/(2 pi).
    Linearised, the explicit remainder has frequencies
    |k.u| + |k| |grad phi| <= |k| S, at most sqrt(2) floor(n/3) S on the
    band, whose largest |k| is that of its corner, so at the eps-free bound
    omega dt <= cfl 4 pi/3.  ETDRK4-B with no linear part is RK4, stable on
    the imaginary axis up to 2 sqrt(2): every band mode is stable with no
    credit taken for viscosity or svv.  The acoustic bound scales by the
    same cfl."""
    if cfg.dt_override is not None:
        return cfg.dt_override
    g = state.grid
    compressible = isinstance(state, CompressibleState)
    u, phi = primitives(state) if compressible else (state.u, state.phi)
    umax = float(max(np.max(np.abs(comp.values)) for comp in u))
    acoustic = acoustic_dt(state.eps, g, c, cfg.cfl, umax) if compressible else 0.0
    if compressible and state.model is ModelKind.CH:
        return acoustic
    return max(acoustic, cfg.cfl * math.sqrt(2.0) * g.dx / _explicit_speed(u, phi))


def _check_scheme(scheme: str, regime: str) -> None:
    """The rule that pairs a scheme with a regime: Picard iterates the
    compressible system only."""
    if scheme == "picard" and regime != CompressibleState.REGIME:
        raise ValueError(
            f"scheme 'picard' applies to the compressible regime only, got regime {regime!r}"
        )


def _check_sample_times(times: Sequence, t_end: float) -> None:
    """The rule of integrate's sample times: strictly increasing, in
    [0, t_end] up to 1e-12 (NaN fails the comparison)."""
    if not all(0.0 <= t <= t_end + 1e-12 for t in times):
        raise ValueError(f"sample_times must lie in [0, t_end = {t_end}]")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("sample_times must be strictly increasing")


def _make_stepper(state, c: Constitutive, cfg: StepperConfig) -> Callable:
    _check_scheme(cfg.scheme, state.REGIME)
    if cfg.scheme == "picard":

        def run(s, dt):
            s_new, rep = picard_step(s, dt, c, cfg)
            if not rep.converged:
                raise NumericsError(
                    f"picard iteration stalled: {rep.iterations} iterations, "
                    f"last update {rep.final_diff:.3e} > tol {cfg.picard.tol:.3e}"
                )
            return s_new

        return run
    if isinstance(state, CompressibleState):
        return lambda s, dt: step_compressible_rk4(s, dt, c)
    return lambda s, dt: step_incompressible_rk4(s, dt, c)


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
    _check_sample_times(times, cfg.t_end)
    return list(_marched(state, c, cfg, times, observer))


def _marched(
    state,
    c: Constitutive,
    cfg: StepperConfig,
    times: Sequence,
    observer: Optional[Callable] = None,
):
    """integrate's loop, yielding each (t, state) sample as it is reached,
    with times already checked: a caller that takes the samples one at a
    time holds no earlier one."""
    stepper = _make_stepper(state, c, cfg)
    t = 0.0
    fixed = None  # (nsub, span, dt) of the interval that last set dt
    for target in times:
        if target == 0.0:
            yield 0.0, state
            continue
        # re-evaluate the step bound from the current state so the cap
        # follows the flow (still the same formula, fresh inputs)
        dt_target = default_dt(state, c, cfg)
        span = target - t
        # the one place a step count is formed: beyond 2**53 steps t + i*dt
        # no longer tells one step from the next, so no such run can finish
        if not (dt_target > 0 and span / dt_target <= _MAX_STEPS):
            raise NumericsError(
                f"step bound dt = {dt_target:.6g} gives no step count that can "
                f"finish (at most 2**53) from t = {t:.6g} to {target:.6g}"
            )
        nsub = max(1, math.ceil(span / dt_target - 1e-12))
        # equal intervals of linspace sample times differ in their last
        # bits; keeping their dt bit-identical keeps the ETD tables cached
        if fixed is not None and fixed[0] == nsub and abs(span - fixed[1]) <= 1e-12 * span:
            dt = fixed[2]
        else:
            dt = span / nsub
            fixed = (nsub, span, dt)
        for i in range(nsub):
            try:
                state = stepper(state, dt)
            except NumericsError as exc:
                raise NumericsError(f"step failed at t = {t + i * dt:.6g}: {exc}") from exc
            if observer is not None:
                observer(t + (i + 1) * dt, state)
        t = target
        yield t, state
