"""Fourier machinery on the periodic torus [0, 2*pi)^d, d in {1, 2}.

Collocation values live on the uniform n^d grid; integer wavenumbers run
over k in {-n/2+1, ..., n/2} per axis (the Nyquist plane sits at index n/2).
Transforms are unitary up to a single 1/n^d factor carried by the inverse,
so the Fourier-series coefficient of mode k is ``fhat[k] / n**d``.

Two spectral layouts exist, and this module is the only one that decides
which runs where:

* the half (rfft) layout, where the last axis keeps only k >= 0 and Hermitian
  symmetry carries the rest.  The solver core, the diagnostics, the sweep
  norms and the presets all work on it, through ``rfft``/``irfft``,
  ``batch_rfft``/``batch_irfft``, the ``r*`` tables, ``hermitian_sq``,
  ``hs_norm`` and ``refine``;
* the full (fft) layout, kept only behind the public Field API:
  ``to_spectral``, ``Field.spectral()``, ``derivative`` and the other
  Field operators, ``dealias``, the ``solve_*`` functions and ``integral``.
  Callers and tests index ``Field.spectral().data`` with numpy's fftn
  layout, so the Field API keeps it.  ``random_band_limited`` also draws on
  it, because its draws seed the well-prepared initial data.

Products of fields are formed pointwise in physical space; callers are
expected to dealias them with the 2/3 rule (`dealias`, cutoff floor(n/3)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

PHYSICAL = "physical"
SPECTRAL = "spectral"

# peak damping rate (per axis, per time unit) of the high-k spectral
# vanishing viscosity; see TorusGrid.rsvv
_SVV_RATE = 2000.0


@dataclass(frozen=True)
class TorusGrid:
    """Uniform collocation grid on [0, 2*pi)^dim."""

    dim: int
    n: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 8, got {self.n}")

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def dx(self) -> float:
        return 2.0 * np.pi / self.n

    @property
    def volume(self) -> float:
        return (2.0 * np.pi) ** self.dim

    @property
    def dealias_cutoff(self) -> int:
        return self.n // 3

    @cached_property
    def wavenumbers(self) -> tuple:
        """Integer frequency table, one broadcastable array per axis."""
        k1d = np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)
        out = []
        for axis in range(self.dim):
            shape = [1] * self.dim
            shape[axis] = self.n
            out.append(k1d.reshape(shape))
        return tuple(out)

    @cached_property
    def k_squared(self) -> np.ndarray:
        k2 = np.zeros(self.shape)
        for ka in self.wavenumbers:
            k2 = k2 + ka.astype(float) ** 2
        return k2

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """True where every |k_axis| <= floor(n/3)."""
        cut = self.dealias_cutoff
        mask = np.ones(self.shape, dtype=bool)
        for ka in self.wavenumbers:
            mask &= np.abs(ka) <= cut
        return mask

    @cached_property
    def _nyquist_masks(self) -> tuple:
        return tuple(np.abs(ka) == self.n // 2 for ka in self.wavenumbers)

    def coords(self) -> list:
        """Collocation coordinates, one broadcast array per axis."""
        x1d = np.arange(self.n) * self.dx
        if self.dim == 1:
            return [x1d]
        return list(np.meshgrid(x1d, x1d, indexing="ij"))

    # -- half-spectrum (real-transform) layout, used by the hot solver core;
    # the last axis keeps only k >= 0, Hermitian symmetry carries the rest

    @property
    def rshape(self) -> tuple:
        return self.shape[:-1] + (self.n // 2 + 1,)

    @cached_property
    def rwavenumbers(self) -> tuple:
        full = np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)
        half = np.arange(self.n // 2 + 1, dtype=np.int64)
        out = []
        for axis in range(self.dim):
            k1d = half if axis == self.dim - 1 else full
            shape = [1] * self.dim
            shape[axis] = len(k1d)
            out.append(k1d.reshape(shape))
        return tuple(out)

    @cached_property
    def rk_squared(self) -> np.ndarray:
        k2 = np.zeros(self.rshape)
        for ka in self.rwavenumbers:
            k2 = k2 + ka.astype(float) ** 2
        return k2

    @cached_property
    def rdealias_mask(self) -> np.ndarray:
        cut = self.dealias_cutoff
        mask = np.ones(self.rshape, dtype=bool)
        for ka in self.rwavenumbers:
            mask &= np.abs(ka) <= cut
        return mask

    @cached_property
    def _rmult(self) -> np.ndarray:
        """Hermitian multiplicity of each half-layout column: interior
        last-axis columns also stand for their mirrors and count twice; the
        k_last = 0 and Nyquist columns count once."""
        mult = np.full(self.rshape[-1], 2.0)
        mult[0] = mult[-1] = 1.0
        return mult

    @cached_property
    def _rik(self) -> tuple:
        """1j*k per axis on the half-spectrum layout, Nyquist zeroed (as in
        deriv_hat) so first derivatives of real fields stay real."""
        out = []
        for ka in self.rwavenumbers:
            ik = 1j * ka.astype(float)
            out.append(np.where(np.abs(ka) == self.n // 2, 0.0, ik))
        return tuple(out)

    @cached_property
    def _rik2(self) -> np.ndarray:
        """sum_a |_rik[a]|^2: rk_squared without the Nyquist components, the
        symbol of -div grad as the kernels apply it."""
        return sum(np.abs(ik) ** 2 for ik in self._rik)

    @cached_property
    def rsvv(self) -> np.ndarray:
        """Damping-rate symbol of the spectral vanishing viscosity.

        Zero on |k_axis| <= 3/4 cutoff, rising steeply to _SVV_RATE per axis
        at the dealias corner.  Time steppers integrate exp(-svv * t) exactly
        alongside their other semigroups; the k = 0 mode is untouched, so
        conserved integrals stay exact.  Without it, marginal aliasing-driven
        growth at the top of the kept band (observed rates up to ~1e2 per
        time unit in stiff low-Mach runs) can surface over long horizons.
        """
        cut = float(self.dealias_cutoff)
        knee = np.floor(0.75 * cut)
        width = max(cut - knee, 1.0)
        sigma = np.zeros(self.rshape)
        for ka in self.rwavenumbers:
            r = np.maximum(0.0, (np.abs(ka).astype(float) - knee) / width)
            sigma = sigma + _SVV_RATE * r**8
        return sigma

    @cached_property
    def _rk2safe(self) -> np.ndarray:
        """rk_squared with the k = 0 entry set to 1, a safe divisor."""
        k2 = self.rk_squared.copy()
        k2[(0,) * self.dim] = 1.0
        return k2

    def irrotational_hat(self, vhat: list) -> list:
        """Gradient part k (k . v) / |k|^2 of a half-spectrum vector field.

        The k = 0 mode (mean flow) counts as solenoidal, so v minus this is
        the Leray projection of v.
        """
        div = sum(ka * vh for ka, vh in zip(self.rwavenumbers, vhat))
        out = []
        for ka in self.rwavenumbers:
            irr = ka * div / self._rk2safe
            irr[(0,) * self.dim] = 0.0
            out.append(irr)
        return out

    def project_hat(self, vhat: list) -> list:
        """Leray projection of a half-spectrum vector field; mean flow kept."""
        if self.dim < 2:
            raise ValueError("Leray projection requires dim >= 2")
        return [vh - irr for vh, irr in zip(vhat, self.irrotational_hat(vhat))]

    def rfft(self, a: np.ndarray) -> np.ndarray:
        return np.fft.rfftn(a)

    def irfft(self, ah: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(ah, s=self.shape, axes=tuple(range(self.dim)))

    # -- full-spectrum raw-array transforms used by the Field layer --

    def fft(self, a: np.ndarray) -> np.ndarray:
        return np.fft.fftn(a)

    def ifft(self, ah: np.ndarray) -> np.ndarray:
        return np.fft.ifftn(ah).real

    def deriv_hat(self, ah: np.ndarray, axis: int, order: int = 1) -> np.ndarray:
        if axis < 0 or axis >= self.dim:
            raise ValueError(f"axis {axis} out of range for dim {self.dim}")
        if order not in (1, 2, 3, 4):
            raise ValueError(f"derivative order must be in 1..4, got {order}")
        ka = self.wavenumbers[axis].astype(float)
        out = ah * (1j * ka) ** order
        if order % 2 == 1:
            # the Nyquist mode has no odd-derivative partner; zero it so
            # derivatives of real fields stay real
            out = np.where(self._nyquist_masks[axis], 0.0, out)
        return out

    def lap_hat(self, ah: np.ndarray) -> np.ndarray:
        return -self.k_squared * ah


@dataclass(frozen=True)
class Field:
    """Scalar field on a TorusGrid, in physical or spectral representation.

    Treated as an immutable value: operations return new fields and never
    mutate ``data`` in place.
    """

    grid: TorusGrid
    data: np.ndarray
    rep: str = PHYSICAL

    def __post_init__(self):
        if self.rep not in (PHYSICAL, SPECTRAL):
            raise ValueError(f"unknown representation {self.rep!r}")
        if self.data.shape != self.grid.shape:
            raise ValueError(
                f"data shape {self.data.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.data)):
            raise ValueError("field data contains non-finite entries")

    # coercing accessors (no-ops when already in the requested form)
    def physical(self) -> "Field":
        return self if self.rep == PHYSICAL else to_physical(self)

    def spectral(self) -> "Field":
        return self if self.rep == SPECTRAL else to_spectral(self)

    @property
    def values(self) -> np.ndarray:
        """Physical collocation values."""
        return self.physical().data

    def __add__(self, other):
        o = _match(self, other)
        return Field(self.grid, self.data + o, self.rep)

    def __sub__(self, other):
        o = _match(self, other)
        return Field(self.grid, self.data - o, self.rep)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return Field(self.grid, self.data * scalar, self.rep)

    __rmul__ = __mul__

    def __neg__(self):
        return Field(self.grid, -self.data, self.rep)


def _match(f: Field, other) -> np.ndarray:
    if isinstance(other, Field):
        if other.grid != f.grid or other.rep != f.rep:
            raise ValueError("field operands must share grid and representation")
        return other.data
    raise TypeError(f"cannot combine Field with {type(other)!r}")


@dataclass(frozen=True)
class VectorField:
    """Tuple of same-grid, same-representation scalar fields."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("vector field needs at least one component")
        g, r = comps[0].grid, comps[0].rep
        for c in comps[1:]:
            if c.grid != g or c.rep != r:
                raise ValueError("vector components must share grid and representation")
        if len(comps) != g.dim:
            raise ValueError(f"expected {g.dim} components, got {len(comps)}")

    @property
    def grid(self) -> TorusGrid:
        return self.components[0].grid

    @property
    def rep(self) -> str:
        return self.components[0].rep

    def physical(self) -> "VectorField":
        return VectorField(tuple(c.physical() for c in self.components))

    def spectral(self) -> "VectorField":
        return VectorField(tuple(c.spectral() for c in self.components))

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __add__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return VectorField(tuple(a + b for a, b in zip(self, other)))

    def __sub__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return VectorField(tuple(a - b for a, b in zip(self, other)))

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return VectorField(tuple(c * scalar for c in self.components))

    __rmul__ = __mul__


def field_from_values(grid: TorusGrid, values: np.ndarray) -> Field:
    return Field(grid, np.asarray(values, dtype=float), PHYSICAL)


def constant_field(grid: TorusGrid, value: float) -> Field:
    return Field(grid, np.full(grid.shape, float(value)), PHYSICAL)


# ---------------------------------------------------------------------------
# transforms


def to_spectral(f: Field) -> Field:
    """Forward FFT; input must be physical."""
    if f.rep != PHYSICAL:
        raise ValueError("to_spectral expects a physical-representation field")
    return Field(f.grid, f.grid.fft(f.data), SPECTRAL)


def to_physical(f: Field) -> Field:
    """Inverse FFT (carries the 1/n^d normalization); input must be spectral."""
    if f.rep != SPECTRAL:
        raise ValueError("to_physical expects a spectral-representation field")
    return Field(f.grid, f.grid.ifft(f.data), PHYSICAL)


# ---------------------------------------------------------------------------
# differential operators (representation-preserving)


def derivative(f: Field, axis: int, order: int = 1) -> Field:
    """Spectral derivative d^order/dx_axis^order.

    Odd orders zero the Nyquist mode so derivatives of real fields are real.
    """
    fh = f.spectral()
    out = Field(f.grid, f.grid.deriv_hat(fh.data, axis, order), SPECTRAL)
    return out if f.rep == SPECTRAL else to_physical(out)


def gradient(f: Field) -> VectorField:
    return VectorField(tuple(derivative(f, a) for a in range(f.grid.dim)))


def divergence(v: VectorField) -> Field:
    g = v.grid
    acc = np.zeros(g.shape, dtype=complex)
    for a, comp in enumerate(v.components):
        acc = acc + g.deriv_hat(comp.spectral().data, a, 1)
    out = Field(g, acc, SPECTRAL)
    return out if v.rep == SPECTRAL else to_physical(out)


def laplacian(f: Field) -> Field:
    fh = f.spectral()
    out = Field(f.grid, f.grid.lap_hat(fh.data), SPECTRAL)
    return out if f.rep == SPECTRAL else to_physical(out)


def biharmonic(f: Field) -> Field:
    fh = f.spectral()
    out = Field(f.grid, f.grid.k_squared**2 * fh.data, SPECTRAL)
    return out if f.rep == SPECTRAL else to_physical(out)


# ---------------------------------------------------------------------------
# dealiasing and products


def dealias(f: Field) -> Field:
    """2/3-rule truncation: zero every mode with any |k_axis| > floor(n/3).

    Spectral input only; idempotent.
    """
    if f.rep != SPECTRAL:
        raise ValueError("dealias expects a spectral-representation field")
    return Field(f.grid, np.where(f.grid.dealias_mask, f.data, 0.0), SPECTRAL)


def dealiased_product(f: Field, g: Field) -> Field:
    """Pointwise product in physical space, then 2/3-rule truncation."""
    a = f.values * g.values
    grid = f.grid
    ah = grid.fft(a)
    return Field(grid, grid.ifft(np.where(grid.dealias_mask, ah, 0.0)), PHYSICAL)


def batch_rfft(grid: TorusGrid, arrs) -> list:
    """Half-spectrum transforms of several real arrays in one backend call."""
    axes = tuple(range(1, 1 + grid.dim))
    out = np.fft.rfftn(np.stack(arrs), axes=axes)
    return [out[i] for i in range(out.shape[0])]


def batch_irfft(grid: TorusGrid, hats) -> list:
    axes = tuple(range(1, 1 + grid.dim))
    out = np.fft.irfftn(np.stack(hats), s=grid.shape, axes=axes)
    return [out[i] for i in range(out.shape[0])]


# ---------------------------------------------------------------------------
# constant-coefficient solves


def solve_helmholtz(a: float, b: float, f: Field) -> Field:
    """Solve (a - b*Lap) u = f spectrally; requires a > 0, b >= 0."""
    if a <= 0:
        raise ValueError(f"helmholtz shift must be positive, got a={a}")
    if b < 0:
        raise ValueError(f"helmholtz coefficient must be nonnegative, got b={b}")
    fh = f.spectral()
    out = Field(f.grid, fh.data / (a + b * f.grid.k_squared), SPECTRAL)
    return out if f.rep == SPECTRAL else to_physical(out)


def solve_biharmonic_shift(a: float, b: float, f: Field) -> Field:
    """Solve (a + b*Lap^2) u = f spectrally; requires a > 0, b >= 0."""
    if a <= 0:
        raise ValueError(f"biharmonic shift must be positive, got a={a}")
    if b < 0:
        raise ValueError(f"biharmonic coefficient must be nonnegative, got b={b}")
    fh = f.spectral()
    out = Field(f.grid, fh.data / (a + b * f.grid.k_squared**2), SPECTRAL)
    return out if f.rep == SPECTRAL else to_physical(out)


def leray_project(v: VectorField) -> VectorField:
    """Remove the gradient part of v; the k=0 mode (mean flow) is preserved."""
    g = v.grid
    phat = g.project_hat([g.rfft(c.values) for c in v.components])
    out = VectorField(tuple(Field(g, g.irfft(ph)) for ph in phat))
    return out.spectral() if v.rep == SPECTRAL else out


# ---------------------------------------------------------------------------
# norms and quadrature helpers


def integral(f: Field) -> float:
    """Integral over the torus (exact for the stored band)."""
    fh = f.spectral()
    return float(fh.data[(0,) * f.grid.dim].real) / f.grid.n**f.grid.dim * f.grid.volume


def l2_norm(f: Field) -> float:
    v = f.values
    return float(np.sqrt(np.mean(v * v) * f.grid.volume))


def hermitian_sq(g: TorusGrid, ah: np.ndarray, w) -> float:
    """Weighted squared norm volume * sum_k w_k |c_k|^2 of a real field.

    ``ah`` is the field's half spectrum (``g.rfft``) and ``w`` a weight on
    the half layout; c_k = fhat_k / n^d, and each column counts with its
    Hermitian multiplicity, so the sum runs over the full spectrum.
    """
    sq = float(np.sum(g._rmult * w * np.abs(ah) ** 2))
    return g.volume * sq / float(g.n) ** (2 * g.dim)


def hs_norm(f: Field, s: int) -> float:
    """Sobolev H^s norm with the Bessel weight (1 + |k|^2)^s.

    Coefficients c_k = fhat_k / n^d, so the s = 0 case matches l2_norm and a
    constant c has norm |c| * sqrt(volume).
    """
    if s < 0 or int(s) != s:
        raise ValueError(f"Sobolev index must be a nonnegative integer, got {s}")
    g = f.grid
    return float(np.sqrt(hermitian_sq(g, g.rfft(f.values), (1.0 + g.rk_squared) ** s)))


def refine(f: Field, factor: int = 2) -> np.ndarray:
    """Physical values on a factor-times finer grid via zero-padded spectrum.

    Used for alias-free quadrature of higher-degree integrands.  A mode on
    the coarse Nyquist plane is split evenly between +n/2 and -n/2, so the
    result is the real trigonometric interpolant of the stored values.
    """
    if int(factor) != factor or factor < 2:
        raise ValueError(f"refine factor must be an integer >= 2, got {factor}")
    g = f.grid
    gf = TorusGrid(g.dim, int(factor) * g.n)
    h = g.n // 2
    fh = g.rfft(f.values)
    fh[..., h] *= 0.5
    big = np.zeros(gf.rshape, dtype=complex)
    if g.dim == 1:
        big[: h + 1] = fh
    else:
        # rows are the full axis: k = 0..n/2 on top, k = -n/2..-1 at the bottom
        fh[h] *= 0.5
        big[: h + 1, : h + 1] = fh[: h + 1]
        big[-h:, : h + 1] = fh[h:]
    return gf.irfft(big) * factor**g.dim


def random_band_limited(
    grid: TorusGrid, rng: np.random.Generator, kmax: int, zero_mean: bool = True
) -> Field:
    """Smooth random real field with modes confined to |k_axis| <= kmax."""
    spec = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    keep = np.ones(grid.shape, dtype=bool)
    for ka in grid.wavenumbers:
        keep &= np.abs(ka) <= kmax
    spec = np.where(keep, spec * np.exp(-grid.k_squared / (2.0 * kmax)), 0.0)
    if zero_mean:
        spec[(0,) * grid.dim] = 0.0
    vals = np.fft.ifftn(spec).real  # real part enforces Hermitian symmetry
    return Field(grid, vals, PHYSICAL)
