"""Fourier machinery on the periodic torus [0, 2*pi)^d, d = 2.

Collocation values live on the uniform n^d grid; integer wavenumbers run
over k in {-n/2+1, ..., n/2} per axis (the Nyquist plane sits at index n/2).
Transforms are unitary up to a single 1/n^d scale carried by the inverse,
so the Fourier-series coefficient of mode k is ``fhat[k] / n**d``.

The reports, ``divergence`` and the Sobolev norm run on the half (rfft)
layout, where the last axis keeps only k >= 0 and Hermitian symmetry
carries the rest: the ``r*`` tables of ``TorusGrid``, ``rfft``/``irfft``,
``batch_rfft``/``batch_irfft``, ``hermitian_sq``, ``hs_norm`` and
``refine``.  A ``Field`` holds collocation values only.

Products of fields are formed pointwise in physical space and dealiased
with the 2/3 rule (cutoff floor(n/3)) by the band transform below.  The
batch transforms, ``refine``, ``hermitian_sq`` and the grid's
``rfft``/``irfft`` take optional caller-owned buffers, so the solver and the
diagnostics can run without allocating; without them they allocate, and no
result aliases a buffer the caller did not pass.

The solver works in the band layout, (n, n//3 + 1): the half layout cut
to the columns k_last <= floor(n/3) that the 2/3 rule keeps, with the
full-axis rows |k| > floor(n/3) held at zero.  An array's shape states
its layout: ``batch_rfft`` writes a band ``out`` and ``batch_irfft`` and
``hermitian_sq`` read a band spectrum, bit for bit as the full transforms
on those modes, and this band transform is the solver's one 2/3 cut.
The ``b*`` tables of ``TorusGrid`` are the band columns of the ``r*``
ones, and the solver reads them in place.  ``_div_hat`` is the one ik.v
on half or band spectra: the kernels, the ETD closures, the Leray
projection, the incompressible pressure, ``divergence`` and the reports
all call it.  A state stack, a tendency, an ETDRK4 stage and an ETD table
are each a third smaller than on the half layout, and no ufunc of the
solver multiplies the dropped zeros.

Every cache of the solver and the reports (the kernels' workspace, the
reports' 2x-grid workspace, the ETDRK4 tables and stage stacks) is a slot
of ``_one_slot``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

_SLOTS: dict = {}


def _one_slot(name: str, key, build):
    """build(), kept under ``name`` while ``key`` repeats.

    Each name holds one value, and a new key replaces it, so memory stays
    flat; a hit returns what a rebuild would, so no caller can tell the
    cache is there.  The cached values are shared buffers, so a slot name is
    used by one thread at a time and nothing that uses a slot is re-entrant.
    ``torusflow run``'s report thread owns ``diagnostics.workspace`` while
    the main thread owns ``dynamics.workspace`` and the ``stepper.*`` slots;
    concurrent solves run in separate processes, as run_sweep does.
    """
    hit = _SLOTS.get(name)
    if hit is None or hit[0] != key:
        hit = _SLOTS[name] = (key, build())
    return hit[1]


# peak damping rate (per axis, per time unit) of the high-k spectral
# vanishing viscosity; see TorusGrid.rsvv
_SVV_RATE = 2000.0


@dataclass(frozen=True)
class TorusGrid:
    """Uniform collocation grid on [0, 2*pi)^dim."""

    dim: int
    n: int

    def __post_init__(self):
        if self.dim != 2:
            raise ValueError(f"grid.dim must be 2 (the solver is 2-d), got {self.dim}")
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

    def coords(self) -> list:
        """Collocation coordinates, one broadcast array per axis."""
        x1d = np.arange(self.n) * self.dx
        return list(np.meshgrid(x1d, x1d, indexing="ij"))

    # -- half-spectrum (real-transform) layout: the last axis keeps only
    # k >= 0, Hermitian symmetry carries the rest

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

    def rband_mask(self, kmax: int) -> np.ndarray:
        """True on the half layout where every |k_axis| <= kmax."""
        mask = np.ones(self.rshape, dtype=bool)
        for ka in self.rwavenumbers:
            mask &= np.abs(ka) <= kmax
        return mask

    @cached_property
    def _rmult(self) -> np.ndarray:
        """Hermitian multiplicity of each half-layout column: interior
        last-axis columns also stand for their mirrors and count twice; the
        k_last = 0 and Nyquist columns count once."""
        mult = np.full(self.rshape[-1], 2.0)
        mult[0] = mult[-1] = 1.0
        return mult

    def rderiv(self, axis: int, order: int = 1) -> np.ndarray:
        """Symbol (i k_axis)^order on the half layout, broadcastable.

        Odd orders zero the Nyquist plane, which has no odd-derivative
        partner, so derivatives of real fields stay real.
        """
        if axis < 0 or axis >= self.dim:
            raise ValueError(f"axis {axis} out of range for dim {self.dim}")
        ka = self.rwavenumbers[axis]
        sym = (1j * ka.astype(float)) ** order
        if order % 2:
            sym = np.where(np.abs(ka) == self.n // 2, 0.0, sym)
        return sym

    @cached_property
    def _rik(self) -> tuple:
        """First-derivative symbols rderiv(axis, 1), one per axis."""
        return tuple(self.rderiv(a) for a in range(self.dim))

    @cached_property
    def _rik_stack(self) -> np.ndarray:
        """_rik broadcast to one (dim, *rshape) stack, for stacked arithmetic."""
        return np.stack(np.broadcast_arrays(*self._rik))

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

    # -- band layout: the half layout cut to the columns k_last <= cutoff
    # that the 2/3 rule keeps; the solver's spectral stacks and tables

    @property
    def bshape(self) -> tuple:
        return self.shape[:-1] + (self.dealias_cutoff + 1,)

    def _band(self, table: np.ndarray) -> np.ndarray:
        """The band columns of a half-layout table, as a contiguous copy."""
        return np.ascontiguousarray(table[..., : self.dealias_cutoff + 1])

    @cached_property
    def bk_squared(self) -> np.ndarray:
        return self._band(self.rk_squared)

    @cached_property
    def _bk2_complex(self) -> np.ndarray:
        """bk_squared as complex, so products with spectra need no cast."""
        return self.bk_squared.astype(complex)

    @cached_property
    def _bik_stack(self) -> np.ndarray:
        return self._band(self._rik_stack)

    @cached_property
    def _bik2(self) -> np.ndarray:
        return self._band(self._rik2)

    @cached_property
    def bsvv(self) -> np.ndarray:
        return self._band(self.rsvv)

    @cached_property
    def _bk2safe(self) -> np.ndarray:
        """_rk2safe on the band, complex like the spectra it divides."""
        return self._band(self._rk2safe).astype(complex)

    # one array through the batch transforms (rfftn / irfftn bit for bit);
    # out and work are their buffers, out one array and work a stack
    def rfft(self, a: np.ndarray, out=None, work=None) -> np.ndarray:
        slot = None if out is None else out[None]
        return batch_rfft(self, np.asarray(a)[None], out=slot, work=work)[0]

    def irfft(self, ah: np.ndarray, out=None, work=None) -> np.ndarray:
        slot = None if out is None else out[None]
        return batch_irfft(self, np.asarray(ah)[None], out=slot, work=work)[0]

    # no torusflow code calls these; perfbench/tracing.py wraps them by name
    def fft(self, a: np.ndarray) -> np.ndarray:
        return np.fft.fftn(a)

    def ifft(self, ah: np.ndarray) -> np.ndarray:
        return np.fft.ifftn(ah).real


@dataclass(frozen=True)
class Field:
    """Scalar field on a TorusGrid, held as its collocation values.

    Treated as an immutable value: operations return new fields and never
    mutate ``values`` in place.  A Field has no arithmetic; callers combine
    its ``values``.
    """

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"data shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field data contains non-finite entries")


@dataclass(frozen=True)
class VectorField:
    """Tuple of same-grid scalar fields."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("vector field needs at least one component")
        g = comps[0].grid
        if any(c.grid != g for c in comps[1:]):
            raise ValueError("vector components must share a grid")
        if len(comps) != g.dim:
            raise ValueError(f"expected {g.dim} components, got {len(comps)}")

    @property
    def grid(self) -> TorusGrid:
        return self.components[0].grid

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]


# ---------------------------------------------------------------------------
# the divergence


def _div_hat(ik, v, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """out = sum_a ik[a] v[a] on half or band spectra, with tmp as scratch;
    out and tmp may be v[0] and v[1].  The package's one ik.v, bit for bit
    as np.sum(ik * v, axis=0), which sums from +0: a -0 total reads +0."""
    np.multiply(ik[0], v[0], out=out)
    for a in range(1, len(v)):
        np.multiply(ik[a], v[a], out=tmp)
        out += tmp
    out += 0.0
    return out


def divergence(v: VectorField) -> Field:
    g = v.grid
    uh = batch_rfft(g, [c.values for c in v.components])
    return Field(g, batch_irfft(g, _div_hat(g._rik, uh, uh[0], uh[1])[None])[0])


# ---------------------------------------------------------------------------
# the batch transforms


def batch_rfft(grid: TorusGrid, arrs, out=None, work=None) -> np.ndarray:
    """Half-spectrum transforms of a stack of real arrays, (k, *shape) ->
    (k, *rshape).

    The transform runs as two 1-d passes, rfft along the last axis into
    ``work`` and fft along the first into ``out``; this matches rfftn bit
    for bit.  ``work`` is a half-layout stack; one with fewer slots than the
    input takes it in chunks of its length.  With both buffers given nothing
    is allocated.  ``out`` must not overlap the input or ``work``: numpy
    copies an operand that overlaps its output.

    An ``out`` in the band layout, (k, *bshape), takes the 2/3-truncated
    spectrum (Orszag's rule): the full-axis pass runs only on the half-axis
    columns up to the dealias cutoff, and the rows cutoff < |k| are set to
    zero.  Every kept mode equals the full transform's bit for bit.
    """
    a = np.asarray(arrs)
    half = grid.n // 2 + 1
    if out is None:
        out = np.empty(a.shape[:-1] + (half,), dtype=complex)
    if work is None:
        work = np.empty(a.shape[:-1] + (half,), dtype=complex)
    cols = out.shape[-1]
    for i in range(0, len(a), len(work)):
        chunk = a[i : i + len(work)]
        w = work[: len(chunk)]
        np.fft.rfft(chunk, axis=-1, out=w)
        np.fft.fft(w[..., :cols], axis=-2, out=out[i : i + len(chunk)])
    if cols < half:
        out[..., cols : grid.n - cols + 1, :] = 0.0
    return out


def batch_irfft(grid: TorusGrid, hats, out=None, work=None) -> np.ndarray:
    """Inverse of batch_rfft, (k, *rshape) -> (k, *shape): ifft along the
    first axis into the half-layout ``work``, then irfft along the last into
    ``out`` (irfftn bit for bit), in chunks as there.  The input is left
    unchanged.  A 2/3-truncated band-layout input, (k, *bshape), is read
    as such: the full-axis pass then runs on its columns only, and the
    result equals the full inverse of the zero-padded half spectrum bit for
    bit.
    """
    h = np.asarray(hats)
    half = grid.n // 2 + 1
    if out is None:
        out = np.empty(h.shape[:-1] + (grid.n,))
    if work is None:
        work = np.empty(h.shape[:-1] + (half,), dtype=complex)
    cols = h.shape[-1]
    work[..., cols:] = 0.0
    for i in range(0, len(h), len(work)):
        chunk = h[i : i + len(work)]
        w = work[: len(chunk)]
        np.fft.ifft(chunk, axis=-2, out=w[..., :cols])
        np.fft.irfft(w, n=grid.n, axis=-1, out=out[i : i + len(chunk)])
    return out


# ---------------------------------------------------------------------------
# norms and quadrature helpers


def integral(f: Field) -> float:
    """Integral over the torus (exact for the stored band)."""
    return float(np.mean(f.values)) * f.grid.volume


def l2_norm(f: Field) -> float:
    v = f.values
    return float(np.sqrt(np.mean(v * v) * f.grid.volume))


def hermitian_sq(g: TorusGrid, ah: np.ndarray, w, work=None) -> float:
    """Weighted squared norm volume * sum_k w_k |c_k|^2 of a real field.

    ``ah`` is the field's half spectrum (``g.rfft``), or its 2/3-truncated
    band, and ``w`` a weight on the same layout; c_k = fhat_k / n^d, and
    each column counts with its Hermitian multiplicity, so the sum runs
    over the full spectrum.  A real ``work`` stack (2, *ah.shape) takes the
    weighted table and the summand, so nothing is allocated.
    """
    if work is None:
        work = np.empty((2, *np.shape(ah)))
    wt, sq = work
    # the band is the first columns of the half layout
    np.multiply(g._rmult[: np.shape(ah)[-1]], w, out=wt)
    np.abs(ah, out=sq)
    np.square(sq, out=sq)
    np.multiply(wt, sq, out=sq)
    return g.volume * float(np.sum(sq)) / float(g.n) ** (2 * g.dim)


def hs_norm(f: Field, s: int) -> float:
    """Sobolev H^s norm with the Bessel weight (1 + |k|^2)^s.

    Coefficients c_k = fhat_k / n^d, so the s = 0 case matches l2_norm and a
    constant c has norm |c| * sqrt(volume).
    """
    if s < 0 or int(s) != s:
        raise ValueError(f"Sobolev index must be a nonnegative integer, got {s}")
    g = f.grid
    return float(np.sqrt(hermitian_sq(g, g.rfft(f.values), (1.0 + g.rk_squared) ** s)))


def refine_work_size(g: TorusGrid, k: int, *, size=None) -> int:
    """Complex entries of the ``work`` buffer refine needs for k fields or
    spectra, refined to the grid of n = ``size`` (default 2n)."""
    nf = 2 * g.n if size is None else size
    half = nf * (g.n // 2 + 1)
    return k * half + max(k * half, (k + 1) * g.n * (g.n // 2 + 1))


def refine(f, *, size=None, out=None, work=None) -> np.ndarray:
    """Physical values on a finer grid via zero-padded spectrum.

    Used for alias-free quadrature of higher-degree integrands.  The fine
    grid has n = ``size`` (even and larger than n, default 2n).  ``f`` is a
    Field, a sequence of Fields on one grid, or a sequence of band spectra,
    (n, n//3 + 1), of one grid, such as the rows of a state's carried
    stack.  Fields are transformed to half spectra first, and a mode on
    their coarse Nyquist plane is split evenly between +n/2 and -n/2, so
    the result is the real trigonometric interpolant of the stored values.
    A sequence is refined as one stack (one padding, one inverse pass per
    axis, the column pass on the stored columns only) into a (k, *fine
    shape) array; each slot equals the single-field refinement bit for
    bit, and both equal irfftn of the zero-padded half spectrum.

    ``out`` (a (k, *fine shape) stack) and ``work`` (a contiguous complex
    buffer of at least refine_work_size entries) are optional buffers, as
    for batch_rfft; with both nothing of the grid's size is allocated, and
    the result is ``out``.  ``work`` holds the zero-padded spectra and
    their column transforms; the half spectra of Fields and their transform
    scratch share the latter's memory, since they are spent before it is
    written.
    """
    items = [f] if isinstance(f, Field) else list(f)
    if not items:
        raise ValueError("refine needs at least one field")
    fields = isinstance(items[0], Field)
    if fields:
        g = items[0].grid
        if any(not isinstance(x, Field) or x.grid != g for x in items[1:]):
            raise ValueError("refined fields must share a grid")
        cols = g.n // 2 + 1
    else:
        shape = np.shape(items[0])
        if len(shape) != 2 or any(np.shape(x) != shape for x in items[1:]):
            raise ValueError("refined spectra must be 2-d and share one shape")
        g = TorusGrid(2, shape[0])
        cols = g.dealias_cutoff + 1
        if shape[1] != cols:
            raise ValueError(
                f"a band spectrum of an n = {g.n} grid has {cols} columns, got {shape[1]}"
            )
    nf = 2 * g.n if size is None else size
    if int(nf) != nf or nf % 2 or nf <= g.n:
        raise ValueError(f"refine size must be an even integer > {g.n}, got {nf}")
    nf = int(nf)
    k = len(items)
    h = g.n // 2
    if work is None:
        work = np.empty(refine_work_size(g, k, size=nf), dtype=complex)
    if out is None:
        out = np.empty((k,) + (nf,) * g.dim)
    pool = work.reshape(-1)
    padded = k * nf * cols
    tall = pool[:padded].reshape(k, nf, cols)
    # rows are the full axis: k = 0..r on top, k = -r..-1 at the bottom,
    # with r the Nyquist row n/2 of a half spectrum, which goes to both
    # ends, or the cutoff of a band one; the columns past the stored ones
    # are zero
    if fields:
        r = h
        one = g.n * (h + 1)
        spectra = pool[padded : padded + k * one].reshape((k,) + g.rshape)
        scratch = pool[padded + k * one : padded + (k + 1) * one].reshape((1,) + g.rshape)
        # one field at a time, so no stacked copy of the inputs is made
        for i, x in enumerate(items):
            batch_rfft(g, x.values[None], out=spectra[i : i + 1], work=scratch)
        # the Fields' spectra are one stack, copied whole
        pairs = [(tall, spectra)]
    else:
        r = g.dealias_cutoff
        pairs = zip(tall, items)
    for t, x in pairs:
        t[..., : r + 1, :] = x[..., : r + 1, :]
        t[..., nf - r :, :] = x[..., g.n - r :, :]
    tall[:, r + 1 : nf - r] = 0.0
    if fields:
        # the Nyquist column and row split evenly between +n/2 and -n/2
        tall[..., h] *= 0.5
        tall[:, h] *= 0.5
        tall[:, nf - h] *= 0.5
    fh = np.fft.ifft(tall, axis=-2, out=pool[padded : 2 * padded].reshape(k, nf, cols))
    # irfft zero-pads the last axis up to the fine half spectrum
    np.fft.irfft(fh, n=nf, axis=-1, out=out)
    out *= (nf / g.n) ** g.dim
    return out[0] if isinstance(f, Field) else out


def random_band_limited(
    grid: TorusGrid, rng: np.random.Generator, kmax: int, zero_mean: bool = True
) -> Field:
    """Smooth random real field with modes confined to |k_axis| <= kmax.

    Draws a full complex spectrum A and keeps its Hermitian part
    (A(k) + conj A(-k)) / 2, the spectrum of a real field.
    """
    spec = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    axes = tuple(range(grid.dim))
    mirror = np.conj(np.roll(np.flip(spec, axes), 1, axes))  # conj A(-k)
    half = 0.5 * (spec + mirror)[..., : grid.n // 2 + 1]
    keep = grid.rband_mask(kmax)
    half = np.where(keep, half * np.exp(-grid.rk_squared / (2.0 * kmax)), 0.0)
    if zero_mean:
        half[(0,) * grid.dim] = 0.0
    return Field(grid, grid.irfft(half))
