"""Field operators on the half (rfft) layout: the tests' independent oracle.

Each operator applies its symbol to the half spectrum of a ``Field`` and
transforms back, one field at a time.  The solver's kernels work on band
stacks with their own symbols; the kernel tests compare them against these.
"""

import numpy as np

from torusflow.spectral import Field, TorusGrid, VectorField


def rdealias_mask(g: TorusGrid) -> np.ndarray:
    """True on the half layout where every |k_axis| <= floor(n/3)."""
    return g.rband_mask(g.dealias_cutoff)


def constant_field(grid: TorusGrid, value: float) -> Field:
    return Field(grid, np.full(grid.shape, float(value)))


def _apply(f: Field, symbol) -> Field:
    """The field whose half spectrum is symbol * rfft(f)."""
    g = f.grid
    return Field(g, g.irfft(symbol * g.rfft(f.values)))


def derivative(f: Field, axis: int, order: int = 1) -> Field:
    """Spectral derivative d^order/dx_axis^order.

    Odd orders zero the Nyquist mode so derivatives of real fields are real.
    """
    if order not in (1, 2, 3, 4):
        raise ValueError(f"derivative order must be in 1..4, got {order}")
    return _apply(f, f.grid.rderiv(axis, order))


def gradient(f: Field) -> VectorField:
    return VectorField(tuple(derivative(f, a) for a in range(f.grid.dim)))


def laplacian(f: Field) -> Field:
    return _apply(f, -f.grid.rk_squared)


def biharmonic(f: Field) -> Field:
    return _apply(f, f.grid.rk_squared**2)


def dealias(f: Field) -> Field:
    """2/3-rule truncation: zero every mode with any |k_axis| > floor(n/3).

    Idempotent.
    """
    return _apply(f, rdealias_mask(f.grid))


def leray_project(v: VectorField) -> VectorField:
    """Remove the gradient part k (k . v) / |k|^2 of v; the k = 0 mode (mean
    flow) counts as solenoidal and is preserved."""
    g = v.grid
    vhat = [g.rfft(c.values) for c in v.components]
    div = sum(ka * vh for ka, vh in zip(g.rwavenumbers, vhat))
    out = []
    for ka, vh in zip(g.rwavenumbers, vhat):
        irr = ka * div / g._rk2safe
        irr[(0,) * g.dim] = 0.0
        out.append(Field(g, g.irfft(vh - irr)))
    return VectorField(tuple(out))
