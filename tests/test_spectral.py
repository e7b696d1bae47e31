import numpy as np
import pytest

import torusflow.spectral as spectral_module

from torusflow.constitutive import ModelKind
from torusflow.dynamics import IncompressibleState, initial_from_preset, well_prepared_initial
from torusflow.spectral import (
    Field,
    TorusGrid,
    VectorField,
    _div_hat,
    _one_slot,
    batch_irfft,
    batch_rfft,
    divergence,
    hs_norm,
    integral,
    l2_norm,
    refine,
    refine_work_size,
)

from field_ops import (
    biharmonic,
    constant_field,
    dealias,
    derivative,
    gradient,
    laplacian,
    leray_project,
    random_band_limited,
    rdealias_mask,
)


def vec_from(g, *arrays):
    return VectorField(tuple(Field(g, a) for a in arrays))


def _along(values, varying):
    """values when varying is 2, else its first column broadcast along y: a
    field that varies along x only."""
    if varying == 2:
        return values
    return np.ascontiguousarray(np.broadcast_to(values[:, :1], values.shape))


def full_wavenumbers(g):
    """Integer wavenumbers of numpy's fftn layout, one broadcast array per
    axis: the oracle for the half-layout tables."""
    k1d = np.fft.fftfreq(g.n, d=1.0 / g.n)
    return np.meshgrid(*([k1d] * g.dim), indexing="ij", sparse=True)


# ---------------------------------------------------------------------------
# grid construction


@pytest.mark.parametrize("dim,n", [(2, 8), (2, 64), (2, 32)])
def test_grid_basic(dim, n):
    g = TorusGrid(dim, n)
    assert g.shape == (n,) * dim
    assert g.dx == pytest.approx(2 * np.pi / n)
    assert g.volume == pytest.approx((2 * np.pi) ** dim)
    assert g.dealias_cutoff == n // 3


@pytest.mark.parametrize("dim,n", [(3, 32), (2, 31), (2, 4), (0, 16), (1, 32)])
def test_grid_rejects_bad_shapes(dim, n):
    # the grid is 2-d: dims 1 and 3 are rejected with the dim rule named
    with pytest.raises(ValueError, match="grid.dim" if dim != 2 else "n must"):
        TorusGrid(dim, n)


def test_wavenumbers_integer_and_broadcast(g2):
    kx, ky = g2.rwavenumbers
    assert kx.shape == (32, 1) and ky.shape == (1, 17)
    fx, fy = full_wavenumbers(g2)
    assert np.array_equal(kx, fx)
    assert np.array_equal(ky[0], np.abs(fy[0, :17]))
    assert np.array_equal(g2.rk_squared, kx**2 + ky**2)


def test_rderiv_symbols():
    g = TorusGrid(2, 16)
    for axis in range(2):
        k = g.rwavenumbers[axis].astype(float)
        nyquist = np.abs(k) == g.n // 2
        for order in (1, 2, 3, 4):
            want = (1j * k) ** order
            if order % 2:
                want = np.where(nyquist, 0.0, want)
            assert np.array_equal(g.rderiv(axis, order), want)
        assert np.array_equal(g._rik[axis], g.rderiv(axis, 1))
    with pytest.raises(ValueError):
        g.rderiv(2, 1)


def test_div_hat_is_the_stacked_sum_bit_for_bit(g2, rng):
    # the package's one ik.v forms np.sum(ik * v, axis=0) to the bit, on the
    # half and the band layout, in place too
    for ik, shape in ((g2._rik_stack, g2.rshape), (g2._bik_stack, g2.bshape)):
        v = rng.standard_normal((2, *shape)) + 1j * rng.standard_normal((2, *shape))
        want = np.sum(ik * v, axis=0)
        out, tmp = np.empty((2, *shape), dtype=complex)
        assert _div_hat(ik, v, out, tmp).tobytes() == want.tobytes()
        assert _div_hat(ik, v, v[0], v[1]).tobytes() == want.tobytes()
    # products that are all -0: the stacked sum starts from +0, so the
    # total reads +0, not -0
    ik, v = np.ones((2, *g2.bshape)), np.full((2, *g2.bshape), -0.0)
    want = np.sum(ik * v, axis=0)
    assert not np.signbit(want).any()
    got = _div_hat(ik, v, np.empty(g2.bshape), np.empty(g2.bshape))
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# transforms


def test_constant_transforms_to_zero_mode_only(g2):
    fh = g2.rfft(constant_field(g2, 3.5).values)
    # unscaled forward transform: the k = 0 coefficient is c * n^d
    assert fh[0, 0] == pytest.approx(3.5 * 32**2)
    assert np.max(np.abs(fh.flatten()[1:])) < 1e-9


def test_sine_has_two_modes():
    g = TorusGrid(2, 8)
    x = g.coords()[0]
    f = Field(g, np.sin(x))
    fh = np.fft.fftn(f.values)
    # sin x = (e^{ix} - e^{-ix}) / 2i: coefficients -+ n^2/2 i at k = (+-1, 0)
    assert fh[1, 0] == pytest.approx(-32j)
    assert fh[-1, 0] == pytest.approx(32j)
    # the half layout is the k_y >= 0 part of the full spectrum
    assert np.max(np.abs(g.rfft(f.values) - fh[:, : g.n // 2 + 1])) < 1e-12
    fh[1, 0] = fh[-1, 0] = 0.0
    assert np.max(np.abs(fh)) < 1e-12


def test_round_trip(g2, rng):
    f = random_band_limited(g2, rng, 9)
    back = g2.irfft(g2.rfft(f.values))
    assert np.max(np.abs(back - f.values)) < 1e-13


def test_field_validation(g2):
    with pytest.raises(ValueError):
        Field(g2, np.zeros((8, 8)))
    bad = np.zeros(g2.shape)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        Field(g2, bad)


def test_batch_rfft_matches_single(g2, rng):
    arrs = [random_band_limited(g2, rng, 9).values for _ in range(3)]
    hats = batch_rfft(g2, arrs)
    for a, h in zip(arrs, hats):
        assert np.max(np.abs(h - np.fft.rfftn(a))) < 1e-10
    back = batch_irfft(g2, hats)
    for a, b in zip(arrs, back):
        assert np.max(np.abs(a - b)) < 1e-13


@pytest.mark.parametrize("varying", [1, 2])
def test_batch_transforms_into_buffers(varying, rng):
    # the two 1-d passes through caller buffers reproduce rfftn / irfftn
    # and leave their input alone, for fields that vary along x only
    # (their spectra fill the k_y = 0 column) and along both axes
    g = TorusGrid(2, 32)
    axes = (1, 2)
    stack = np.stack([_along(random_band_limited(g, rng, 9).values, varying)
                      for _ in range(3)])
    hats = np.empty((3, *g.rshape), dtype=complex)
    work = np.empty((5, *g.rshape), dtype=complex)  # spare slots are fine
    stack_in = stack.copy()
    assert batch_rfft(g, stack, out=hats, work=work) is hats
    want = np.fft.rfftn(stack_in, axes=axes)
    assert np.max(np.abs(hats - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.array_equal(stack, stack_in)
    back = np.empty_like(stack)
    hats_in = hats.copy()
    assert batch_irfft(g, hats, out=back, work=work) is back
    want = np.fft.irfftn(hats_in, s=g.shape, axes=axes)
    assert np.max(np.abs(back - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.array_equal(hats, hats_in)


# ---------------------------------------------------------------------------
# derivatives


def test_derivative_of_sine(g2):
    x = g2.coords()[0]
    d = derivative(Field(g2, np.sin(x)), 0)
    assert np.max(np.abs(d.values - np.cos(x))) < 1e-12


def test_second_derivative(g2):
    x = g2.coords()[0]
    d2 = derivative(Field(g2, np.cos(x)), 0, order=2)
    assert np.max(np.abs(d2.values + np.cos(x))) < 1e-12


def test_derivative_of_constant_is_zero(g2):
    d = derivative(constant_field(g2, 2.0), 1)
    assert np.max(np.abs(d.values)) < 1e-12


def test_derivative_linearity(g2, rng):
    f = random_band_limited(g2, rng, 8)
    h = random_band_limited(g2, rng, 8)
    lhs = derivative(Field(g2, f.values + h.values * 2.0), 0).values
    rhs = derivative(f, 0).values + 2.0 * derivative(h, 0).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_derivative_rejects_bad_axis(g2):
    f = constant_field(g2, 1.0)
    with pytest.raises((ValueError, IndexError)):
        derivative(f, 2)


def test_nyquist_killed_on_odd_orders():
    g = TorusGrid(2, 8)
    x = g.coords()[0]
    # cos(4x) is pure Nyquist at n = 8; its spectral derivative must be
    # identically zero for the result to stay real
    d = derivative(Field(g, np.cos(4 * x)), 0)
    assert np.max(np.abs(d.values)) < 1e-12
    d2 = derivative(Field(g, np.cos(4 * x)), 0, order=2)
    assert np.max(np.abs(d2.values + 16 * np.cos(4 * x))) < 1e-11


def test_div_grad_is_laplacian(g2, rng):
    f = random_band_limited(g2, rng, 9)
    lhs = divergence(gradient(f)).values
    rhs = laplacian(f).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_laplacian_eigenfunction(g2):
    x, y = g2.coords()
    f = Field(g2, np.sin(x) * np.sin(y))
    assert np.max(np.abs(laplacian(f).values + 2.0 * f.values)) < 1e-12


def test_biharmonic_eigenfunction(g2):
    x = g2.coords()[0]
    f = Field(g2, np.cos(x))
    # k^4 weights amplify transform roundoff by ~(n/2)^4
    assert np.max(np.abs(biharmonic(f).values - np.cos(x))) < 1e-10


def test_biharmonic_is_laplacian_squared(g2, rng):
    f = random_band_limited(g2, rng, 8)
    lhs = biharmonic(f).values
    rhs = laplacian(laplacian(f)).values
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_integral_of_derivative_vanishes(g2, rng):
    f = random_band_limited(g2, rng, 9)
    assert abs(integral(laplacian(f))) < 1e-12
    assert abs(integral(divergence(gradient(f)))) < 1e-12


# ---------------------------------------------------------------------------
# dealiasing


def test_dealias_zeroes_high_modes(g2):
    x = g2.coords()[0]
    cut = g2.dealias_cutoff  # 10 at n = 32
    f = Field(g2, np.cos(cut * x) + np.cos((cut + 1) * x))
    kept = dealias(f).values
    assert np.max(np.abs(kept - np.cos(cut * x))) < 1e-12


def test_dealias_idempotent(g2, rng):
    f = random_band_limited(g2, rng, 15)
    once = dealias(f).values
    twice = dealias(dealias(f)).values
    assert np.max(np.abs(twice - once)) <= 1e-14 * np.max(np.abs(once))


def test_dealiased_product_removes_alias(g2):
    # cos(10x)^2 = (1 + cos 20x)/2; k = 20 aliases to -12 on n = 32 samples
    # and sits outside the kept band, so the dealiased square is exactly 1/2
    x = g2.coords()[0]
    f = Field(g2, np.cos(10 * x))
    sq = dealias(Field(g2, f.values * f.values))
    assert np.max(np.abs(sq.values - 0.5)) < 1e-12


# ---------------------------------------------------------------------------
# Leray projection


def test_leray_kills_gradients(g2, rng):
    f = random_band_limited(g2, rng, 9)
    v = leray_project(gradient(f))
    assert max(np.max(np.abs(c.values)) for c in v) < 1e-12


def test_leray_fixes_divergence_free(g2, rng):
    psi = random_band_limited(g2, rng, 9)
    v = vec_from(g2, derivative(psi, 1).values, -derivative(psi, 0).values)
    pv = leray_project(v)
    for a, b in zip(v, pv):
        assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_leray_idempotent_and_solenoidal(g2, rng):
    v = vec_from(
        g2,
        random_band_limited(g2, rng, 9).values,
        random_band_limited(g2, rng, 9).values,
    )
    pv = leray_project(v)
    ppv = leray_project(pv)
    assert np.max(np.abs(divergence(pv).values)) < 1e-11
    for a, b in zip(pv, ppv):
        assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_leray_preserves_mean_flow(g2):
    v = vec_from(g2, np.full(g2.shape, 1.25), np.full(g2.shape, -0.5))
    pv = leray_project(v)
    assert integral(pv[0]) == pytest.approx(1.25 * g2.volume)
    assert integral(pv[1]) == pytest.approx(-0.5 * g2.volume)


# ---------------------------------------------------------------------------
# norms, quadrature, band-limited noise


def test_integral_constant(g2):
    assert integral(constant_field(g2, 2.0)) == pytest.approx(2.0 * (2 * np.pi) ** 2)


def test_l2_norm_sine(g2):
    x = g2.coords()[0]
    # int sin^2 x over [0, 2pi)^2 = 2 pi^2
    assert l2_norm(Field(g2, np.sin(x))) == pytest.approx(np.sqrt(2 * np.pi**2))


def test_hs_norm_matches_l2_at_zero(g2, rng):
    f = random_band_limited(g2, rng, 9)
    assert hs_norm(f, 0) == pytest.approx(l2_norm(f), rel=1e-12)


def test_hs_norm_constant(g2):
    assert hs_norm(constant_field(g2, -3.0), 5) == pytest.approx(3.0 * 2 * np.pi)


def test_hs_norm_sine_weights(g2):
    x = g2.coords()[0]
    f = Field(g2, np.sin(x))
    # coefficients 1/2 at k = (+-1, 0): ||f||_s^2 = (2pi)^2 * 2^s * (1/4 + 1/4)
    for s in (0, 1, 2, 3):
        expect = np.sqrt((2 * np.pi) ** 2 * 2**s * 0.5)
        assert hs_norm(f, s) == pytest.approx(expect, rel=1e-12)


def test_hs_norm_rejects_negative_index(g2):
    with pytest.raises(ValueError):
        hs_norm(constant_field(g2, 1.0), -1)


def test_parseval(g2, rng):
    f = random_band_limited(g2, rng, 10)
    coeffs = np.fft.fftn(f.values) / g2.n**2
    spectral_sum = g2.volume * np.sum(np.abs(coeffs) ** 2)
    assert l2_norm(f) ** 2 == pytest.approx(spectral_sum, rel=1e-12)


def test_refine_interpolates_exactly(g2):
    x = g2.coords()[0]
    f = Field(g2, np.sin(3 * x) + 0.2 * np.cos(5 * x))
    fine = refine(f, size=2 * g2.n)
    xf = np.arange(2 * g2.n)[:, None] * np.pi / g2.n
    assert np.max(np.abs(fine - (np.sin(3 * xf) + 0.2 * np.cos(5 * xf)))) < 1e-12

    # modes with negative and positive k on axis 0, and a Nyquist-plane
    # mode, which refine splits evenly between +n/2 and -n/2
    h = g2.n // 2

    def sample(x, y):
        return (
            np.sin(3 * x + 2 * y)
            + 0.2 * np.cos(-5 * x + 3 * y)
            + 0.1 * np.sin(-x - 4 * y + 0.3)
            + 0.05 * np.cos(h * x) * np.cos(2 * y)
        )

    fine = refine(Field(g2, sample(*g2.coords())), size=2 * g2.n)
    xf = np.arange(2 * g2.n) * np.pi / g2.n
    want = sample(*np.meshgrid(xf, xf, indexing="ij"))
    assert np.max(np.abs(fine - want)) < 1e-12


def _refine_reference(f, nf):
    """irfftn of the zero-padded half spectrum, the Nyquist plane split
    evenly, on the grid of n = nf."""
    g = f.grid
    h = g.n // 2
    fh = np.fft.rfftn(f.values)
    fh[..., h] *= 0.5
    big = np.zeros(TorusGrid(2, nf).rshape, dtype=complex)
    fh[h] *= 0.5
    big[: h + 1, : h + 1] = fh[: h + 1]
    big[-h:, : h + 1] = fh[h:]
    return np.fft.irfftn(big, s=(nf,) * 2, axes=(0, 1)) * (nf / g.n) ** 2


@pytest.mark.parametrize("varying", [1, 2])
@pytest.mark.parametrize("factor", [2, 3])
def test_refine_stack_matches_single_field_bit_for_bit(varying, factor, rng):
    # fields that vary along x only or along both axes
    g = TorusGrid(2, 16)
    h = g.n // 2
    x, y = g.coords()
    fields = [
        Field(g, _along(random_band_limited(g, rng, h, zero_mean=False).values, varying))
        for _ in range(4)
    ]
    # Nyquist content on every axis the fields vary along
    nyq = np.cos(h * x)
    if varying == 2:
        nyq = nyq * (1.0 + 0.5 * np.cos(h * y))
    fields.append(Field(g, fields[0].values + nyq))
    size = factor * g.n
    stack = refine(fields, size=size)
    assert stack.shape == (len(fields), size, size)
    for f, slot in zip(fields, stack):
        single = refine(f, size=size)
        assert np.array_equal(slot, single)
        assert np.array_equal(single, _refine_reference(f, size))


@pytest.mark.parametrize("size", [24, 28, 48])
def test_refine_reads_half_and_band_spectra(size, rng):
    # fields match the zero-padded oracle on any even fine size; band
    # spectra, whose column pass runs on the band columns only, agree to
    # rounding
    g = TorusGrid(2, 16)
    h = g.n // 2
    x, y = g.coords()
    band_fields = [random_band_limited(g, rng, g.dealias_cutoff, zero_mean=False) for _ in range(3)]
    nyq = Field(g, band_fields[0].values + np.cos(h * x) * (1.0 + 0.5 * np.cos(h * y)))
    fields = [*band_fields, nyq]
    from_fields = refine(fields, size=size)
    assert from_fields.shape == (len(fields), size, size)
    for f, slot in zip(fields, from_fields):
        assert np.array_equal(_bits(slot), _bits(_refine_reference(f, size)))

    k = len(band_fields)
    band = batch_rfft(
        g, [f.values for f in band_fields], out=np.empty((k, *g.bshape), dtype=complex)
    )
    out = np.full((k, size, size), np.nan)
    work = np.full(refine_work_size(g, k, size=size), np.nan, dtype=complex)
    got = refine(band, size=size, out=out, work=work)
    assert got is out
    np.testing.assert_allclose(got, from_fields[:k], rtol=0, atol=1e-13)
    assert np.array_equal(_bits(refine(band, size=size)), _bits(got))


def test_refine_spectra_validation():
    g = TorusGrid(2, 16)
    band = np.zeros((2, *g.bshape), dtype=complex)
    with pytest.raises(ValueError, match="size"):
        refine(band, size=16)
    with pytest.raises(ValueError, match="size"):
        refine(band, size=25)
    with pytest.raises(ValueError, match="columns"):
        refine(np.zeros((1, 16, 16), dtype=complex), size=24)
    with pytest.raises(ValueError, match="share one shape"):
        refine([band[0], np.zeros(g.rshape, dtype=complex)], size=24)
    with pytest.raises(ValueError, match="share a grid"):
        refine([constant_field(g, 1.0), band[0]], size=24)


def test_refine_rejects_half_spectra(rng):
    # a sequence of spectra is read as band spectra only: the Nyquist split
    # of a half spectrum belongs to the Field path
    g = TorusGrid(2, 16)
    f = random_band_limited(g, rng, g.dealias_cutoff)
    half = batch_rfft(g, [f.values, f.values])
    for spectra in (half, list(half)):
        with pytest.raises(ValueError, match=rf"has {g.dealias_cutoff + 1} columns, got 9"):
            refine(spectra, size=24)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


@pytest.mark.parametrize("varying", [1, 2])
def test_refine_result_survives_the_next_call(varying, rng):
    # the allocating call owns its result; the buffered one fills the
    # caller's buffers with the same bits, for fields that vary along x
    # only and along both axes
    g = TorusGrid(2, 16)
    f = Field(g, _along(random_band_limited(g, rng, 7, zero_mean=False).values, varying))
    h = Field(g, _along(random_band_limited(g, rng, 7).values, varying))
    first = refine([f, h])
    kept = first.copy()
    second = refine([h, f])
    assert np.array_equal(_bits(first), _bits(kept))
    assert not np.shares_memory(first, second)
    assert np.array_equal(_bits(second[::-1]), _bits(first))
    out = np.empty_like(first)
    work = np.full(refine_work_size(g, 2), np.nan, dtype=complex)
    assert refine([f, h], out=out, work=work) is out
    assert np.array_equal(_bits(out), _bits(first))


@pytest.mark.parametrize("n", [16, 32, 64, 128])
@pytest.mark.parametrize("k", [2, 5])
def test_band_pruned_transforms_match_full_transforms_bit_for_bit(n, k, rng):
    # a work stack of 3 slots takes 2 arrays whole and 5 in chunks; the
    # oracle is rfftn / irfftn of each array with the 2/3 truncation, whose
    # band columns the band layout holds
    g = TorusGrid(2, n)
    cut = g.dealias_cutoff
    arrs = rng.standard_normal((k, *g.shape))
    work = np.full((3, *g.rshape), np.nan, dtype=complex)
    full = np.stack([np.fft.rfftn(a) for a in arrs])
    full[..., cut + 1 :] = 0.0
    full[..., cut + 1 : n - cut, :] = 0.0
    band = np.ascontiguousarray(full[..., : cut + 1])
    assert band.shape[1:] == g.bshape
    out = np.full((k, *g.bshape), np.nan, dtype=complex)
    got = batch_rfft(g, arrs, out=out, work=work)
    assert got is out
    assert np.array_equal(_bits(got), _bits(band))
    kept = rdealias_mask(g)[..., : cut + 1]
    assert np.array_equal(got == 0, np.broadcast_to(~kept, got.shape))
    work[:] = np.nan
    back = batch_irfft(g, band, work=work)
    want = np.stack([np.fft.irfftn(h, s=g.shape, axes=(0, 1)) for h in full])
    assert np.array_equal(_bits(back), _bits(want))


def test_one_slot_cache_keeps_one_value_per_name(monkeypatch):
    monkeypatch.setattr(spectral_module, "_SLOTS", {})
    builds = []

    def build(tag):
        builds.append(tag)
        return [tag]

    a = _one_slot("test.a", 1, lambda: build("a1"))
    assert _one_slot("test.a", 1, lambda: build("again")) is a
    b = _one_slot("test.b", 1, lambda: build("b1"))
    assert b is not a and _one_slot("test.a", 1, lambda: build("again")) is a
    a2 = _one_slot("test.a", 2, lambda: build("a2"))
    assert a2 == ["a2"] and a2 is not a
    assert _one_slot("test.a", 2, lambda: build("again")) is a2
    # the slot holds the newest key only
    assert _one_slot("test.a", 1, lambda: build("a1 again")) == ["a1 again"]
    assert _one_slot("test.b", 1, lambda: build("again")) is b
    assert builds == ["a1", "b1", "a2", "a1 again"]


def test_refine_stack_validation(g2):
    with pytest.raises(ValueError):
        refine([])
    with pytest.raises(ValueError):
        refine([constant_field(g2, 1.0), constant_field(TorusGrid(2, 16), 1.0)])
    with pytest.raises(ValueError):
        refine(constant_field(g2, 1.0), size=g2.n)


def test_random_band_limited_properties(g2, rng):
    f = random_band_limited(g2, rng, 5)
    fh = np.fft.fftn(f.values)
    kx, ky = full_wavenumbers(g2)
    outside = (np.abs(kx) > 5) | (np.abs(ky) > 5)
    assert np.max(np.abs(fh[outside])) < 1e-9
    assert abs(integral(f)) < 1e-12


def _random_band_limited_fftn(grid, rng, kmax, zero_mean=True):
    """The full-layout formula: the real part of the inverse full transform
    of the masked, Gaussian-weighted draw."""
    spec = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    k = full_wavenumbers(grid)
    keep = np.ones(grid.shape, dtype=bool)
    for ka in k:
        keep &= np.abs(ka) <= kmax
    k2 = sum(ka**2 for ka in k)
    spec = np.where(keep, spec * np.exp(-k2 / (2.0 * kmax)), 0.0)
    if zero_mean:
        spec[(0,) * grid.dim] = 0.0
    return np.fft.ifftn(spec).real


@pytest.mark.parametrize("dim,n", [(2, 32), (2, 16)])
@pytest.mark.parametrize("zero_mean", [True, False])
def test_random_band_limited_matches_full_layout_formula(dim, n, zero_mean):
    g = TorusGrid(dim, n)
    for kmax in (1, 4, n // 2 - 1, n // 2, n):
        want = _random_band_limited_fftn(g, np.random.default_rng(kmax), kmax, zero_mean)
        got = random_band_limited(g, np.random.default_rng(kmax), kmax, zero_mean).values
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_no_full_spectrum_transform(g2, rng, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("full-spectrum transform")

    u0, phi0 = initial_from_preset("taylor_green_bubble", g2)
    monkeypatch.setattr(np.fft, "fftn", forbidden)
    monkeypatch.setattr(np.fft, "ifftn", forbidden)

    f = random_band_limited(g2, rng, 9)
    h = random_band_limited(g2, rng, 9, zero_mean=False)
    divergence(VectorField((f, h)))
    integral(f)
    l2_norm(f)
    hs_norm(f, 3)
    refine(f)
    sc = well_prepared_initial(u0, phi0, 0.2, 0.1, 0, ModelKind.CH)
    integral(sc.rho)
    integral(sc.q)
    si = IncompressibleState(u0, phi0, ModelKind.CH)
    integral(si.phi)
    divergence(si.u)
