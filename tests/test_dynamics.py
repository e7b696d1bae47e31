import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from torusflow.constitutive import Constitutive, ModelKind
from torusflow.dynamics import (
    CompressibleState,
    IncompressibleState,
    _leray_hat,
    initial_from_preset,
    make_compressible,
    primitives,
    rhs_compressible_hat,
    rhs_incompressible_hat,
    well_prepared_initial,
)
from torusflow.errors import NumericsError, VacuumError
from torusflow.spectral import (
    Field,
    TorusGrid,
    VectorField,
    batch_irfft,
    batch_rfft,
    divergence,
    hs_norm,
    integral,
    random_band_limited,
)

from field_ops import constant_field, dealias, gradient, laplacian, leray_project


def div_free_noise(g, rng, kmax=5):
    v = VectorField(
        tuple(random_band_limited(g, rng, kmax) for _ in range(g.dim))
    )
    return leray_project(v)


def vec(g, arrays):
    return VectorField(tuple(Field(g, a) for a in arrays))


# the physics checks read the kernels' tendencies in physical space:
# batch_rfft, the band-layout kernel, batch_irfft


def band_rfft(g, arrays):
    """The 2/3-truncated band stack of arrays: batch_rfft into a band ``out``."""
    out = np.empty((len(arrays), *g.bshape), dtype=complex)
    return batch_rfft(g, arrays, out=out)


def compressible_tendency(s, c):
    g = s.grid
    zh = band_rfft(g, s.as_arrays())
    t = batch_irfft(g, rhs_compressible_hat(g, s.eps, zh, c, s.model))
    return SimpleNamespace(drho=t[0], dmom=t[1:-1], dq=t[-1])


def incompressible_tendency(s, c):
    g = s.grid
    zh = band_rfft(g, s.as_arrays())
    t = batch_irfft(g, rhs_incompressible_hat(g, zh, c, s.model))
    return SimpleNamespace(du=t[:-1], dphi=t[-1])


def uniform_state(g, eps, phi0, model):
    rho = constant_field(g, 1.0)
    u = VectorField(tuple(constant_field(g, 0.0) for _ in range(g.dim)))
    return make_compressible(eps, rho, u, constant_field(g, phi0), model)


# ---------------------------------------------------------------------------
# capillary force: at uniform density and rest, the momentum tendency of
# the compressible kernel is the dealiased capillary term -Lap(phi) grad(phi)


def capillary_tendency(g, phi):
    rest = VectorField(tuple(constant_field(g, 0.0) for _ in range(g.dim)))
    s = make_compressible(0.5, constant_field(g, 1.0), rest, phi, ModelKind.CH)
    return compressible_tendency(s, Constitutive()).dmom


def test_capillary_constant_phase(g2):
    f = capillary_tendency(g2, constant_field(g2, 0.7))
    assert np.max(np.abs(f)) < 1e-13


def test_capillary_single_mode(g2):
    # phi = cos x: -Lap(phi) grad(phi) = (-cos(x) sin(x), 0)
    x = g2.coords()[0]
    f = capillary_tendency(g2, Field(g2, np.cos(x)))
    assert np.max(np.abs(f[0] + np.cos(x) * np.sin(x))) < 1e-12
    assert np.max(np.abs(f[1])) < 1e-12


# ---------------------------------------------------------------------------
# primitive recovery


def test_primitives_divides_density(g2):
    rho = constant_field(g2, 2.0)
    u = VectorField((constant_field(g2, 1.0), constant_field(g2, 0.0)))
    phi = constant_field(g2, 0.5)
    s = make_compressible(0.2, rho, u, phi, ModelKind.CH)
    assert np.max(np.abs(s.mom[0].values - 2.0)) < 1e-14
    u2, phi2 = primitives(s)
    assert np.max(np.abs(u2[0].values - 1.0)) < 1e-14
    assert np.max(np.abs(u2[1].values)) < 1e-14
    assert np.max(np.abs(phi2.values - 0.5)) < 1e-14


def test_primitives_round_trip(g2, rng):
    rho = Field(g2, 1.0 + 0.3 * random_band_limited(g2, rng, 4).values)
    u = div_free_noise(g2, rng, 4)
    phi = random_band_limited(g2, rng, 4)
    s = make_compressible(0.2, rho, u, phi, ModelKind.CH)
    u2, phi2 = primitives(s)
    for a, b in zip(u, u2):
        assert np.max(np.abs(a.values - b.values)) < 1e-13
    assert np.max(np.abs(phi.values - phi2.values)) < 1e-13


def test_vacuum_rejected(g2):
    rho = constant_field(g2, 0.0)
    u = VectorField((constant_field(g2, 0.0), constant_field(g2, 0.0)))
    with pytest.raises(VacuumError):
        make_compressible(0.2, rho, u, constant_field(g2, 0.0), ModelKind.CH)
    # a state built directly: primitives refuses its negative density
    x = g2.coords()[0]
    s = CompressibleState(1.0, Field(g2, 1.0 + 2.0 * np.cos(x)), u, rho, ModelKind.CH)
    with pytest.raises(VacuumError):
        primitives(s)


@pytest.mark.parametrize(
    "dip,reason",
    [
        (-0.5, "rhs_compressible_hat: density reached -5.000000e-01 at grid index (3, 5)"),
        (np.nan, "non-finite density in rhs_compressible_hat"),
    ],
    ids=["vacuum", "non_finite"],
)
def test_kernel_failure_reason(g2, dip, reason):
    # the reason lands in sweep_errors.csv and on stderr: it names the
    # kernel and prints the grid index as plain ints.  The kernel takes a
    # dealiased stack, so the density is band-limited, with its minimum
    # (dip, or NaN everywhere) at grid index (3, 5)
    x, y = g2.coords()
    rho = 1.0 - 0.5 * (1.0 - dip) * (np.cos(x - x[3, 0]) + np.cos(y - y[0, 5]))
    zero = np.zeros(g2.shape)
    zh = band_rfft(g2, [rho, zero, zero, zero])
    with pytest.raises(NumericsError) as info:
        rhs_compressible_hat(g2, 0.5, zh, Constitutive(), ModelKind.CH)
    assert str(info.value) == reason


def test_state_validation(g2):
    with pytest.raises(ValueError):
        CompressibleState(
            -0.1,
            constant_field(g2, 1.0),
            VectorField((constant_field(g2, 0.0), constant_field(g2, 0.0))),
            constant_field(g2, 0.0),
            ModelKind.CH,
        )


# ---------------------------------------------------------------------------
# compressible tendencies


def test_uniform_rest_state_is_steady_ch(g2):
    s = uniform_state(g2, 0.2, 0.5, ModelKind.CH)
    t = compressible_tendency(s, Constitutive())
    assert np.max(np.abs(t.drho)) < 1e-12
    assert np.max(np.abs(t.dmom)) < 1e-11
    assert np.max(np.abs(t.dq)) < 1e-11


def test_uniform_rest_state_relaxes_ac(g2):
    s = uniform_state(g2, 0.2, 0.5, ModelKind.AC)
    t = compressible_tendency(s, Constitutive())
    # dq = -mu = phi - phi^3 pointwise at rho = 1, u = 0
    assert np.max(np.abs(t.dq - (0.5 - 0.125))) < 1e-12
    assert np.max(np.abs(t.drho)) < 1e-12


@pytest.mark.parametrize("phi0", [-1.0, 1.0])
def test_pure_phase_equilibria(g2, phi0):
    for model in ModelKind:
        s = uniform_state(g2, 0.3, phi0, model)
        t = compressible_tendency(s, Constitutive())
        assert np.max(np.abs(t.drho)) < 1e-12
        assert np.max(np.abs(t.dmom)) < 1e-11
        assert np.max(np.abs(t.dq)) < 1e-11


def test_pressure_gradient_scaling(g2, rng):
    # rest state with rho = 1 + delta cos x: dm = -P'(rho) rho_x / eps^2
    x = g2.coords()[0]
    delta = 1e-3
    rho = Field(g2, 1.0 + delta * np.cos(x))
    u = VectorField((constant_field(g2, 0.0),) * 2)
    phi = constant_field(g2, 1.0)
    for eps in (0.5, 0.1):
        s = make_compressible(eps, rho, u, phi, ModelKind.CH)
        t = compressible_tendency(s, Constitutive(gamma=2.0))
        # P = rho^2: -dP/dx = 2 rho delta sin x; mu-gradient vanishes at phi=1
        expect = 2.0 * (1.0 + delta * np.cos(x)) * delta * np.sin(x) / eps**2
        assert np.max(np.abs(t.dmom[0] - expect)) < 1e-9 / eps**2


def test_mass_and_phase_tendencies_have_zero_mean(g2, rng):
    rho = Field(g2, 1.0 + 0.2 * random_band_limited(g2, rng, 4).values)
    u = div_free_noise(g2, rng, 4)
    phi = random_band_limited(g2, rng, 4)
    s = make_compressible(0.2, rho, u, phi, ModelKind.CH)
    t = compressible_tendency(s, Constitutive())
    # drho = -div m and the conserved-phase dq are exact divergences
    assert abs(integral(Field(g2, t.drho))) < 1e-12
    assert abs(integral(Field(g2, t.dq))) < 1e-12


def test_compressible_matches_incompressible_at_unit_density(g2, rng):
    # at rho = 1 with div-free band-limited u the conservative fluxes
    # reduce to advective form, so the Leray-projected momentum tendency
    # must agree with the incompressible right-hand side
    u = div_free_noise(g2, rng, 5)
    phi = random_band_limited(g2, rng, 5)
    c = Constitutive()
    for model in ModelKind:
        s = make_compressible(0.2, constant_field(g2, 1.0), u, phi, model)
        tc = compressible_tendency(s, c)
        ti = incompressible_tendency(IncompressibleState(u, phi, model), c)
        proj = leray_project(vec(g2, tc.dmom))
        for a, b in zip(proj, ti.du):
            assert np.max(np.abs(a.values - b)) < 1e-11
        assert np.max(np.abs(tc.dq - ti.dphi)) < 1e-11
        assert np.max(np.abs(tc.drho)) < 1e-12


# ---------------------------------------------------------------------------
# incompressible tendencies


def test_incompressible_rest_equilibrium(g2):
    u = VectorField((constant_field(g2, 0.0), constant_field(g2, 0.0)))
    for model in ModelKind:
        for phi0 in (-1.0, 1.0):
            s = IncompressibleState(u, constant_field(g2, phi0), model)
            t = incompressible_tendency(s, Constitutive())
            assert np.max(np.abs(t.du)) < 1e-12
            assert np.max(np.abs(t.dphi)) < 1e-12


def test_incompressible_ac_relaxation(g2):
    u = VectorField((constant_field(g2, 0.0), constant_field(g2, 0.0)))
    s = IncompressibleState(u, constant_field(g2, 0.5), ModelKind.AC)
    t = incompressible_tendency(s, Constitutive())
    assert np.max(np.abs(t.dphi - 0.375)) < 1e-13


def test_taylor_green_decays_by_viscosity(g2):
    # u = a(sin x cos y, -cos x sin y) has (u.grad)u a pure gradient and
    # Lap u = -2u, so with phi = 0 the projected tendency is -2 nu u
    x, y = g2.coords()
    a = 0.3
    u = VectorField((
        Field(g2, a * np.sin(x) * np.cos(y)),
        Field(g2, -a * np.cos(x) * np.sin(y)),
    ))
    c = Constitutive(nu0=0.25)
    s = IncompressibleState(u, constant_field(g2, 0.0), ModelKind.CH)
    t = incompressible_tendency(s, c)
    for du, ui in zip(t.du, u):
        assert np.max(np.abs(du + 2.0 * 0.25 * ui.values)) < 1e-12
    assert np.max(np.abs(t.dphi)) < 1e-12


def test_incompressible_tendency_divergence_free(g2, rng):
    u = div_free_noise(g2, rng, 6)
    phi = random_band_limited(g2, rng, 6)
    for model in ModelKind:
        t = incompressible_tendency(IncompressibleState(u, phi, model), Constitutive())
        assert np.max(np.abs(divergence(vec(g2, t.du)).values)) < 1e-10


def test_leray_hat_matches_the_field_oracle(g2, rng):
    # the projection rhs_incompressible_hat applies, on a band stack with a
    # mean flow, against the half-layout oracle
    f, h = (random_band_limited(g2, rng, 8, zero_mean=False) for _ in range(2))
    tmp = np.empty((3, *g2.bshape), dtype=complex)
    got = batch_irfft(g2, _leray_hat(g2, band_rfft(g2, [f.values, h.values]), tmp))
    for a, b in zip(got, leray_project(VectorField((f, h)))):
        assert np.max(np.abs(a - b.values)) < 1e-12


def test_incompressible_phase_mass_conserved_ch(g2, rng):
    u = div_free_noise(g2, rng, 6)
    phi = random_band_limited(g2, rng, 6)
    t = incompressible_tendency(IncompressibleState(u, phi, ModelKind.CH), Constitutive())
    assert abs(integral(Field(g2, t.dphi))) < 1e-12


def test_affine_viscosity_enters_momentum(g2, rng):
    u = div_free_noise(g2, rng, 4)
    phi = random_band_limited(g2, rng, 4)
    s = IncompressibleState(u, phi, ModelKind.CH)
    t_const = incompressible_tendency(s, Constitutive(nu0=0.1))
    t_affine = incompressible_tendency(s, Constitutive(nu0=0.1, nu_phi=0.5))
    diff = np.max(np.abs(t_const.du - t_affine.du))
    assert diff > 1e-9  # the phi^2-dependent part must actually act


def test_affine_viscosity_at_uniform_phase_matches_constant(g2):
    # at rho = 1 and uniform phi0 the affine law is the constant law with
    # nu0 + nu_phi phi0^2 and eta0 + eta_phi phi0^2, so the transformed
    # affine branch must reproduce the spectral constant one
    x, y = g2.coords()
    u = VectorField((
        Field(g2, np.sin(x) * np.cos(y) + 0.3 * np.sin(2 * x)),
        Field(g2, -np.cos(x) * np.sin(y) + 0.2 * np.cos(y)),
    ))
    phi0 = 0.6
    s = make_compressible(
        0.3, constant_field(g2, 1.0), u, constant_field(g2, phi0), ModelKind.AC
    )
    zh = band_rfft(g2, s.as_arrays())
    affine = Constitutive(
        nu0=0.1, nu_rho=0.3, nu_phi=0.5, eta0=0.2, eta_rho=0.7, eta_phi=0.4
    )
    const = Constitutive(nu0=0.1 + 0.5 * phi0**2, eta0=0.2 + 0.4 * phi0**2)
    mom = slice(1, 1 + g2.dim)
    t_affine = rhs_compressible_hat(g2, s.eps, zh, affine, s.model)[mom]
    t_const = rhs_compressible_hat(g2, s.eps, zh, const, s.model)[mom]
    scale = np.max(np.abs(t_const))
    assert np.max(np.abs(t_affine - t_const)) <= 1e-12 * scale
    # the viscous part is a sizeable share of the tendency compared here
    t_base = rhs_compressible_hat(g2, s.eps, zh, Constitutive(nu0=0.1, eta0=0.2), s.model)
    assert np.max(np.abs(t_base[mom] - t_const)) > 1e-2 * scale


# ---------------------------------------------------------------------------
# the half-spectrum kernels share one workspace; what they return is theirs


def _compressible_stacks(g):
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    a = well_prepared_initial(u0, phi0, 0.2, 0.1, 1, ModelKind.CH)
    b = well_prepared_initial(u0, phi0, 0.1, 0.3, 2, ModelKind.CH)
    return band_rfft(g, a.as_arrays()), band_rfft(g, b.as_arrays())


def test_compressible_kernel_result_survives_the_next_call(g2):
    c = Constitutive()
    za, zb = _compressible_stacks(g2)
    za_in = za.copy()
    first = rhs_compressible_hat(g2, 0.2, za, c, ModelKind.CH)
    kept = first.copy()
    second = rhs_compressible_hat(g2, 0.1, zb, c, ModelKind.CH)
    assert not np.allclose(second, kept)
    assert np.array_equal(first, kept)
    assert np.array_equal(za, za_in)
    assert np.array_equal(first, rhs_compressible_hat(g2, 0.2, za, c, ModelKind.CH))


def test_incompressible_kernel_result_survives_the_next_call(g2):
    c = Constitutive()
    za = band_rfft(g2, IncompressibleState(
        *initial_from_preset("taylor_green_bubble", g2), ModelKind.CH).as_arrays())
    zb = band_rfft(g2, IncompressibleState(
        *initial_from_preset("single_mode", g2), ModelKind.CH).as_arrays())
    za_in = za.copy()
    first = rhs_incompressible_hat(g2, za, c, ModelKind.CH)
    kept = first.copy()
    second = rhs_incompressible_hat(g2, zb, c, ModelKind.CH)
    assert not np.allclose(second, kept)
    assert np.array_equal(first, kept)
    assert np.array_equal(za, za_in)
    assert np.array_equal(first, rhs_incompressible_hat(g2, za, c, ModelKind.CH))


def test_compressible_kernel_allocates_little_beyond_its_tendency():
    g = TorusGrid(2, 64)
    c = Constitutive()
    za, _ = _compressible_stacks(g)
    rhs_compressible_hat(g, 0.2, za, c, ModelKind.CH)  # builds the workspace
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        t = rhs_compressible_hat(g, 0.2, za, c, ModelKind.CH)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak <= 2 * t.nbytes, (peak, t.nbytes)


def test_incompressible_kernel_with_out_allocates_no_band_array():
    # the symbols it reads, the grid's band tables among them, share the
    # spectra's dtype, so no ufunc makes a cast copy of a band array
    g = TorusGrid(2, 64)
    s = IncompressibleState(*initial_from_preset("taylor_green_bubble", g), ModelKind.CH)
    z = band_rfft(g, s.as_arrays())
    out = np.empty_like(z)
    rhs_incompressible_hat(g, z, Constitutive(), ModelKind.CH, out)  # builds the workspace
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        rhs_incompressible_hat(g, z, Constitutive(), ModelKind.CH, out)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak < z[0].nbytes, (peak, z[0].nbytes)


# ---------------------------------------------------------------------------
# prepared initial data


def _pressure_oracle(u0, phi0, c):
    """pi0 from the Field operators: the mean-zero solution of
    Lap pi0 = div(-(u0.grad) u0 - Lap(phi0) grad(phi0) + nu(1, phi0) Lap u0),
    cut to the 2/3 band."""
    g = u0.grid
    lap_phi, grad_phi = laplacian(phi0), gradient(phi0)
    nu = c.viscosity_nu(1.0, phi0.values)
    force = []
    for i, ui in enumerate(u0):
        grad_ui = gradient(ui)
        adv = sum(uj.values * dj.values for uj, dj in zip(u0, grad_ui))
        force.append(Field(g, nu * laplacian(ui).values - lap_phi.values * grad_phi[i].values - adv))
    rhs = divergence(VectorField(tuple(dealias(f) for f in force)))
    pih = g.rfft(rhs.values) / -g._rk2safe
    pih[0, 0] = 0.0
    return g.irfft(pih)


def test_well_prepared_unperturbed(g2):
    # kappa0 = 0 leaves the pressure-balanced state: rho0 - 1 = eps^2 pi0/P'(1)
    # with the primitives (u0, phi0), for the constant and an affine law
    u0, phi0 = initial_from_preset("taylor_green_bubble", g2)
    pis = []
    for c in (Constitutive(), Constitutive(nu_phi=0.5, eta_phi=0.5)):
        pi0 = _pressure_oracle(u0, phi0, c)
        pis.append(pi0)
        assert np.max(np.abs(pi0)) > 0.1
        p1 = float(c.pressure_prime(1.0))
        for eps in (0.2, 0.05):
            s = well_prepared_initial(u0, phi0, eps, 0.0, 0, ModelKind.CH, c)
            assert np.max(np.abs(s.rho.values - 1.0 - eps**2 * pi0 / p1)) < 1e-14
            u, phi = primitives(s)
            for a, b in zip(u, u0):
                assert np.max(np.abs(a.values - b.values)) < 1e-13
            assert np.max(np.abs(phi.values - phi0.values)) < 1e-13
    # the viscous term is solenoidal for the constant law only
    assert np.max(np.abs(pis[1] - pis[0])) > 1e-3


def test_well_prepared_scaling(g2):
    u0, phi0 = initial_from_preset("taylor_green_bubble", g2)
    kappa0 = 0.37
    for eps in (0.4, 0.1):
        s = well_prepared_initial(u0, phi0, eps, kappa0, 3, ModelKind.CH)
        s0 = well_prepared_initial(u0, phi0, eps, 0.0, 3, ModelKind.CH)
        dev = Field(g2, s.rho.values - s0.rho.values)
        assert hs_norm(dev, 3) == pytest.approx(eps**2 * kappa0, rel=1e-10)
        u, phi = primitives(s)
        dphi = Field(g2, phi.values - phi0.values)
        # phi = q/rho picks up an O(eps^2) cross term beyond eps*kappa0*r3
        assert hs_norm(dphi, 3) == pytest.approx(eps * kappa0, rel=0.1)


@pytest.mark.parametrize("c", [Constitutive(), Constitutive(nu_phi=0.5, eta_phi=0.5)],
                         ids=["constant", "affine"])
@pytest.mark.parametrize("model", list(ModelKind))
def test_well_prepared_data_start_without_an_acoustic_layer(g2, model, c):
    # the pressure balances the irrotational part of the momentum tendency
    # up to O(eps^2); at rho = 1 it reads about 2.5 at every eps
    u0, phi0 = initial_from_preset("taylor_green_bubble", g2)

    def irrotational(s):
        dm = vec(g2, compressible_tendency(s, c).dmom)
        return max(
            float(np.max(np.abs(a.values - b.values)))
            for a, b in zip(dm, leray_project(dm))
        )

    unbalanced = make_compressible(0.1, constant_field(g2, 1.0), u0, phi0, model)
    assert irrotational(unbalanced) > 1.0
    eps_list = (0.2, 0.1, 0.05)
    res = [irrotational(well_prepared_initial(u0, phi0, e, 0.0, 0, model, c)) for e in eps_list]
    assert res[0] < 0.1, res
    for e, r in zip(eps_list, res):
        assert r / e**2 == pytest.approx(res[0] / eps_list[0] ** 2, rel=0.05), res


def test_well_prepared_rejects_eps_past_the_low_mach_range(g2):
    # the pressure-balanced density 1 + eps^2 pi0/P'(1) must stay >= 0.75
    # everywhere; past that, runs of the conserved model reach vacuum in
    # their first steps.  The error names the largest eps the data admit
    c = Constitutive()
    u0, phi0 = initial_from_preset("taylor_green_bubble", g2)
    pi0 = _pressure_oracle(u0, phi0, c) / float(c.pressure_prime(1.0))
    limit = math.sqrt(0.25 / -np.min(pi0))
    assert 1.0 < limit < 1.2
    s = well_prepared_initial(u0, phi0, 0.999 * limit, 0.1, 0, ModelKind.CH, c)
    assert np.min(s.rho.values) > 0.7
    with pytest.raises(ValueError, match=rf"admit eps <= {limit:.4g}$"):
        well_prepared_initial(u0, phi0, 1.001 * limit, 0.1, 0, ModelKind.CH, c)
    # the kappa0 perturbation is not part of the rule: make_compressible
    # rejects the vacuum it makes
    with pytest.raises(VacuumError, match="make_compressible"):
        well_prepared_initial(u0, phi0, 0.4, 5000.0, 0, ModelKind.CH, c)
    # single_mode's pressure is small, so eps 2 stays inside the range
    u1, phi1 = initial_from_preset("single_mode", g2)
    well_prepared_initial(u1, phi1, 2.0, 0.1, 0, ModelKind.AC, c)


def test_well_prepared_deterministic(g2):
    u0, phi0 = initial_from_preset("taylor_green_bubble", g2)
    a = well_prepared_initial(u0, phi0, 0.2, 0.1, 7, ModelKind.CH)
    b = well_prepared_initial(u0, phi0, 0.2, 0.1, 7, ModelKind.CH)
    assert np.array_equal(a.rho.values, b.rho.values)
    assert np.array_equal(a.q.values, b.q.values)
    c = well_prepared_initial(u0, phi0, 0.2, 0.1, 8, ModelKind.CH)
    assert not np.array_equal(a.rho.values, c.rho.values)


def test_well_prepared_rejects_divergent_velocity(g2, rng):
    bad = VectorField((random_band_limited(g2, rng, 3), random_band_limited(g2, rng, 3)))
    with pytest.raises(ValueError):
        well_prepared_initial(bad, constant_field(g2, 0.0), 0.2, 0.1, 0, ModelKind.CH)


# ---------------------------------------------------------------------------
# presets


def test_presets_divergence_free_and_band_limited(g2):
    for name in ("taylor_green_bubble", "single_mode"):
        u0, phi0 = initial_from_preset(name, g2)
        assert np.max(np.abs(divergence(u0).values)) < 1e-11
        assert np.max(np.abs(phi0.values)) <= 1.2


def test_preset_unknown_name(g2):
    with pytest.raises(ValueError):
        initial_from_preset("vortex_sheet", g2)


def test_bubble_phase_spans_both_wells(g2):
    _, phi0 = initial_from_preset("taylor_green_bubble", g2)
    assert np.max(phi0.values) > 0.8
    assert np.min(phi0.values) < -0.8
