import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from torusflow.constitutive import Constitutive, ModelKind
from torusflow.dynamics import (
    CompressibleState,
    IncompressibleState,
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
    constant_field,
    divergence,
    hs_norm,
    integral,
    leray_project,
    random_band_limited,
)


def div_free_noise(g, rng, kmax=5):
    v = VectorField(
        tuple(random_band_limited(g, rng, kmax) for _ in range(g.dim))
    )
    return leray_project(v)


def vec(g, arrays):
    return VectorField(tuple(Field(g, a) for a in arrays))


# the physics checks read the kernels' tendencies in physical space:
# batch_rfft, the band-layout kernel, batch_irfft


def compressible_tendency(s, c):
    g = s.grid
    zh = batch_rfft(g, s.as_arrays(), band=True)
    t = batch_irfft(g, rhs_compressible_hat(g, s.eps, zh, c, s.model), band=True)
    return SimpleNamespace(drho=t[0], dmom=t[1:-1], dq=t[-1])


def incompressible_tendency(s, c):
    g = s.grid
    zh = batch_rfft(g, s.as_arrays(), band=True)
    t = batch_irfft(g, rhs_incompressible_hat(g, zh, c, s.model), band=True)
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
    zh = batch_rfft(g2, [rho, zero, zero, zero], band=True)
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
    zh = batch_rfft(g2, s.as_arrays(), band=True)
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
    return batch_rfft(g, a.as_arrays(), band=True), batch_rfft(g, b.as_arrays(), band=True)


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
    za = batch_rfft(g2, IncompressibleState(
        *initial_from_preset("taylor_green_bubble", g2), ModelKind.CH).as_arrays(), band=True)
    zb = batch_rfft(g2, IncompressibleState(
        *initial_from_preset("single_mode", g2), ModelKind.CH).as_arrays(), band=True)
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


# ---------------------------------------------------------------------------
# prepared initial data


def test_well_prepared_unperturbed(g2):
    u0, phi0 = initial_from_preset("taylor_green_bubble", g2)
    s = well_prepared_initial(u0, phi0, 0.2, 0.0, 0, ModelKind.CH)
    assert np.max(np.abs(s.rho.values - 1.0)) < 1e-14
    for m, u in zip(s.mom, u0):
        assert np.max(np.abs(m.values - u.values)) < 1e-13
    assert np.max(np.abs(s.q.values - phi0.values)) < 1e-13


def test_well_prepared_scaling(g2):
    u0, phi0 = initial_from_preset("taylor_green_bubble", g2)
    kappa0 = 0.37
    for eps in (0.4, 0.1):
        s = well_prepared_initial(u0, phi0, eps, kappa0, 3, ModelKind.CH)
        dev = Field(g2, s.rho.values - 1.0)
        assert hs_norm(dev, 3) == pytest.approx(eps**2 * kappa0, rel=1e-10)
        u, phi = primitives(s)
        dphi = Field(g2, phi.values - phi0.values)
        # phi = q/rho picks up an O(eps^2) cross term beyond eps*kappa0*r3
        assert hs_norm(dphi, 3) == pytest.approx(eps * kappa0, rel=0.1)


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
