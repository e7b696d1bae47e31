import math

import numpy as np
import pytest
from scipy.integrate import quad

from torusflow.constitutive import Constitutive, ModelKind
from torusflow.diagnostics import energy_incompressible
from torusflow.dynamics import (
    CompressibleState,
    IncompressibleState,
    make_compressible,
    rhs_compressible_hat,
    rhs_incompressible_hat,
)
from torusflow.errors import VacuumError
from torusflow.spectral import (
    Field,
    VectorField,
    batch_irfft,
    batch_rfft,
)

from field_ops import constant_field, laplacian


def rest(g):
    return VectorField(tuple(constant_field(g, 0.0) for _ in range(g.dim)))


def band_rfft(g, arrays):
    """The 2/3-truncated band stack of arrays: batch_rfft into a band ``out``."""
    out = np.empty((len(arrays), *g.bshape), dtype=complex)
    return batch_rfft(g, arrays, out=out)


def solver_mu(rho, phi):
    """The chemical potential as the compressible kernel evaluates it: with
    u = 0 the Allen-Cahn phase tendency is dq = -mu."""
    g = rho.grid
    s = make_compressible(0.5, rho, rest(g), phi, ModelKind.AC)
    zh = band_rfft(g, s.as_arrays())
    t = rhs_compressible_hat(g, s.eps, zh, Constitutive(), s.model)
    return -batch_irfft(g, t)[-1]


def solver_double_well(g, phi0):
    """(G(phi0), G'(phi0)) of the double well G = (phi^2 - 1)^2 / 4 as the
    solver evaluates them at a uniform phase: the potential energy per unit
    volume, and minus the incompressible Allen-Cahn tendency at rest."""
    s = IncompressibleState(rest(g), constant_field(g, phi0), ModelKind.AC)
    potential = energy_incompressible(s, Constitutive()).potential / g.volume
    zh = band_rfft(g, s.as_arrays())
    dphi = batch_irfft(g, rhs_incompressible_hat(g, zh, Constitutive(), s.model))[-1]
    return potential, -float(np.mean(dphi))


# ---------------------------------------------------------------------------
# double well


def test_double_well_values(g2):
    assert solver_double_well(g2, 1.0)[0] == pytest.approx(0.0)
    assert solver_double_well(g2, -1.0)[0] == pytest.approx(0.0)
    assert solver_double_well(g2, 0.0)[0] == pytest.approx(0.25)
    assert solver_double_well(g2, 1.0)[1] == pytest.approx(0.0)
    assert solver_double_well(g2, -1.0)[1] == pytest.approx(0.0)
    assert solver_double_well(g2, 0.5)[1] == pytest.approx(0.125 - 0.5)


def test_double_well_prime_is_gradient(g2):
    # the energy report's potential and the kernels' phi^3 - phi are one law
    h = 1e-6
    for phi in np.linspace(-2, 2, 41):
        fd = (solver_double_well(g2, phi + h)[0] - solver_double_well(g2, phi - h)[0]) / (2 * h)
        assert abs(fd - solver_double_well(g2, phi)[1]) < 1e-8


# ---------------------------------------------------------------------------
# pressure family


def test_pressure_power_law():
    c = Constitutive(gamma=2.0, pressure_coeff=1.0)
    assert c.pressure(2.0) == pytest.approx(4.0)
    assert c.pressure_prime(2.0) == pytest.approx(4.0)
    assert c.pressure_prime(1.0) == pytest.approx(2.0)
    c3 = Constitutive(gamma=1.4, pressure_coeff=0.5)
    assert c3.pressure(2.0) == pytest.approx(0.5 * 2.0**1.4)


def test_pressure_prime_positive_on_positive_density():
    for gamma in (1.0, 1.4, 2.0, 3.0):
        c = Constitutive(gamma=gamma)
        rho = np.linspace(0.2, 5.0, 50)
        assert np.all(c.pressure_prime(rho) > 0)


def test_omega_normalization():
    # omega(1) = 0; the ODE rho omega' - omega = p forces omega'(1) = p(1)
    h = 1e-6
    for gamma in (1.0, 1.4, 2.0):
        c = Constitutive(gamma=gamma, pressure_coeff=0.7)
        assert c.omega(1.0) == pytest.approx(0.0, abs=1e-14)
        slope = (c.omega(1.0 + h) - c.omega(1.0 - h)) / (2 * h)
        assert slope == pytest.approx(c.pressure(1.0), abs=1e-8)


def test_omega_gamma_two():
    # gamma = 2: omega = rho(rho - 1), so omega(2) = 2
    c = Constitutive(gamma=2.0)
    assert c.omega(2.0) == pytest.approx(2.0, rel=1e-12)
    rho = np.linspace(0.3, 3.0, 20)
    assert np.max(np.abs(c.omega(rho) - rho * (rho - 1.0))) < 1e-12


@pytest.mark.parametrize("gamma,rho0", [(1.4, 2.0), (1.4, 0.5), (2.0, 3.0), (1.0, 2.0)])
def test_omega_against_quadrature(gamma, rho0):
    # rho omega' - omega = p with omega(1) = 0 integrates to
    # omega(rho) = rho * int_1^rho p(s)/s^2 ds
    c = Constitutive(gamma=gamma)
    val, err = quad(lambda s: c.pressure(s) / s**2, 1.0, rho0)
    assert c.omega(rho0) == pytest.approx(rho0 * val, rel=1e-9)


def test_relative_omega_nonnegative_with_equality_at_one():
    # omega is convex, so its Bregman form omega(rho) - p(1)(rho - 1)
    # is nonnegative and vanishes only at rho = 1
    for gamma in (1.4, 2.0):
        c = Constitutive(gamma=gamma)
        rho = np.append(np.linspace(0.2, 5.0, 200), 1.0)
        rel = c.omega(rho) - c.pressure(1.0) * (rho - 1.0)
        assert np.all(rel >= -1e-13)
        assert np.min(rel) == pytest.approx(0.0, abs=1e-13)
        # gamma = 2 closed form: rho(rho-1) - (rho-1) = (rho-1)^2
        if gamma == 2.0:
            assert np.max(np.abs(rel - (rho - 1.0) ** 2)) < 1e-12


def test_legendre_identity():
    # rho omega'(rho) - omega(rho) = p(rho)
    h = 1e-6
    for gamma in (1.0, 1.4, 2.0):
        c = Constitutive(gamma=gamma)
        rho = np.linspace(0.5, 3.0, 11)
        wp = (c.omega(rho + h) - c.omega(rho - h)) / (2 * h)
        assert np.max(np.abs(rho * wp - c.omega(rho) - c.pressure(rho))) < 1e-7


# ---------------------------------------------------------------------------
# viscosities


def test_constant_viscosity_ignores_fields():
    c = Constitutive(nu0=0.3, eta0=0.05)
    rho = np.array([0.5, 1.0, 2.0])
    phi = np.array([-1.0, 0.0, 1.0])
    assert np.all(c.viscosity_nu(rho, phi) == 0.3)
    assert np.all(c.viscosity_eta(rho, phi) == 0.05)


def test_affine_viscosity():
    c = Constitutive(nu0=1.0, nu_rho=0.5, nu_phi=0.2)
    # nu = 1 + 0.5*(rho - 1) + 0.2*phi^2
    assert c.viscosity_nu(1.2, 0.0) == pytest.approx(1.1)
    assert c.viscosity_nu(1.0, 1.0) == pytest.approx(1.2)


def test_affine_viscosity_clamps():
    c = Constitutive(nu0=0.1, nu_rho=10.0, nu_star=1e-3, nu_upper=1.0)
    assert c.viscosity_nu(0.0, 0.0) == pytest.approx(1e-3)  # raw would be -9.9
    assert c.viscosity_nu(5.0, 0.0) == pytest.approx(1.0)  # raw would be 40.1


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(gamma=0.5),
        dict(pressure_coeff=0.0),
        dict(eta_star=2.0, eta_upper=1.0),
        dict(nu_star=0.0),
        dict(nu_star=2.0, nu_upper=1.0),
        dict(nu0=200.0),
        dict(eta0=1e-9),
        dict(nu_phi=math.inf),
        dict(eta_rho=-math.inf),
    ],
)
def test_constitutive_validation(kwargs):
    with pytest.raises(ValueError):
        Constitutive(**kwargs)


# ---------------------------------------------------------------------------
# chemical potential


def test_chemical_potential_at_pure_phase(g2):
    mu = solver_mu(constant_field(g2, 1.0), constant_field(g2, 1.0))
    assert np.max(np.abs(mu)) < 1e-13


def test_chemical_potential_constant_phase(g2):
    mu = solver_mu(constant_field(g2, 2.0), constant_field(g2, 0.5))
    assert np.max(np.abs(mu - (0.125 - 0.5))) < 1e-13


def test_chemical_potential_single_mode(g2):
    # phi = cos x, rho = 1: mu = cos x + dealias(cos^3 x) - cos x
    # cos^3 x = (3 cos x + cos 3x)/4 survives dealiasing intact at n = 32
    x = g2.coords()[0]
    mu = solver_mu(constant_field(g2, 1.0), Field(g2, np.cos(x)))
    expect = 0.75 * np.cos(x) + 0.25 * np.cos(3 * x)
    assert np.max(np.abs(mu - expect)) < 1e-12


def test_chemical_potential_density_scales_curvature(g2):
    x = g2.coords()[0]
    phi = Field(g2, np.cos(x))
    rho = Field(g2, np.full(g2.shape, 4.0))
    mu = solver_mu(rho, phi)
    lap_term = -laplacian(phi).values / 4.0
    expect = lap_term + 0.75 * np.cos(x) + 0.25 * np.cos(3 * x) - np.cos(x)
    assert np.max(np.abs(mu - expect)) < 1e-12


def test_chemical_potential_rejects_vacuum(g2):
    # assembled by hand: make_compressible rejects vacuum before the kernel
    zero = constant_field(g2, 0.0)
    s = CompressibleState(0.5, zero, rest(g2), zero, ModelKind.AC)
    with pytest.raises(VacuumError):
        rhs_compressible_hat(g2, s.eps, band_rfft(g2, s.as_arrays()), Constitutive(), s.model)


def test_model_kind_members():
    assert ModelKind.CH is not ModelKind.AC
    assert {m.value for m in ModelKind} == {"nsch", "nsac"}
