import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from torusflow import diagnostics
from torusflow.constitutive import Constitutive, ModelKind
from torusflow.diagnostics import (
    EnergyReport,
    energy_compressible,
    energy_incompressible,
    modulated_energy,
)
from torusflow.dynamics import (
    CompressibleState,
    IncompressibleState,
    initial_from_preset,
    make_compressible,
    well_prepared_initial,
)
from torusflow.errors import VacuumError
from torusflow.spectral import (
    Field,
    TorusGrid,
    VectorField,
    hs_norm,
    l2_norm,
    refine,
)
from torusflow.stepper import step_compressible_rk4, step_incompressible_rk4

from field_ops import constant_field

VOL2 = (2.0 * math.pi) ** 2


def vec(g, *arrays):
    return VectorField(tuple(Field(g, a) for a in arrays))


def zero_vec(g):
    return VectorField(tuple(constant_field(g, 0.0) for _ in range(g.dim)))


# ---------------------------------------------------------------------------
# Sobolev machinery


def test_sobolev_norm_single_mode(g2):
    x = g2.coords()[0]
    f = Field(g2, np.sin(x))
    # |c_{(+-1, 0)}|^2 = 1/4 each, weight (1+1)^s, volume (2 pi)^2
    for s in (0, 1, 2):
        expect = math.sqrt((2.0 * math.pi) ** 2 * 2.0**s * 0.5)
        assert hs_norm(f, s) == pytest.approx(expect, rel=1e-12)
    assert hs_norm(f, 0) == pytest.approx(l2_norm(f), rel=1e-13)


# ---------------------------------------------------------------------------
# energy reports: closed-form components


def test_energy_compressible_rest_pure_phase(g2):
    c = Constitutive()
    s = make_compressible(
        1.0, constant_field(g2, 1.0), zero_vec(g2), constant_field(g2, 1.0),
        ModelKind.CH,
    )
    rep = energy_compressible(s, c, time=0.5)
    assert rep.kinetic == 0.0
    assert rep.internal == pytest.approx(0.0, abs=1e-14)
    assert rep.gradient == pytest.approx(0.0, abs=1e-13)
    assert rep.potential == pytest.approx(0.0, abs=1e-14)
    assert rep.total == pytest.approx(0.0, abs=1e-13)
    assert rep.dissipation == pytest.approx(0.0, abs=1e-13)
    assert rep.time == 0.5


def test_energy_compressible_components(g2):
    # rho = 2, u = (sin x, 0), phi = 0, gamma = 2, eps = 1:
    #   kinetic   = 1/2 * 2 * <sin^2> * vol = vol / 2
    #   internal  = omega(2) * vol = 2 vol
    #   potential = 1/4 * 2 * 1 * vol = vol / 2
    #   dissipation = nu <cos^2> vol + eta <cos^2> vol = 0.1 vol
    c = Constitutive()
    x, _ = g2.coords()
    u = vec(g2, np.sin(x), np.zeros(g2.shape))
    s = make_compressible(
        1.0, constant_field(g2, 2.0), u, constant_field(g2, 0.0), ModelKind.CH
    )
    rep = energy_compressible(s, c)
    assert rep.kinetic == pytest.approx(0.5 * VOL2, rel=1e-12)
    assert rep.internal == pytest.approx(2.0 * VOL2, rel=1e-12)
    assert rep.gradient == pytest.approx(0.0, abs=1e-12)
    assert rep.potential == pytest.approx(0.5 * VOL2, rel=1e-12)
    assert rep.total == pytest.approx(3.0 * VOL2, rel=1e-12)
    assert rep.dissipation == pytest.approx(0.1 * VOL2, rel=1e-10)


def test_energy_internal_scales_with_eps(g2):
    # rho = 1 + 0.1 eps cos x gives internal = 0.01 pi * 2 pi for gamma = 2
    c = Constitutive()
    eps = 0.25
    x = g2.coords()[0]
    rho = Field(g2, 1.0 + 0.1 * eps * np.cos(x))
    s = make_compressible(eps, rho, zero_vec(g2), constant_field(g2, 0.0), ModelKind.CH)
    rep = energy_compressible(s, c)
    assert rep.internal == pytest.approx(0.02 * math.pi**2, rel=1e-6)


def test_energy_compressible_vacuum(g2):
    c = Constitutive()
    x, _ = g2.coords()
    rho = Field(g2, 1.0 + 1.5 * np.cos(x))
    s = CompressibleState(
        1.0, rho, zero_vec(g2), constant_field(g2, 0.0), ModelKind.CH
    )
    with pytest.raises(VacuumError):
        energy_compressible(s, c)


def test_energy_incompressible_components(g2):
    # u = 0, phi = cos x:
    #   gradient  = 1/2 <sin^2> vol = vol / 4
    #   potential = 1/4 <sin^4> vol = (3/32) vol
    #   chemistry: mu = -lap phi + phi^3 - phi = cos^3 x
    c = Constitutive()
    x, _ = g2.coords()
    phi = Field(g2, np.cos(x))
    s_ch = IncompressibleState(zero_vec(g2), phi, ModelKind.CH)
    rep = energy_incompressible(s_ch, c, time=1.0)
    assert rep.kinetic == pytest.approx(0.0, abs=1e-14)
    assert rep.internal == 0.0
    assert rep.gradient == pytest.approx(0.25 * VOL2, rel=1e-12)
    assert rep.potential == pytest.approx(3.0 / 32.0 * VOL2, rel=1e-12)
    assert rep.total == pytest.approx((0.25 + 3.0 / 32.0) * VOL2, rel=1e-12)
    # CH: int |grad cos^3|^2 = 9 <cos^4 - cos^6> vol = 9/16 vol
    assert rep.dissipation == pytest.approx(9.0 / 16.0 * VOL2, rel=1e-12)
    assert rep.time == 1.0
    # AC: int (cos^3)^2 = 5/16 vol
    s_ac = IncompressibleState(zero_vec(g2), phi, ModelKind.AC)
    rep_ac = energy_incompressible(s_ac, c)
    assert rep_ac.dissipation == pytest.approx(5.0 / 16.0 * VOL2, rel=1e-12)


# ---------------------------------------------------------------------------
# energy law along trajectories: dE/dt = -dissipation


def test_energy_law_incompressible():
    g = TorusGrid(2, 32)
    c = Constitutive()
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    cases = [(ModelKind.CH, 1.25e-4, 6e-3), (ModelKind.AC, 1e-3, 1e-3)]
    for model, dt, tol in cases:
        s0 = IncompressibleState(u0, phi0, model)
        s1 = step_incompressible_rk4(s0, dt, c)
        s2 = step_incompressible_rk4(s1, dt, c)
        fd = (
            energy_incompressible(s2, c).total - energy_incompressible(s0, c).total
        ) / (2 * dt)
        diss = energy_incompressible(s1, c).dissipation
        assert abs(fd + diss) < tol * diss, f"{model}: {fd} vs {-diss}"


def test_energy_law_compressible():
    g = TorusGrid(2, 32)
    c = Constitutive()
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    cases = [(ModelKind.CH, 5e-5, 2e-3), (ModelKind.AC, 2e-4, 1e-3)]
    for model, dt, tol in cases:
        s0 = well_prepared_initial(u0, phi0, 0.4, 0.1, 0, model)
        s1 = step_compressible_rk4(s0, dt, c)
        s2 = step_compressible_rk4(s1, dt, c)
        fd = (
            energy_compressible(s2, c).total - energy_compressible(s0, c).total
        ) / (2 * dt)
        diss = energy_compressible(s1, c).dissipation
        assert abs(fd + diss) < tol * diss, f"{model}: {fd} vs {-diss}"


def test_energy_decays_monotonically():
    g = TorusGrid(2, 32)
    c = Constitutive()
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    s = IncompressibleState(u0, phi0, ModelKind.CH)
    es = [energy_incompressible(s, c).total]
    for _ in range(5):
        for _ in range(10):
            s = step_incompressible_rk4(s, 1e-3, c)
        es.append(energy_incompressible(s, c).total)
    assert all(b < a for a, b in zip(es, es[1:]))


# ---------------------------------------------------------------------------
# quadratures against the physical-space formulas on the 2x grid
#
# The diagnostics take the spectral quadratic terms as Parseval sums over the
# fine grid's half spectrum; the references below evaluate every term as a
# pointwise mean of fine-grid derivatives, as the diagnostics once did.


def _ref_grad(gf, a):
    ah = gf.rfft(a)
    return [gf.irfft(ik * ah) for ik in gf._rik]


def _ref_terms(gf, rho, u, phi, c, model):
    mean = lambda a: float(np.mean(a)) * gf.volume
    gradient = mean(0.5 * sum(d * d for d in _ref_grad(gf, phi)))
    potential = mean(0.25 * rho * (phi**2 - 1.0) ** 2)
    grad_u = [_ref_grad(gf, a) for a in u]
    divu = sum(grad_u[a][a] for a in range(gf.dim))
    nu, eta = c.viscosity_nu(rho, phi), c.viscosity_eta(rho, phi)
    diss = mean(nu * sum(d * d for row in grad_u for d in row) + eta * divu * divu)
    mu = gf.irfft(gf.rk_squared * gf.rfft(phi)) / rho + phi**3 - phi
    if model is ModelKind.CH:
        diss += mean(sum(d * d for d in _ref_grad(gf, mu)))
    else:
        diss += mean(mu * mu)
    return gradient, potential, diss


def _ref_energy_compressible(s, c):
    gf = TorusGrid(s.grid.dim, 2 * s.grid.n)
    rho = refine(s.rho)
    m = [refine(comp) for comp in s.mom]
    u = [mi / rho for mi in m]
    kinetic = float(np.mean(0.5 * sum(mi * ui for mi, ui in zip(m, u)))) * gf.volume
    internal = float(np.mean(c.omega(rho))) * gf.volume / s.eps**2
    gradient, potential, diss = _ref_terms(gf, rho, u, refine(s.q) / rho, c, s.model)
    return (kinetic, internal, gradient, potential, diss)


def _ref_energy_incompressible(s, c):
    gf = TorusGrid(s.grid.dim, 2 * s.grid.n)
    u = [refine(comp) for comp in s.u]
    kinetic = float(np.mean(0.5 * sum(a * a for a in u))) * gf.volume
    gradient, potential, diss = _ref_terms(
        gf, np.ones(gf.shape), u, refine(s.phi), c, s.model
    )
    return (kinetic, 0.0, gradient, potential, diss)


def _ref_modulated(cs, is_, c):
    gf = TorusGrid(cs.grid.dim, 2 * cs.grid.n)
    rho = refine(cs.rho)
    ue = [refine(comp) / rho for comp in cs.mom]
    phie = refine(cs.q) / rho
    u = [refine(comp) for comp in is_.u]
    phi = refine(is_.phi)
    kin = 0.5 * sum((np.sqrt(rho) * a - b) ** 2 for a, b in zip(ue, u))
    p1 = float(c.pressure(np.ones(())))
    pi_e = (c.omega(rho) - p1 * (rho - 1.0)) / cs.eps**2
    grad_d_sq = sum(d * d for d in _ref_grad(gf, phie - phi))
    distance = float(np.mean(kin + pi_e + 0.5 * grad_d_sq)) * gf.volume
    bulk = float(
        np.mean(0.25 * rho * (phie**2 - 1.0) ** 2 + 0.25 * (phi**2 - 1.0) ** 2)
    ) * gf.volume
    return distance + bulk, distance


def _parts(rep):
    return (rep.kinetic, rep.internal, rep.gradient, rep.potential, rep.dissipation)


def _close(got, want, rel):
    return all(abs(a - b) <= rel * abs(b) for a, b in zip(got, want))


AFFINE = Constitutive(nu0=0.1, nu_rho=0.3, nu_phi=0.5, eta0=0.2, eta_rho=0.2, eta_phi=0.1)


@pytest.mark.parametrize("model", [ModelKind.CH, ModelKind.AC])
@pytest.mark.parametrize("c", [Constitutive(), AFFINE], ids=["constant", "affine"])
def test_quadratures_match_physical_space_reference(model, c):
    g = TorusGrid(2, 32)
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    # a large perturbation, so u = m / rho and phi = q / rho fill the fine band
    cs = well_prepared_initial(u0, phi0, 0.5, 3.0, 3, model)
    is_ = IncompressibleState(u0, phi0, model)
    assert _close(_parts(energy_compressible(cs, c)), _ref_energy_compressible(cs, c), 1e-13)
    assert _close(
        _parts(energy_incompressible(is_, c)), _ref_energy_incompressible(is_, c), 1e-13
    )
    assert _close(modulated_energy(cs, is_, c), _ref_modulated(cs, is_, c), 1e-13)


@pytest.mark.parametrize("model", [ModelKind.CH, ModelKind.AC])
@pytest.mark.parametrize("c", [Constitutive(), AFFINE], ids=["constant", "affine"])
def test_modulated_energy_of_carried_stacks_matches_rebuilt_states(model, c):
    # stepped states refine the rows of their band stacks; the same states
    # rebuilt from their fields, and a pair with one of each, go through the
    # half-spectrum transform
    g = TorusGrid(2, 32)
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    cs = well_prepared_initial(u0, phi0, 0.5, 3.0, 3, model, c)
    is_ = IncompressibleState(u0, phi0, model)
    for _ in range(2):
        cs = step_compressible_rk4(cs, 2e-3, c)
        is_ = step_incompressible_rk4(is_, 2e-3, c)
    assert cs.stack is not None and is_.stack is not None
    cs_fields = CompressibleState.from_arrays(g, cs.as_arrays(), model, cs.eps)
    is_fields = IncompressibleState.from_arrays(g, is_.as_arrays(), model)
    assert cs_fields.stack is None and is_fields.stack is None
    want = modulated_energy(cs_fields, is_fields, c)
    assert _close(modulated_energy(cs, is_, c), want, 1e-13)
    assert _close(modulated_energy(cs, is_fields, c), want, 1e-13)


@pytest.mark.parametrize("model", [ModelKind.CH, ModelKind.AC])
def test_flat_affine_law_matches_constant_law(model, monkeypatch):
    # a law with every slope zero takes the Parseval branch; forced through
    # the pointwise branch it must integrate the same dissipation
    g = TorusGrid(2, 32)
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    cs = well_prepared_initial(u0, phi0, 0.5, 3.0, 3, model)
    is_ = IncompressibleState(u0, phi0, model)
    c = Constitutive(nu0=0.1, eta0=0.2)
    assert c.constant_viscosity
    for energy, state in ((energy_compressible, cs), (energy_incompressible, is_)):
        spectral = energy(state, c)
        with monkeypatch.context() as m:
            m.setattr(Constitutive, "constant_viscosity", property(lambda self: False))
            pointwise = energy(state, c)
        assert _close(_parts(pointwise), _parts(spectral), 1e-13)


def test_fine_grid_tables_built_once_per_size():
    # every report on one grid reuses one 2x-grid object (the energy
    # reports) or one 3/2-grid object (modulated_energy), so their tables
    # are built once
    g = TorusGrid(2, 32)
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    cs = well_prepared_initial(u0, phi0, 0.2, 0.1, 0, ModelKind.CH)
    is_ = IncompressibleState(u0, phi0, ModelKind.CH)
    c = Constitutive()
    energy_compressible(cs, c)
    gf = diagnostics._workspace(g).fine_grid
    assert gf == TorusGrid(2, 64)
    modulated_energy(cs, is_, c)
    gm = diagnostics._modulated_workspace(g).fine_grid
    assert gm == TorusGrid(2, 48)
    for report in (
        lambda: energy_compressible(cs, c),
        lambda: energy_incompressible(is_, c),
        lambda: modulated_energy(cs, is_, c),
    ):
        report()
        assert diagnostics._workspace(g).fine_grid is gf
        assert diagnostics._modulated_workspace(g).fine_grid is gm


@pytest.mark.parametrize("model", [ModelKind.CH, ModelKind.AC])
def test_energy_compressible_memory_peak(model):
    # the 2x-grid temporaries of one call stay under 16 fine-grid real arrays
    g = TorusGrid(2, 64)
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    cs = well_prepared_initial(u0, phi0, 0.1, 1.0, 7, model)
    c = Constitutive()
    energy_compressible(cs, c)  # the fine grid's cached tables
    tracemalloc.start()
    try:
        energy_compressible(cs, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * (2 * g.n) ** 2 * 8


# ---------------------------------------------------------------------------
# the 2x-grid workspace: the allocating formulas are the bit-for-bit oracle


def _alloc_mean(gf, arr):
    return float(np.mean(arr)) * gf.volume


def _alloc_hermitian_sq(g, ah, w):
    sq = float(np.sum(g._rmult * w * np.abs(ah) ** 2))
    return g.volume * sq / float(g.n) ** (2 * g.dim)


def _alloc_terms(gf, rho, phi, hats, c, model):
    """Gradient, potential and dissipation as the reports formed them before
    their workspace, each step allocating its result."""
    ph, uh = hats[0], hats[1:]
    gradient = 0.5 * _alloc_hermitian_sq(gf, ph, gf._rik2)
    potential = _alloc_mean(gf, 0.25 * rho * (phi * phi - 1.0) ** 2)
    if c.constant_viscosity:
        divh = sum(ik * h for ik, h in zip(gf._rik, uh))
        dissipation = c.nu0 * sum(_alloc_hermitian_sq(gf, h, gf._rik2) for h in uh)
        dissipation += c.eta0 * _alloc_hermitian_sq(gf, divh, 1.0)
    else:
        d = gf.dim
        grad_hat = uh[:, None] * gf._rik_stack  # [a, b]: d_b u_a
        grad_u = np.stack([gf.irfft(h) for h in grad_hat.reshape(d * d, *gf.rshape)])
        divu = sum(grad_u[a * d + a] for a in range(d))
        nu = c.viscosity_nu(rho, phi)
        eta = c.viscosity_eta(rho, phi)
        grad_u_sq = np.sum(grad_u * grad_u, axis=0)
        dissipation = _alloc_mean(gf, nu * grad_u_sq + eta * divu * divu)
    mu = gf.irfft(gf.rk_squared * ph) / rho + phi * phi * phi - phi
    if model is ModelKind.CH:
        dissipation += _alloc_hermitian_sq(gf, gf.rfft(mu), gf._rik2)
    else:
        dissipation += _alloc_mean(gf, mu * mu)
    return gradient, potential, dissipation


def _alloc_energy_compressible(s, c):
    gf = TorusGrid(s.grid.dim, 2 * s.grid.n)
    fine = refine([s.rho, s.q, *s.mom])
    rho = fine[0]
    kinetic = _alloc_mean(gf, 0.5 * sum(mi * (mi / rho) for mi in fine[2:]))
    internal = _alloc_mean(gf, c.omega(rho)) / s.eps**2
    prim = fine[1:] / rho
    hats = np.stack([gf.rfft(a) for a in prim])
    gradient, potential, dissipation = _alloc_terms(gf, rho, prim[0], hats, c, s.model)
    total = kinetic + internal + gradient + potential
    return (kinetic, internal, gradient, potential, total, dissipation)


def _alloc_energy_incompressible(s, c):
    gf = TorusGrid(s.grid.dim, 2 * s.grid.n)
    fine = refine([s.phi, *s.u])
    kinetic = _alloc_mean(gf, 0.5 * sum(ua * ua for ua in fine[1:]))
    hats = np.stack([gf.rfft(a) for a in fine])
    gradient, potential, dissipation = _alloc_terms(gf, 1.0, fine[0], hats, c, s.model)
    total = kinetic + gradient + potential
    return (kinetic, 0.0, gradient, potential, total, dissipation)


def _alloc_modulated(cs, is_, c):
    # stepped states refine their carried band stacks on the 3/2 grid
    n = cs.grid.n
    gf = TorusGrid(cs.grid.dim, 2 * math.ceil(3 * n / 4))
    d = gf.dim
    fine = refine([*cs.stack, *is_.stack], size=gf.n)
    rho, u, phi = fine[0], fine[2 + d : 2 + 2 * d], fine[2 + 2 * d]
    ue, phie = fine[1 : 1 + d] / rho, fine[1 + d] / rho
    sqrt_rho = np.sqrt(rho)
    kin = 0.5 * sum((sqrt_rho * a - b) ** 2 for a, b in zip(ue, u))
    p1 = float(c.pressure(np.ones(())))
    pi_e = (c.omega(rho) - p1 * (rho - 1.0)) / cs.eps**2
    grad_d = 0.5 * _alloc_hermitian_sq(gf, gf.rfft(phie - phi), gf._rik2)
    distance = _alloc_mean(gf, kin + pi_e) + grad_d
    bulk = _alloc_mean(
        gf, 0.25 * rho * (phie * phie - 1.0) ** 2 + 0.25 * (phi * phi - 1.0) ** 2
    )
    return (distance + bulk, distance)


def _hex(values):
    return [float(v).hex() for v in values]


def _report(rep):
    return (rep.kinetic, rep.internal, rep.gradient, rep.potential, rep.total, rep.dissipation)


@pytest.mark.parametrize("model", [ModelKind.CH, ModelKind.AC])
@pytest.mark.parametrize("c", [Constitutive(), AFFINE], ids=["constant", "affine"])
def test_reports_equal_allocating_formulas_bit_for_bit(model, c):
    g = TorusGrid(2, 32)
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    cs = well_prepared_initial(u0, phi0, 0.5, 3.0, 3, model)
    is_ = IncompressibleState(u0, phi0, model)
    for _ in range(2):
        cs = step_compressible_rk4(cs, 2e-3, c)
        is_ = step_incompressible_rk4(is_, 2e-3, c)
    # twice: the second call reuses the workspace the first one built
    for _ in range(2):
        assert _hex(_report(energy_compressible(cs, c))) == _hex(
            _alloc_energy_compressible(cs, c)
        )
        assert _hex(_report(energy_incompressible(is_, c))) == _hex(
            _alloc_energy_incompressible(is_, c)
        )
        assert _hex(modulated_energy(cs, is_, c)) == _hex(_alloc_modulated(cs, is_, c))


@pytest.mark.parametrize("model", [ModelKind.CH, ModelKind.AC])
def test_warm_reports_allocate_no_grid_sized_buffers(model):
    # a warm call forms its integrands in the per-grid workspace: its
    # tracemalloc peak stays within 2 fine-grid real arrays (the allocating
    # formulas peaked at 11-23)
    g = TorusGrid(2, 64)
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    cs = well_prepared_initial(u0, phi0, 0.1, 1.0, 7, model)
    is_ = IncompressibleState(u0, phi0, model)
    c = Constitutive()
    cs1 = step_compressible_rk4(cs, 1e-3, c)
    is1 = step_incompressible_rk4(is_, 1e-3, c)
    fine_array = (2 * g.n) ** 2 * 8
    for report in (
        lambda: energy_compressible(cs, c),
        lambda: energy_incompressible(is_, c),
        lambda: modulated_energy(cs, is_, c),
        lambda: modulated_energy(cs1, is1, c),
    ):
        report()  # builds the workspace and the fine grid's tables
        tracemalloc.start()
        try:
            report()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * fine_array


# ---------------------------------------------------------------------------
# modulated energy


def test_modulated_energy_vanishes_on_matching_states(g2):
    c = Constitutive()
    u0, phi0 = initial_from_preset("taylor_green_bubble", g2)
    cs = make_compressible(0.2, constant_field(g2, 1.0), u0, phi0, ModelKind.CH)
    inc = IncompressibleState(u0, phi0, ModelKind.CH)
    full, dist = modulated_energy(cs, inc, c)
    assert dist == pytest.approx(0.0, abs=1e-10)
    # full still carries both bulk double-well terms
    assert full > 0.1


def test_modulated_energy_density_term(g2):
    # rho = 1 + d cos x against the uniform reference: Pi_e = (rho-1)^2 at
    # gamma = 2, so distance = d^2/2 * vol / eps^2
    c = Constitutive()
    eps, d = 0.5, 0.1
    x, _ = g2.coords()
    rho = Field(g2, 1.0 + d * np.cos(x))
    cs = CompressibleState(
        eps, rho, zero_vec(g2), constant_field(g2, 0.0), ModelKind.CH
    )
    inc = IncompressibleState(zero_vec(g2), constant_field(g2, 0.0), ModelKind.CH)
    full, dist = modulated_energy(cs, inc, c)
    assert dist == pytest.approx(0.5 * d * d * VOL2 / eps**2, rel=1e-12)


def test_modulated_energy_velocity_weighting(g2):
    # kinetic term is 1/2 |sqrt(rho) u_e - u|^2: with rho = 4, u_e = 1,
    # u = 2 it vanishes, leaving the density distance Pi(4) = omega(4) - 3
    c = Constitutive()
    ones = constant_field(g2, 4.0)
    ue = VectorField((constant_field(g2, 1.0), constant_field(g2, 0.0)))
    cs = make_compressible(1.0, ones, ue, constant_field(g2, 0.0), ModelKind.CH)
    u = VectorField((constant_field(g2, 2.0), constant_field(g2, 0.0)))
    inc = IncompressibleState(u, constant_field(g2, 0.0), ModelKind.CH)
    _, dist = modulated_energy(cs, inc, c)
    pi4 = float(c.omega(np.full((), 4.0))) - float(c.pressure(np.ones(()))) * 3.0
    assert dist == pytest.approx(pi4 * VOL2, rel=1e-12)
    # and it is sign-sensitive: u = -2 doubles the speed mismatch
    u_bad = VectorField((constant_field(g2, -2.0), constant_field(g2, 0.0)))
    inc_bad = IncompressibleState(u_bad, constant_field(g2, 0.0), ModelKind.CH)
    _, dist_bad = modulated_energy(cs, inc_bad, c)
    assert dist_bad == pytest.approx((0.5 * 16.0 + pi4) * VOL2, rel=1e-12)


def test_modulated_energy_grid_mismatch(g2):
    c = Constitutive()
    g_other = TorusGrid(2, 16)
    cs = make_compressible(
        0.2, constant_field(g2, 1.0), zero_vec(g2), constant_field(g2, 0.0),
        ModelKind.CH,
    )
    inc = IncompressibleState(
        zero_vec(g_other), constant_field(g_other, 0.0), ModelKind.CH
    )
    with pytest.raises(ValueError):
        modulated_energy(cs, inc, c)


def test_modulated_energy_vacuum(g2):
    c = Constitutive()
    x, _ = g2.coords()
    rho = Field(g2, 1.0 + 1.5 * np.cos(x))
    cs = CompressibleState(
        1.0, rho, zero_vec(g2), constant_field(g2, 0.0), ModelKind.CH
    )
    inc = IncompressibleState(zero_vec(g2), constant_field(g2, 0.0), ModelKind.CH)
    with pytest.raises(VacuumError):
        modulated_energy(cs, inc, c)


def test_reports_on_a_thread_while_the_main_thread_steps():
    # run's rule: the report thread owns diagnostics.workspace, the stepping
    # thread the kernels' and the stepper's slots, so neither disturbs the
    # other's bits
    g = TorusGrid(2, 32)
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    c = Constitutive()
    s0 = well_prepared_initial(u0, phi0, 0.2, 1.0, 5, ModelKind.CH)
    dt = 2e-3
    states = [s0]
    for _ in range(20):
        states.append(step_compressible_rk4(states[-1], dt, c))
    serial = [energy_compressible(s, c) for s in states]

    reports = []
    worker = threading.Thread(
        target=lambda: reports.extend(energy_compressible(s, c) for s in states)
    )
    # hand the interpreter lock back and forth often, so the two interleave
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        worker.start()
        stepped = [s0]
        for _ in range(20):
            stepped.append(step_compressible_rk4(stepped[-1], dt, c))
        worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert reports == serial
    for a, b in zip(stepped, states):
        for x, y in zip(a.as_arrays(), b.as_arrays()):
            assert np.array_equal(x, y)
