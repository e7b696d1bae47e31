import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from scipy.linalg import expm

import torusflow.dynamics as dynamics_module
import torusflow.spectral as spectral_module
import torusflow.stepper as stepper_module

from torusflow.constitutive import Constitutive, ModelKind
from torusflow.diagnostics import (
    energy_compressible,
    energy_incompressible,
    modulated_energy,
)
from torusflow.dynamics import (
    IncompressibleState,
    _incompressible_pressure,
    initial_from_preset,
    make_compressible,
    primitives,
    rhs_compressible_hat,
    rhs_incompressible_hat,
    taylor_green_bubble,
    well_prepared_initial,
)
from torusflow.errors import NumericsError
from torusflow.spectral import (
    Field,
    TorusGrid,
    VectorField,
    batch_irfft,
    batch_rfft,
    divergence,
    hermitian_sq,
    hs_norm,
    integral,
    refine,
)
from torusflow.stepper import (
    DEFAULT_CFL,
    PicardOptions,
    StepperConfig,
    acoustic_dt,
    default_dt,
    integrate,
    picard_step,
    step_compressible_rk4,
    step_incompressible_rk4,
    _block_tables,
    _etd_tables,
    _etdrk4,
    _phi123,
)
from torusflow.sweep import SweepConfig, _eval_record

from field_ops import constant_field, rdealias_mask


def band_rfft(g, arrays):
    """The 2/3-truncated band stack of arrays: batch_rfft into a band ``out``."""
    out = np.empty((len(arrays), *g.bshape), dtype=complex)
    return batch_rfft(g, arrays, out=out)


def hermitian_column0(zh):
    """zh with column 0 (k_last = 0) replaced by its Hermitian part
    (c[k] + conj c[-k])/2, as a step leaves its new stack."""
    out = zh.copy()
    col = zh[..., 0]
    out[..., 0] = 0.5 * (col + np.conj(col[:, -np.arange(col.shape[-1])]))
    return out


def rest_compressible(g, eps=0.2, phi0=1.0, model=ModelKind.CH):
    u = VectorField(tuple(constant_field(g, 0.0) for _ in range(g.dim)))
    return make_compressible(
        eps, constant_field(g, 1.0), u, constant_field(g, phi0), model
    )


def ac_closed_form(phi0, t):
    # separable solution of phi' = phi - phi^3
    e = math.exp(t)
    return phi0 * e / math.sqrt(1.0 + phi0**2 * (e**2 - 1.0))


# ---------------------------------------------------------------------------
# step-size bounds


def test_acoustic_dt_value():
    # cfl * dx / (sqrt(P'(1)) / eps) with dx = 2pi/64, P'(1) = 2:
    # 0.5 * 0.0981748 * 0.1 / 1.4142136 = 3.4710023e-3
    g = TorusGrid(2, 64)
    dt = acoustic_dt(0.1, g, Constitutive(gamma=2.0), cfl=0.5, umax=0.0)
    assert dt == pytest.approx(3.4710023e-3, rel=1e-6)


def test_acoustic_dt_scalings():
    g = TorusGrid(2, 64)
    c = Constitutive()
    base = acoustic_dt(0.2, g, c, cfl=0.4)
    assert acoustic_dt(0.1, g, c, cfl=0.4) == pytest.approx(base / 2)
    assert acoustic_dt(0.2, g, c, cfl=0.2) == pytest.approx(base / 2)
    assert acoustic_dt(0.2, g, c, cfl=0.4, umax=1.0) < base
    with pytest.raises(ValueError):
        acoustic_dt(0.0, g, c)
    with pytest.raises(ValueError):
        acoustic_dt(0.1, g, c, umax=-1.0)


@pytest.mark.parametrize("eps", [1e-170, 1e200, math.nan])
def test_acoustic_dt_rejects_an_eps_whose_square_is_not_normal(eps):
    # 1/eps**2 overflows below sqrt(sys.float_info.min)
    with pytest.raises(ValueError, match="eps"):
        acoustic_dt(eps, TorusGrid(2, 16), Constitutive())


def test_default_dt_selects_bounds():
    g = TorusGrid(2, 32)
    c = Constitutive()
    # a fluid at rest has the capillary speed 1/sqrt(2) of the planar
    # equilibrium tanh(x/sqrt(2)), at the band's Euclidean radius
    eps_free = 0.4 * math.sqrt(2.0) * g.dx / (1.0 / math.sqrt(2.0))
    cfg = StepperConfig(scheme="rk4", cfl=0.4, t_end=1.0)
    cfg_picard = StepperConfig(scheme="picard", cfl=0.4, t_end=1.0)
    for eps in (0.4, 0.2, 0.05):
        acoustic = acoustic_dt(eps, g, c, 0.4, 0.0)
        # conserved phase dynamics keeps the acoustic bound for every scheme
        s = rest_compressible(g, eps=eps)
        for conf in (cfg, cfg_picard):
            assert default_dt(s, c, conf) == pytest.approx(acoustic, rel=1e-12)
        # both schemes solve the acoustics exactly, so relaxational runs take
        # the larger of the acoustic and the eps-free bound
        s_ac = rest_compressible(g, eps=eps, model=ModelKind.AC)
        want = max(acoustic, eps_free)
        for conf in (cfg, cfg_picard):
            assert default_dt(s_ac, c, conf) == pytest.approx(want, rel=1e-12)
    # sqrt(P'(1))/eps = 0.35 < 1/2 at eps = 4, so the acoustic bound wins there
    s_ac = rest_compressible(g, eps=4.0, model=ModelKind.AC)
    assert default_dt(s_ac, c, cfg) > eps_free
    assert default_dt(rest_compressible(g, eps=0.05, model=ModelKind.AC), c, cfg) == (
        pytest.approx(eps_free, rel=1e-12)
    )
    # override wins
    cfg2 = StepperConfig(dt_override=1e-4, t_end=1.0)
    assert default_dt(s_ac, c, cfg2) == 1e-4
    # incompressible runs take the eps-free bound
    u = VectorField((constant_field(g, 0.0), constant_field(g, 0.0)))
    s_inc = IncompressibleState(u, constant_field(g, 0.5), ModelKind.AC)
    assert default_dt(s_inc, c, cfg) == pytest.approx(eps_free, rel=1e-12)


def _eps_free_dt(regime, u, phi):
    """default_dt at cfl 0.4 of an nsac state with velocity u and phase phi;
    at eps 0.01 the compressible state takes the eps-free bound too."""
    c, cfg = Constitutive(), StepperConfig(cfl=0.4)
    g = phi.grid
    if regime == "incompressible":
        return default_dt(IncompressibleState(u, phi, ModelKind.AC), c, cfg)
    s = make_compressible(0.01, constant_field(g, 1.0), u, phi, ModelKind.AC)
    return default_dt(s, c, cfg)


@pytest.mark.parametrize("regime", ["compressible", "incompressible"])
def test_default_dt_follows_the_capillary_speed(regime):
    # phi = a cos(x) has max|grad phi| = a, taken at x = pi/2, a grid point,
    # where the uniform flow adds its speed 0.3
    g = TorusGrid(2, 32)
    x = g.coords()[0]
    u = VectorField((constant_field(g, 0.3), constant_field(g, 0.0)))

    def dt_of(phi):
        return _eps_free_dt(regime, u, Field(g, phi))

    for a in (1.0, 2.0, 5.0):
        want = 0.4 * math.sqrt(2.0) * g.dx / (0.3 + a)
        assert dt_of(a * np.cos(x)) == pytest.approx(want, rel=1e-12)
    # below the floor the rest speed 1/sqrt(2) holds
    floor = 0.4 * math.sqrt(2.0) * g.dx / (1.0 / math.sqrt(2.0))
    assert dt_of(0.3 * np.cos(x)) == pytest.approx(floor, rel=1e-12)
    # a steeper interface gets a smaller step
    r = np.sqrt((x - np.pi) ** 2 + (g.coords()[1] - np.pi) ** 2)
    widths = (1.0, 0.6, 0.4)
    dts = [dt_of(np.tanh((1.5 - r) / w)) for w in widths]
    assert dts[0] > dts[1] > dts[2]


@pytest.mark.parametrize("regime", ["compressible", "incompressible"])
def test_default_dt_takes_the_pointwise_speed_and_the_euclidean_radius(regime):
    # S = max_x(|u(x)| + |grad phi(x)|): the Euclidean speed of the flow, and
    # the sum of the two speeds only where both peak together
    g = TorusGrid(2, 32)
    y = g.coords()[1]
    zero = constant_field(g, 0.0)
    # a uniform diagonal flow u = (a, a) has |u| = a sqrt(2), not a
    a = 2.0
    diag = VectorField((constant_field(g, a), constant_field(g, a)))
    assert _eps_free_dt(regime, diag, zero) == pytest.approx(0.4 * g.dx / a, rel=1e-12)
    # u = (a sin y, 0) vanishes where phi = a sin y is steepest (y = 0):
    # |u| + |grad phi| = a (|sin y| + |cos y|) peaks at a sqrt(2) (y = pi/4,
    # a grid point), not at max|u| + max|grad phi| = 2a
    shear = VectorField((Field(g, a * np.sin(y)), zero))
    dt = _eps_free_dt(regime, shear, Field(g, a * np.sin(y)))
    assert dt == pytest.approx(0.4 * g.dx / a, rel=1e-12)


def test_default_step_is_inside_etdrk4_stability():
    # at default_dt the explicit remainder's frequencies on the band are at
    # most |k| S; the default cfl keeps every band mode's ETDRK4-B
    # amplification <= 1 with no credit for viscosity: one step from u = 1
    # of u' = -svv u + i |k| u at the step of a unit flow on a flat phase
    # (S = 1)
    def worst(n, cfl):
        g = TorusGrid(2, n)
        flow = VectorField((constant_field(g, 1.0), constant_field(g, 0.0)))
        s = IncompressibleState(flow, constant_field(g, 0.0), ModelKind.AC)
        dt = default_dt(s, Constitutive(), StepperConfig(cfl=cfl))
        kx, ky = (np.abs(k).astype(float) for k in g.bwavenumbers)
        tables = _etd_tables(-g.bsvv, dt)

        def ops(key, z, out):
            np.multiply(tables[key], z, out=out)

        def nonlin(z, out):
            np.multiply(1j * np.sqrt(kx**2 + ky**2), z, out=out)

        amp = np.abs(_etdrk4(np.ones((1, *g.bshape), dtype=complex), ops, nonlin)[0])
        return float(np.max(amp[np.broadcast_to(kx <= g.dealias_cutoff, g.bshape)]))

    for n in (16, 32, 64, 128, 256, 512):
        assert worst(n, DEFAULT_CFL) <= 1.0 + 1e-12, n
    # the check can fail: a full cfl leaves modes unstable
    assert worst(64, 1.0) > 1.5


# ---------------------------------------------------------------------------
# ETDRK4


def _phi_contour_mean(z, points=64):
    # Kassam & Trefethen: mean of the closed forms over a unit circle about z
    w = z[:, None] + np.exp(2j * np.pi * (np.arange(points) + 0.5) / points)
    em1 = np.expm1(w)
    return [
        np.real(np.mean(p, axis=1))
        for p in (em1 / w, (em1 - w) / w**2, (em1 - w - 0.5 * w**2) / w**3)
    ]


def test_phi_functions_match_contour_mean():
    z = np.concatenate([
        -np.logspace(4, -9, 120),
        [0.0, -1.0, 1.0, -1.0 - 1e-12, -1.0 + 1e-12, 1.0 - 1e-12, 1.0 + 1e-12],
        np.linspace(-1.05, 1.05, 43),
        np.linspace(1e-9, 3.0, 40),
    ])
    for got, want in zip(_phi123(z), _phi_contour_mean(z)):
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))
    # values at zero are 1/k!
    assert [float(p[0]) for p in _phi123(np.zeros(1))] == [1.0, 0.5, 1.0 / 6.0]


def test_etdrk4_is_exact_on_pure_linear():
    # with zero remainder the step is exp(L dt); a constant remainder adds
    # the exact Duhamel term dt*phi_1(L dt)*N
    lam, dt = -3.0, 0.25
    tabs = _etd_tables(np.array([lam]), dt)
    ops = lambda key, z, out: np.multiply(tabs[key], z, out=out)
    z0 = np.array([[2.0 + 0.0j]])  # one slot holding one mode
    out = _etdrk4(z0.copy(), ops, lambda z, out: out.fill(0.0))
    assert out.shape == z0.shape
    assert out[0, 0] == pytest.approx(2.0 * np.exp(lam * dt), rel=1e-14)
    forced = _etdrk4(z0.copy(), ops, lambda z, out: out.fill(0.7))
    want = 2.0 * np.exp(lam * dt) + 0.7 * np.expm1(lam * dt) / lam
    assert forced[0, 0] == pytest.approx(want, rel=1e-14)


def test_etd_tables_hold_the_implicit_euler_resolvent():
    # z = z0 + dt*lam*z is solved by R z0, R = 1/(1 - dt*lam)
    lam = np.array([-3.0, -1e6, 0.0])
    for dt in (1e-4, 0.25):
        r = _etd_tables(lam, dt)["R"]
        assert r * (1.0 - dt * lam) == pytest.approx(np.ones(3), rel=1e-15)
        assert r[-1] == 1.0


def _block_modes(c2):
    # (svv, visc, |k|): k = 0, under- and over-damped modes, and modes
    # within 1e-9 and 1e-5 of critical damping visc^2/4 = c2 |k|^2
    modes = [(0.0, 0.0, 0.0)]
    for kk in (1.0, 3.0, 10.0, 21.0):
        crit = 2.0 * math.sqrt(c2) * kk
        viscs = [0.2 * kk**2, 1e-3 * crit, 3.0 * crit, 50.0 * crit, crit]
        viscs += [crit * (1.0 + r) for r in (1e-9, -1e-9, 1e-5, -1e-5)]
        modes += [(svv, v, kk) for v in viscs for svv in (0.0, 40.0, 2000.0)]
    return np.array(modes).T


def test_block_tables_match_expm_oracle():
    # the top row of exp([[zL, I, 0, 0], [0, 0, I, 0], [0, 0, 0, I], [0]])
    # holds exp(zL), phi_1(zL), phi_2(zL), phi_3(zL); the resolvent's oracle
    # is inv(I - dt L).  Entries are compared
    # in the balanced variables (sqrt(c2) rho, b), where L is well scaled,
    # against the largest entry of the oracle.
    eye, zero = np.eye(2), np.zeros((2, 2))
    for eps in (1.0, 0.4, 0.05):
        c2 = 2.0 / eps**2
        svv, visc, kk = _block_modes(c2)
        m = -svv - 0.5 * visc
        s2 = 0.25 * visc**2 - c2 * kk**2
        det = svv * (visc + svv) + c2 * kk**2
        bal = np.diag([math.sqrt(c2), 1.0])
        for dt in (1e-4, 1e-2, 0.1):
            tabs = _block_tables(m, s2, det, dt)
            for i in range(len(m)):
                L = np.array([[-svv[i], -kk[i]], [kk[i] * c2, -visc[i] - svv[i]]])
                phis = {}
                for z in (0.5 * dt, dt):
                    aug = np.block([
                        [z * L, eye, zero, zero],
                        [zero, zero, eye, zero],
                        [zero, zero, zero, eye],
                        [zero, zero, zero, zero],
                    ])
                    top = expm(aug)[:2]
                    phis[z] = [top[:, 2 * j : 2 * j + 2] for j in range(4)]
                want = {
                    "E2": phis[0.5 * dt][0],
                    "Q": 0.5 * dt * phis[0.5 * dt][1],
                    "P2h": dt * phis[0.5 * dt][2],
                    "P2": dt * phis[dt][2],
                    "P3": dt * phis[dt][3],
                    "R": np.linalg.inv(eye - dt * L),
                }
                assert set(tabs) == set(want)
                for key, (c0, c1) in tabs.items():
                    got = bal @ (c0[i] * eye + c1[i] * L) @ np.linalg.inv(bal)
                    ref = bal @ want[key] @ np.linalg.inv(bal)
                    err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
                    assert err <= 1e-10, (eps, dt, key, svv[i], visc[i], kk[i], err)


def test_one_step_over_three_acoustic_periods_is_the_damped_oscillator():
    # the dispersion probe's setup: a small density mode (k, 0) at rest.  Its
    # linearisation rho'' + visc rho' + c2 k^2 rho = 0 is integrated exactly,
    # so one step across 3.2 periods lands on the damped oscillation
    g = TorusGrid(2, 64)
    c = Constitutive()
    eps, k = 0.1, 1
    amp = 1e-3 * eps**2
    x = g.coords()[0]
    rho = Field(g, 1.0 + amp * np.cos(k * x))
    zero = constant_field(g, 0.0)
    s = make_compressible(eps, rho, VectorField((zero, zero)),
                          constant_field(g, 1.0), ModelKind.CH)
    c2 = float(c.pressure_prime(1.0)) / eps**2
    visc = (c.nu0 + c.eta0) * k**2
    omega = math.sqrt(c2 * k**2 - 0.25 * visc**2)
    dt = 3.2 * 2.0 * math.pi / omega
    out = step_compressible_rk4(s, dt, c)
    want = math.exp(-0.5 * visc * dt) * (
        math.cos(omega * dt) + 0.5 * visc / omega * math.sin(omega * dt)
    )
    assert np.max(np.abs(out.rho.values - 1.0 - amp * want * np.cos(k * x))) < 1e-4 * amp


def test_nsac_step_count_does_not_depend_on_eps():
    g = TorusGrid(2, 32)
    c = Constitutive()
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    steps = []
    for eps in (0.1, 0.05, 0.025):
        s0 = well_prepared_initial(u0, phi0, eps, 0.1, 0, ModelKind.AC)
        seen = []
        out = integrate(s0, c, StepperConfig(t_end=0.2), None, lambda t, s: seen.append(s))
        steps.append(len(seen))
        assert all(np.all(np.isfinite(a)) for s in seen for a in s.as_arrays())
        assert min(float(np.min(s.rho.values)) for s in seen) > 0.0
        assert out[-1][1] is seen[-1]
    assert steps[0] == steps[1] == steps[2], steps


def test_integrate_builds_each_table_set_once(monkeypatch):
    # equal intervals between linspace samples differ in their last bits;
    # every step of an 11-sample run must still reuse one cached table set.
    # Builds are counted by wrapping stepper._cached_tables, as the
    # benchmark recorder (tools/bench_record.py) does
    g = TorusGrid(2, 32)
    c = Constitutive()
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    samples = np.linspace(0.0, 0.02, 11)
    runs = (
        IncompressibleState(u0, phi0, ModelKind.CH),
        well_prepared_initial(u0, phi0, 0.2, 0.1, 0, ModelKind.AC),
    )
    cached = stepper_module._cached_tables
    for s0 in runs:
        monkeypatch.setattr(spectral_module, "_SLOTS", {})
        builds, served = [], []

        def counted(regime, key, dt, build):
            def counting_build():
                builds.append(regime)
                return build()

            tables = cached(regime, key, dt, counting_build)
            served.append(tables)
            return tables

        monkeypatch.setattr(stepper_module, "_cached_tables", counted)
        integrate(s0, c, StepperConfig(t_end=0.02), samples)
        assert len(served) >= 10
        assert builds == [s0.REGIME]
        assert len({id(t) for t in served}) == 1, s0.REGIME


def test_non_finite_update_is_a_numerics_error(monkeypatch):
    # every scheme hands its new spectrum to one crossing back to a state,
    # which names the scheme when a value is non-finite
    g = TorusGrid(2, 16)
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    cs = well_prepared_initial(u0, phi0, 0.2, 0.1, 0, ModelKind.CH)
    is_ = IncompressibleState(u0, phi0, ModelKind.CH)
    c = Constitutive()
    monkeypatch.setattr(stepper_module, "_etdrk4", lambda zh, *a: np.full_like(zh, np.nan))
    # Picard's iterate is the resolvent applied by ops("R", ...)
    monkeypatch.setattr(
        stepper_module,
        "_compressible_closures",
        lambda *a: (lambda key, z, out: out.fill(np.nan), lambda z, out: out.fill(0.0)),
    )
    one_sweep = StepperConfig(scheme="picard", picard=PicardOptions(max_iter=1))
    cases = (
        ("RK4", lambda: step_compressible_rk4(cs, 1e-3, c)),
        ("RK4", lambda: step_incompressible_rk4(is_, 1e-3, c)),
        ("Picard", lambda: picard_step(cs, 1e-3, c, one_sweep)),
    )
    for scheme, step in cases:
        with pytest.raises(NumericsError, match=f"non-finite values in {scheme} update"):
            step()


def test_a_stepped_state_is_stepped_without_a_forward_transform(monkeypatch):
    # a step leaves its state the band stack the next step starts from; only
    # a state built from fields is transformed on entry
    g = TorusGrid(2, 16)
    c = Constitutive()
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    cs = well_prepared_initial(u0, phi0, 0.2, 0.1, 0, ModelKind.CH)
    is_ = IncompressibleState(u0, phi0, ModelKind.CH)
    cfg = StepperConfig(scheme="picard")
    calls = []
    transform = stepper_module.batch_rfft

    def counted(*args, **kwargs):
        calls.append(args[0])
        return transform(*args, **kwargs)

    monkeypatch.setattr(stepper_module, "batch_rfft", counted)
    steps = (
        (cs, lambda s: step_compressible_rk4(s, 1e-3, c)),
        (is_, lambda s: step_incompressible_rk4(s, 1e-3, c)),
        (cs, lambda s: picard_step(s, 1e-3, c, cfg)[0]),
    )
    for s0, step in steps:
        calls.clear()
        s = step(s0)
        assert len(calls) == 1
        for _ in range(3):
            s = step(s)
        assert len(calls) == 1


@pytest.mark.parametrize("model", list(ModelKind))
@pytest.mark.parametrize("affine", [False, True], ids=["constant", "affine"])
def test_carried_stacks_keep_the_cut_rows_zero(model, affine):
    # the band transform is the one 2/3 truncation: no step applies a mask,
    # so every table, closure and kernel must keep the rows cutoff < |k| of
    # the carried stack exactly zero, step after step
    g = TorusGrid(2, 32)
    cut = g.dealias_cutoff
    c = Constitutive(nu_phi=0.4, eta_rho=0.3) if affine else Constitutive()
    u0, phi0 = taylor_green_bubble(g)
    cs = well_prepared_initial(u0, phi0, 0.2, 1.0, 5, model)
    cfg = StepperConfig(scheme="picard")
    runs = (
        (cs, lambda s: step_compressible_rk4(s, 1e-3, c), 50),
        (IncompressibleState(u0, phi0, model), lambda s: step_incompressible_rk4(s, 2e-3, c), 50),
        (cs, lambda s: picard_step(s, 1e-3, c, cfg)[0], 10),
    )
    for s, step, count in runs:
        for _ in range(count):
            s = step(s)
        zh = s.stack
        assert zh.shape[1:] == g.bshape
        assert np.all(zh[:, cut + 1 : g.n - cut] == 0)
        assert np.all(np.abs(zh[:, : cut + 1]).max(axis=(1, 2)) > 0)


@pytest.mark.parametrize("scheme", ["rk4", "picard", "incompressible"])
def test_a_step_leaves_column_zero_hermitian(scheme, rng):
    # the k_last = 0 column of a real field's half spectrum holds c[-k] =
    # conj c[k]; physical space cannot see a violation, so a step must not
    # carry one forward
    g = TorusGrid(2, 32)
    c = Constitutive()
    u0, phi0 = taylor_green_bubble(g)
    cfg = StepperConfig(scheme="picard")
    step = {
        "rk4": lambda s: step_compressible_rk4(s, 1e-2, c),
        "picard": lambda s: picard_step(s, 1e-2, c, cfg)[0],
        "incompressible": lambda s: step_incompressible_rk4(s, 2e-3, c),
    }[scheme]
    if scheme == "incompressible":
        s = IncompressibleState(u0, phi0, ModelKind.AC)
    else:
        s = well_prepared_initial(u0, phi0, 0.05, 1.0, 5, ModelKind.AC)
    zh = band_rfft(g, s.as_arrays())
    # an anti-Hermitian part a[-k] = -conj a[k] in the kept rows of column 0
    kept = np.r_[1 : g.dealias_cutoff + 1]
    a = 1e-6 * (rng.standard_normal((len(zh), len(kept)))
                + 1j * rng.standard_normal((len(zh), len(kept))))
    zh[:, kept, 0] += a
    zh[:, -kept, 0] -= np.conj(a)
    zh[:, 0, 0] += 1e-6j
    col = step(s.with_stack(zh)).stack[..., 0]
    assert np.array_equal(col, np.conj(col[:, -np.arange(g.n)]))


def test_rest_state_keeps_its_density_over_long_horizons():
    # a fluid at rest with round-off-sized density noise, 600 steps at an
    # eps-free step far above the acoustic one (dt c|k|/eps up to 10): an
    # anti-Hermitian ghost in column 0 of the carried stack would grow
    # under the explicitly treated remainder to vacuum by t = 20
    g = TorusGrid(2, 16)
    c = Constitutive()
    rng = np.random.default_rng(0)
    rho = Field(g, 1.0 + 1e-10 * rng.standard_normal(g.shape))
    u = VectorField((constant_field(g, 0.0), constant_field(g, 0.0)))
    s = make_compressible(0.04, rho, u, constant_field(g, 1.0), ModelKind.AC)
    dev0 = np.max(np.abs(s.rho.values - 1.0))
    for i in range(600):
        s = step_compressible_rk4(s, 0.0393, c)
        if i % 50 == 49:
            assert np.max(np.abs(s.rho.values - 1.0)) <= dev0, i + 1


def test_picard_state_does_not_alias_the_iterate():
    # Picard iterates in cached stage stacks; the state it returns owns a
    # copy, so later steps leave its stack and fields as they were
    g = TorusGrid(2, 16)
    c = Constitutive()
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    s0 = well_prepared_initial(u0, phi0, 0.2, 0.1, 0, ModelKind.AC)
    cfg = StepperConfig(scheme="picard")
    s1 = picard_step(s0, 1e-3, c, cfg)[0]
    kept = s1.stack.copy()
    s = s1
    for _ in range(2):
        s = picard_step(s, 1e-3, c, cfg)[0]
    picard_step(s0, 2e-3, c, cfg)
    assert np.array_equal(s1.stack, kept)
    want = batch_irfft(g, kept)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(s1.as_arrays(), want))


def test_fields_read_on_a_second_thread_match_fields_read_inline():
    # a stepped state forms its fields on first read, in buffers of its
    # own: a second thread may read them while the main thread steps on
    g = TorusGrid(2, 32)
    c = Constitutive()
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    s0 = well_prepared_initial(u0, phi0, 0.2, 0.1, 0, ModelKind.CH)
    s1, twin = (step_compressible_rk4(s0, 1e-3, c) for _ in range(2))
    read = []
    reader = threading.Thread(target=lambda: read.extend(s1.as_arrays()))
    reader.start()
    s = s1
    for _ in range(10):
        s = step_compressible_rk4(s, 1e-3, c)
    reader.join()
    inline = twin.as_arrays()
    assert len(read) == len(inline)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(read, inline))


def test_concurrent_first_reads_form_the_fields_once(monkeypatch):
    # more readers than cores, switching threads as often as the
    # interpreter allows: the lock lets one of them form the fields, and
    # every reader gets that one result
    g = TorusGrid(2, 16)
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    s0 = well_prepared_initial(u0, phi0, 0.2, 0.1, 0, ModelKind.CH)
    s = step_compressible_rk4(s0, 1e-3, Constitutive())
    formed = []
    inverse = dynamics_module.batch_irfft

    def counted(*args, **kwargs):
        # a slow transform, so unguarded readers would all start one
        formed.append(1)
        time.sleep(0.05)
        return inverse(*args, **kwargs)

    monkeypatch.setattr(dynamics_module, "batch_irfft", counted)
    readers = 2 * (os.cpu_count() or 1) + 2
    start = threading.Barrier(readers)
    got = []

    def read():
        start.wait(timeout=30)
        got.append(s.rho)

    threads = [threading.Thread(target=read) for _ in range(readers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == readers and all(r is got[0] for r in got)
    assert len(formed) == 1


def test_caches_follow_the_grid():
    # the kernels' workspace, the ETD tables and stage stacks and the
    # reports' 2x-grid workspace each hold one grid; alternating grids must
    # rebuild them, and every call must equal the first call at its n
    c = Constitutive()
    states = {}
    for n in (16, 32):
        g = TorusGrid(2, n)
        u0, phi0 = initial_from_preset("taylor_green_bubble", g)
        states[n] = well_prepared_initial(u0, phi0, 0.2, 0.1, 3, ModelKind.CH)

    def calls(s):
        g = s.grid
        zh = band_rfft(g, s.as_arrays())
        tendency = rhs_compressible_hat(g, s.eps, zh, c, s.model)
        stepped = step_compressible_rk4(s, 1e-3, c).as_arrays()
        rep = energy_compressible(s, c)
        return [tendency, *stepped, np.array([rep.total, rep.dissipation])]

    first = {}
    for n in (16, 32, 16, 32, 16):
        got = calls(states[n])
        first.setdefault(n, got)
        for a, b in zip(got, first[n]):
            assert a.tobytes() == b.tobytes(), n


# ---------------------------------------------------------------------------
# the in-place ETD operators: the allocating closures are the oracle

_TABLE_KEYS = ("E2", "Q", "P2h", "P2", "P3", "R")


def _captured_closures(step, s, dt, c, monkeypatch):
    """The ops and nonlin closures the step hands to _etdrk4."""
    seen = {}

    def capture(zh, ops, nonlin):
        seen.update(ops=ops, nonlin=nonlin)
        return zh

    with monkeypatch.context() as m:
        m.setattr(stepper_module, "_etdrk4", capture)
        step(s, dt, c)
    return seen["ops"], seen["nonlin"]


def _layout(g, half):
    """|k|^2, the first-derivative stack, |k|^2 without the Nyquist
    components and svv, on the band layout or on the whole half layout."""
    if half:
        return g.rk_squared, g._rik_stack, g._rik2, g.rsvv
    return g.bk_squared, g._bik_stack, g._bik2, g.bsvv


def _rhs_hat(s, c, zh, out=None):
    """The tendency stack of the band stack zh, from the kernel of s's regime."""
    if isinstance(s, IncompressibleState):
        return rhs_incompressible_hat(s.grid, zh, c, s.model, out)
    return rhs_compressible_hat(s.grid, s.eps, zh, c, s.model, out)


def _rhs(s, c, z, out):
    """The kernel's tendency of a band stack z, or of a 2/3-truncated
    half-layout stack: its band columns through the kernel, zero above."""
    g = s.grid
    if z.shape[-1] == g.bshape[-1]:
        return _rhs_hat(s, c, z, out)
    band = slice(None, g.bshape[-1])
    out[...] = 0.0
    out[..., band] = _rhs_hat(s, c, np.ascontiguousarray(z[..., band]))
    return out


def _alloc_compressible_closures(s, dt, c, half=False):
    """ops and nonlin of step_compressible_rk4 as written with allocating
    operators and real tables; with ``half``, on the whole half layout, as
    the steps ran before the band layout."""
    sm = stepper_module
    g = s.grid
    d = g.dim
    nu_bar, eta_bar = sm._reference_viscosities(c)
    c2 = float(c.pressure_prime(1.0)) / s.eps**2
    k2, ik, kk2, svv = _layout(g, half)
    ell_q = sm._phase_symbol(k2, s.model)
    nu_k2 = nu_bar * k2
    block, sol_t, c2_kk, inv_kk, l_bb = sm._acoustic_tables(k2, kk2, svv, nu_bar, eta_bar, c2, dt)
    q_t = sm._etd_tables(ell_q - svv, dt)

    def ops(key, z, out):
        c0, c1 = block[key]
        rho, mom = z[0], z[1 : 1 + d]
        div = np.sum(ik * mom, axis=0)
        b = inv_kk * div
        b_new = c0 * b + c1 * (c2_kk * rho + l_bb * b)
        f = sol_t[key]
        out[0] = c0 * rho + c1 * (-svv * rho - div)
        np.multiply(f, mom, out=out[1 : 1 + d])
        out[1 : 1 + d] += ik * (inv_kk * (f * b - b_new))
        np.multiply(q_t[key], z[-1], out=out[-1])

    def nonlin(z, out):
        _rhs(s, c, z, out)
        mom = z[1 : 1 + d]
        div = np.sum(ik * mom, axis=0)
        out[0] += div
        out[1 : 1 + d] += nu_k2 * mom
        out[1 : 1 + d] += ik * (c2 * z[0] - eta_bar * div)
        out[-1] -= ell_q * z[-1]

    return ops, nonlin


def _alloc_incompressible_closures(s, dt, c, half=False):
    sm = stepper_module
    g = s.grid
    d = g.dim
    nu_bar, _ = sm._reference_viscosities(c)
    k2, _, _, svv = _layout(g, half)
    ell_phi = sm._phase_symbol(k2, s.model)
    nu_k2 = nu_bar * k2
    u_t = sm._etd_tables(-nu_k2 - svv, dt)
    phi_t = sm._etd_tables(ell_phi - svv, dt)

    def ops(key, z, out):
        np.multiply(u_t[key], z[:d], out=out[:d])
        np.multiply(phi_t[key], z[-1], out=out[-1])

    def nonlin(z, out):
        _rhs(s, c, z, out)
        out[:d] += nu_k2 * z[:d]
        out[-1] -= ell_phi * z[-1]

    return ops, nonlin


def _same_bits(a, b):
    return np.array_equal(a.view(np.uint8), b.view(np.uint8))


def _check_closures(got, want, z, rng):
    # z comes from the band transform, which zeroes its rows cutoff < |k|
    ops, nonlin = got
    ref_ops, ref_nonlin = want
    # a second, rough stack for the linear operators, zero on those rows too
    g = TorusGrid(2, z.shape[-2])
    mask = rdealias_mask(g)[..., : g.bshape[-1]]
    w = (rng.standard_normal(z.shape) + 1j * rng.standard_normal(z.shape)) * mask
    for key in _TABLE_KEYS:
        for v in (z, w):
            out, ref = np.full_like(v, np.nan), np.full_like(v, np.nan)
            ops(key, v, out)
            ref_ops(key, v, ref)
            assert _same_bits(out, ref), key
    out, ref = np.full_like(z, np.nan), np.full_like(z, np.nan)
    nonlin(z, out)
    ref_nonlin(z, ref)
    assert _same_bits(out, ref)


@pytest.mark.parametrize("varying", [1, 2])
@pytest.mark.parametrize("model", list(ModelKind))
@pytest.mark.parametrize("affine", [False, True], ids=["constant", "affine"])
def test_compressible_etd_closures_match_allocating_closures(
    varying, model, affine, rng, monkeypatch
):
    # flow data that varies along x only, or along both axes
    g = TorusGrid(2, 32)
    c = Constitutive(nu_phi=0.4, eta_rho=0.3) if affine else Constitutive()
    if varying == 2:
        u0, phi0 = taylor_green_bubble(g)
    else:
        u0 = VectorField((constant_field(g, 0.3), constant_field(g, 0.0)))
        phi0 = Field(g, 0.5 * np.cos(g.coords()[0]))
    s = well_prepared_initial(u0, phi0, 0.2, 2.0, 4, model)
    dt = 3e-3
    got = _captured_closures(step_compressible_rk4, s, dt, c, monkeypatch)
    want = _alloc_compressible_closures(s, dt, c)
    _check_closures(got, want, band_rfft(g, s.as_arrays()), rng)


@pytest.mark.parametrize("model", list(ModelKind))
@pytest.mark.parametrize("affine", [False, True], ids=["constant", "affine"])
def test_incompressible_etd_closures_match_allocating_closures(model, affine, rng, monkeypatch):
    g = TorusGrid(2, 32)
    c = Constitutive(nu_phi=0.4) if affine else Constitutive()
    u0, phi0 = taylor_green_bubble(g)
    s = IncompressibleState(u0, phi0, model)
    dt = 5e-3
    got = _captured_closures(step_incompressible_rk4, s, dt, c, monkeypatch)
    want = _alloc_incompressible_closures(s, dt, c)
    _check_closures(got, want, band_rfft(g, s.as_arrays()), rng)


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("model", list(ModelKind))
@pytest.mark.parametrize("affine", [False, True], ids=["constant", "affine"])
def test_one_step_equals_the_half_layout_step(n, model, affine):
    # a step from a state built from arrays, as the solver ran on the whole
    # half layout: full transforms in and out, real tables, a boolean mask
    # on entry and exit, and column 0 made Hermitian as a step leaves it.
    # The band layout drops only modes the 2/3 rule zeroes, so every value
    # agrees bit for bit
    g = TorusGrid(2, n)
    c = Constitutive(nu_phi=0.4, eta_rho=0.3) if affine else Constitutive()
    u0, phi0 = taylor_green_bubble(g)
    steps = (
        (well_prepared_initial(u0, phi0, 0.1, 1.0, 7, model), 1e-3,
         step_compressible_rk4, _alloc_compressible_closures),
        (IncompressibleState(u0, phi0, model), 2e-3,
         step_incompressible_rk4, _alloc_incompressible_closures),
    )
    for s, dt, step, closures in steps:
        got = step(s, dt, c).as_arrays()
        ops, nonlin = closures(s, dt, c, half=True)
        zh = stepper_module.batch_rfft(g, s.as_arrays())
        mask = rdealias_mask(g)
        want = batch_irfft(g, hermitian_column0(_etdrk4(zh * mask, ops, nonlin) * mask))
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes(), step.__name__


# ---------------------------------------------------------------------------
# PDE steppers: fixed points and conservation


def test_rk4_fixed_point_compressible(g2):
    c = Constitutive()
    s = rest_compressible(g2, phi0=1.0)
    out = step_compressible_rk4(s, 1e-3, c)
    assert np.max(np.abs(out.rho.values - 1.0)) < 1e-13
    assert np.max(np.abs(out.q.values - 1.0)) < 1e-12


def test_rk4_fixed_point_incompressible(g2):
    c = Constitutive()
    u = VectorField((constant_field(g2, 0.0), constant_field(g2, 0.0)))
    s = IncompressibleState(u, constant_field(g2, -1.0), ModelKind.AC)
    out = step_incompressible_rk4(s, 1e-3, c)
    assert np.max(np.abs(out.phi.values + 1.0)) < 1e-12


def test_uniform_ac_tracks_ode(g2):
    # spatially uniform relaxational dynamics is the scalar ODE
    # phi' = phi - phi^3 regardless of the spatial discretization
    c = Constitutive()
    u = VectorField((constant_field(g2, 0.0), constant_field(g2, 0.0)))
    s = IncompressibleState(u, constant_field(g2, 0.3), ModelKind.AC)
    dt = 1e-3
    for _ in range(200):
        s = step_incompressible_rk4(s, dt, c)
    assert np.max(np.abs(s.phi.values - ac_closed_form(0.3, 0.2))) < 1e-11


def test_conservation_over_many_steps():
    g = TorusGrid(2, 32)
    c = Constitutive()
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    s = well_prepared_initial(u0, phi0, 0.2, 0.1, 0, ModelKind.CH)
    mass0 = integral(s.rho)
    qmass0 = integral(s.q)
    dt = default_dt(s, c, StepperConfig(scheme="rk4", cfl=0.4, t_end=1.0))
    for _ in range(200):
        s = step_compressible_rk4(s, dt, c)
    assert abs(integral(s.rho) - mass0) / abs(mass0) < 1e-12
    assert abs(integral(s.q) - qmass0) / max(abs(qmass0), 1.0) < 1e-12


def test_affine_viscosity_nsac_run_conserves_mass():
    g = TorusGrid(2, 32)
    affine = Constitutive(
        nu0=0.1, nu_rho=0.3, nu_phi=0.5, eta0=0.1, eta_rho=0.2, eta_phi=0.4
    )
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    s0 = well_prepared_initial(u0, phi0, 0.2, 0.1, 0, ModelKind.AC)
    dt = default_dt(s0, affine, StepperConfig())
    mass0 = integral(s0.rho)
    s = s0
    for _ in range(20):
        s = step_compressible_rk4(s, dt, affine)
    assert abs(integral(s.rho) - mass0) / abs(mass0) < 1e-10
    # the run went through the affine branch: it differs from the constant law
    ref = s0
    for _ in range(20):
        ref = step_compressible_rk4(ref, dt, Constitutive())
    assert np.max(np.abs(s.mom[0].values - ref.mom[0].values)) > 1e-6


def _preset_run(model, n, t_end, c, cfl=DEFAULT_CFL):
    g = TorusGrid(2, n)
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    s0 = well_prepared_initial(u0, phi0, 0.2, 0.1, 0, model)
    return integrate(s0, c, StepperConfig(cfl=cfl, t_end=t_end))[-1][1]


AFFINE_PHASE = Constitutive(nu_phi=0.5, eta_phi=0.5)


def test_affine_nsac_run_keeps_its_density_at_the_default_step():
    # the explicit viscous remainder stays bounded only with the reference
    # viscosities at the law's maximum; at its minimum this run reaches vacuum
    s = _preset_run(ModelKind.AC, 64, 0.5, AFFINE_PHASE)
    assert float(np.min(s.rho.values)) > 0.0


@pytest.mark.parametrize(
    "model, n, c, cfl",
    [(ModelKind.CH, 64, AFFINE_PHASE, 0.3), (ModelKind.AC, 32, Constitutive(), 0.2)],
    ids=["affine-nsch", "constant-nsac"],
)
def test_final_total_does_not_depend_on_cfl(model, n, c, cfl):
    # the default step is as accurate as a small one; the affine nsch run
    # also needs the reference viscosities at the law's maximum to finish
    totals = [
        energy_compressible(_preset_run(model, n, 0.25, c, step), c).total
        for step in (DEFAULT_CFL, cfl)
    ]
    assert totals[0] == pytest.approx(totals[1], rel=1e-6)


def test_divergence_free_preserved():
    g = TorusGrid(2, 32)
    c = Constitutive()
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    s = IncompressibleState(u0, phi0, ModelKind.CH)
    dt = 2e-4
    for _ in range(200):
        s = step_incompressible_rk4(s, dt, c)
    assert np.max(np.abs(divergence(s.u).values)) < 1e-9
    assert abs(integral(s.phi) - integral(phi0)) < 1e-12


def test_etdrk4_temporal_order():
    # self-convergence over 8/16/32/64 steps: a fourth-order scheme cuts
    # the gap between successive resolutions 16x per halving
    g = TorusGrid(2, 32)
    c = Constitutive()
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    s0 = well_prepared_initial(u0, phi0, 0.2, 0.1, 0, ModelKind.AC)
    t_end = 0.01
    finals = []
    for nsteps in (8, 16, 32, 64):
        s = s0
        for _ in range(nsteps):
            s = step_compressible_rk4(s, t_end / nsteps, c)
        finals.append(np.concatenate([a.ravel() for a in s.as_arrays()]))
    gaps = [np.max(np.abs(a - b)) for a, b in zip(finals, finals[1:])]
    ratios = [a / b for a, b in zip(gaps, gaps[1:])]
    assert min(ratios) >= 11.3, ratios


@pytest.mark.parametrize("model", list(ModelKind))
def test_long_stiff_compressible_run_stays_bounded(model):
    # T = 2 at eps = 0.05 and the default (acoustic) step: several hundred
    # steps, long enough for the corner-mode growth that svv suppresses
    g = TorusGrid(2, 32)
    c = Constitutive()
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    s0 = well_prepared_initial(u0, phi0, 0.05, 0.1, 0, model)
    rho_min = [math.inf]

    def watch(t, s):
        rho_min[0] = min(rho_min[0], float(np.min(s.rho.values)))

    out = integrate(s0, c, StepperConfig(t_end=2.0), [0.5, 1.0, 1.5, 2.0], watch)
    s = out[-1][1]
    assert all(np.all(np.isfinite(a)) for a in s.as_arrays())
    assert rho_min[0] > 0.0


# ---------------------------------------------------------------------------
# Picard-iterated implicit Euler


def test_picard_tiny_step_converges_immediately(g2):
    c = Constitutive()
    u0, phi0 = initial_from_preset("taylor_green_bubble", g2)
    s = well_prepared_initial(u0, phi0, 0.2, 0.1, 0, ModelKind.CH)
    cfg = StepperConfig(scheme="picard", picard=PicardOptions(tol=1e-10), t_end=1.0)
    out, report = picard_step(s, 1e-8, c, cfg)
    assert report.converged
    assert report.iterations <= 3
    assert np.max(np.abs(out.rho.values - s.rho.values)) < 1e-7


def test_picard_fixed_point(g2):
    c = Constitutive()
    cfg = StepperConfig(scheme="picard", t_end=1.0)
    for model in ModelKind:
        s = rest_compressible(g2, phi0=1.0, model=model)
        out, report = picard_step(s, 1e-3, c, cfg)
        assert report.converged
        assert np.max(np.abs(out.rho.values - 1.0)) < 1e-12
        assert np.max(np.abs(out.q.values - 1.0)) < 1e-10


def test_picard_contraction_ratios(g2):
    c = Constitutive()
    u0, phi0 = initial_from_preset("taylor_green_bubble", g2)
    s = well_prepared_initial(u0, phi0, 0.2, 0.1, 0, ModelKind.CH)
    dt = 0.25 * acoustic_dt(0.2, g2, c, cfl=1.0)
    cfg = StepperConfig(scheme="picard", picard=PicardOptions(tol=1e-11), t_end=1.0)
    _, report = picard_step(s, dt, c, cfg)
    assert report.converged
    assert report.ratios, "expected at least one contraction ratio"
    assert all(r < 1.0 for r in report.ratios)


@pytest.mark.parametrize("model", list(ModelKind))
@pytest.mark.parametrize("eps", [0.2, 0.05])
def test_picard_converges_at_the_default_step(model, eps):
    # the acoustics sit in the resolvent, so the default step needs no cut:
    # nsch at the acoustic bound, nsac at the eps-free one
    g = TorusGrid(2, 32)
    c = Constitutive()
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    s = well_prepared_initial(u0, phi0, eps, 0.1, 0, model)
    cfg = StepperConfig(scheme="picard")
    out, report = picard_step(s, default_dt(s, c, cfg), c, cfg)
    assert report.converged, report
    assert max(report.ratios) < 0.5
    assert float(np.min(out.rho.values)) > 0.0


@pytest.mark.parametrize("model", list(ModelKind))
def test_picard_contraction_does_not_grow_as_eps_falls(model):
    g = TorusGrid(2, 32)
    c = Constitutive()
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    cfg = StepperConfig(scheme="picard", cfl=0.25)
    worst = {}
    for eps in (0.2, 0.05):
        s = well_prepared_initial(u0, phi0, eps, 0.1, 0, model)
        report = picard_step(s, default_dt(s, c, cfg), c, cfg)[1]
        assert report.converged
        worst[eps] = max(report.ratios)
    assert worst[0.05] <= worst[0.2], worst


def test_picard_increment_norm_matches_hs_norm(rng):
    # Picard measures increments with hermitian_sq on the half layout; the
    # oracle sums the full spectrum.  White noise fills every mode, the
    # Nyquist column of the half layout too.
    g = TorusGrid(2, 16)
    f = rng.standard_normal(g.shape)
    ah = g.rfft(f)
    assert np.min(np.abs(ah[..., -1])) > 0.0
    coeffs = np.fft.fftn(f) / g.n**g.dim
    k1d = np.fft.fftfreq(g.n, d=1.0 / g.n)
    k2 = sum(k**2 for k in np.meshgrid(*([k1d] * g.dim), indexing="ij"))
    for s in (0, 1, 3):
        want = g.volume * np.sum((1.0 + k2) ** s * np.abs(coeffs) ** 2)
        got = hermitian_sq(g, ah, (1.0 + g.rk_squared) ** s)
        assert abs(got - want) <= 1e-12 * want
        assert hs_norm(Field(g, f), s) == pytest.approx(math.sqrt(want), rel=1e-12)


def test_solver_core_uses_no_full_spectrum_transform(g2, monkeypatch):
    c = Constitutive()
    u0, phi0 = initial_from_preset("taylor_green_bubble", g2)
    sc = well_prepared_initial(u0, phi0, 0.2, 0.1, 0, ModelKind.CH)
    si = IncompressibleState(u0, phi0, ModelKind.CH)
    cfg = StepperConfig(scheme="picard", t_end=1.0)

    def forbidden(*args, **kwargs):
        raise AssertionError("full-spectrum transform in the solver core")

    monkeypatch.setattr(np.fft, "fftn", forbidden)
    monkeypatch.setattr(np.fft, "ifftn", forbidden)
    # from states built from fields and from stepped ones, fields read
    for _ in range(2):
        sc = step_compressible_rk4(sc, 1e-4, c)
        si = step_incompressible_rk4(si, 1e-4, c)
        sp, rep = picard_step(sc, 1e-4, c, cfg)
        assert rep.converged
        for s in (sc, si, sp):
            s.as_arrays()


def test_diagnostics_use_no_full_spectrum_transform(g2, monkeypatch):
    c = Constitutive()
    u0, phi0 = initial_from_preset("taylor_green_bubble", g2)
    sc = well_prepared_initial(u0, phi0, 0.2, 0.1, 0, ModelKind.CH)
    si = IncompressibleState(u0, phi0, ModelKind.CH)
    sweep_cfg = SweepConfig(n=g2.n, eps_list=(0.2,))

    def forbidden(*args, **kwargs):
        raise AssertionError("full-spectrum transform in the diagnostics")

    monkeypatch.setattr(np.fft, "fftn", forbidden)
    monkeypatch.setattr(np.fft, "ifftn", forbidden)
    energy_compressible(sc, c)
    energy_incompressible(si, c)
    modulated_energy(sc, si, c)
    hs_norm(phi0, 3)
    refine(phi0)
    taylor_green_bubble(g2)
    offset = _incompressible_pressure(u0, phi0, c) / float(c.pressure_prime(1.0))
    _eval_record(sweep_cfg, c, 0.2, [(0.0, sc)], [(0.0, si)], [offset], [0.0])


def test_picard_requires_compressible(g2):
    c = Constitutive()
    u = VectorField((constant_field(g2, 0.0), constant_field(g2, 0.0)))
    s = IncompressibleState(u, constant_field(g2, 0.0), ModelKind.CH)
    cfg = StepperConfig(scheme="picard", t_end=1.0)
    with pytest.raises(TypeError):
        picard_step(s, 1e-3, c, cfg)


def test_picard_options_validation():
    with pytest.raises(ValueError):
        PicardOptions(tol=0.0)
    for bad in (0, 2.5):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            PicardOptions(max_iter=bad)


# ---------------------------------------------------------------------------
# config and driver


def test_stepper_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(scheme="euler")
    with pytest.raises(ValueError):
        StepperConfig(cfl=0.0)
    with pytest.raises(ValueError):
        StepperConfig(t_end=-1.0)
    with pytest.raises(ValueError):
        StepperConfig(dt_override=0.0)


def test_integrate_samples_land_exactly(g2):
    c = Constitutive()
    s = rest_compressible(g2)
    cfg = StepperConfig(scheme="rk4", dt_override=1e-3, t_end=0.01)
    out = integrate(s, c, cfg, [0.0, 0.0035, 0.01])
    assert [t for t, _ in out] == [0.0, 0.0035, 0.01]
    assert out[0][1] is s


def test_integrate_observer_sees_every_step(g2):
    c = Constitutive()
    s = rest_compressible(g2)
    cfg = StepperConfig(scheme="rk4", dt_override=1e-3, t_end=0.01)
    times = []
    integrate(s, c, cfg, [0.005, 0.01], observer=lambda t, _: times.append(t))
    assert len(times) == 10
    assert times[-1] == pytest.approx(0.01)
    assert all(b > a for a, b in zip(times, times[1:]))


def test_integrate_validates_sample_times(g2):
    c = Constitutive()
    s = rest_compressible(g2)
    cfg = StepperConfig(t_end=0.01)
    with pytest.raises(ValueError):
        integrate(s, c, cfg, [0.005, 0.004])
    with pytest.raises(ValueError):
        integrate(s, c, cfg, [0.02])
    with pytest.raises(ValueError):
        integrate(s, c, cfg, [-0.01, 0.005])
