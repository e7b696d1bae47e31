import math
import re
import weakref

import numpy as np
import pytest

import torusflow.dynamics as dynamics_module
import torusflow.sweep as sweep_module
from torusflow.constitutive import Constitutive, ModelKind
from torusflow.dynamics import (
    IncompressibleState,
    _incompressible_pressure,
    _prepared_parts,
    initial_from_preset,
    primitives,
)
from torusflow.errors import NumericsError
from torusflow.spectral import Field, TorusGrid, hermitian_sq, hs_norm, l2_norm
from torusflow.stepper import integrate
from torusflow.sweep import (
    SweepConfig,
    acoustic_dispersion_check,
    fit_rate,
    run_sweep,
)

FAMILIES = (
    "err_u",
    "err_phi",
    "err_combined",
    "err_rho",
    "err_grad_rho",
    "err_time_integrated",
)


# ---------------------------------------------------------------------------
# rate fitting


def test_fit_rate_exact_quadratic():
    eps = [0.4, 0.2, 0.1, 0.05]
    slope, intercept, r2 = fit_rate([(e, 3.0 * e**2) for e in eps])
    assert slope == pytest.approx(2.0, rel=1e-12)
    assert intercept == pytest.approx(math.log(3.0), rel=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_exact_linear():
    slope, _, r2 = fit_rate([(e, 0.5 * e) for e in (0.3, 0.1, 0.03)])
    assert slope == pytest.approx(1.0, rel=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_constant_has_zero_slope():
    slope, intercept, _ = fit_rate([(e, 7.0) for e in (0.4, 0.2, 0.1)])
    assert slope == pytest.approx(0.0, abs=1e-12)
    assert intercept == pytest.approx(math.log(7.0), rel=1e-12)


def test_fit_rate_validation():
    with pytest.raises(ValueError):
        fit_rate([(0.1, 1.0)])
    with pytest.raises(ValueError):
        fit_rate([(0.1, 1.0), (-0.05, 0.5)])
    with pytest.raises(ValueError):
        fit_rate([(0.1, 1.0), (0.05, 0.0)])


# ---------------------------------------------------------------------------
# sweep configuration


def test_sweep_config_defaults():
    cfg = SweepConfig()
    assert cfg.eps_list == (0.4, 0.2, 0.1, 0.05)
    assert cfg.samples() == tuple(float(t) for t in np.linspace(0.0, 0.5, 11))
    cfg2 = SweepConfig(sample_times=(0.0, 0.25, 0.5))
    assert cfg2.samples() == (0.0, 0.25, 0.5)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"eps_list": ()},
        {"eps_list": (0.4, -0.2)},
        {"eps_list": (0.2, 0.4)},
        {"eps_list": (0.2, 0.2)},
        {"dim": 1},
        {"t_end": 0.0},
        {"sample_times": (0.0, 0.6)},
        {"sample_times": (0.2, 0.1)},
        {"s_index": 0},
        {"s_index": 12, "n": 32},
        {"initial": "vortex_sheet"},
        {"kappa0": -0.1},
        {"cfl": 1.5},
        {"model": ModelKind.AC, "s_index": 2},
        # the grid rules are TorusGrid's, checked when the config is built
        {"n": 63},
        {"n": 6, "s_index": 1},
    ],
)
def test_sweep_config_rejects(kwargs):
    with pytest.raises(ValueError):
        SweepConfig(**kwargs)


# ---------------------------------------------------------------------------
# sweep runs (short horizons so the suite stays fast; the long-horizon rates
# live in the acceptance tests)


def smoke_config(**overrides):
    kwargs = dict(
        model=ModelKind.CH,
        eps_list=(0.4, 0.2),
        n=32,
        t_end=0.02,
        sample_times=(0.0, 0.01, 0.02),
    )
    kwargs.update(overrides)
    return SweepConfig(**kwargs)


def test_run_sweep_smoke():
    c = Constitutive()
    res = run_sweep(smoke_config(), c)
    assert len(res.records) == 2
    assert res.sample_times == (0.0, 0.01, 0.02)
    for rec in res.records:
        assert not rec.failed
        for fam in FAMILIES:
            v = getattr(rec, fam)
            assert math.isfinite(v) and v > 0
        assert len(rec.distance_trace) == 3
        assert len(rec.full_trace) == 3
        # well-prepared data starts near the limit manifold and stays inside
        # the acceptance envelope eps + 2 distance(0)
        dist0 = rec.distance_trace[0]
        assert dist0 > 0
        assert all(d <= rec.eps + 2.0 * dist0 for d in rec.distance_trace)
        # the full modulated energy dominates the distance part
        assert all(f >= d for f, d in zip(rec.full_trace, rec.distance_trace))
    assert set(res.slopes) == set(FAMILIES)
    # the phase perturbation enters at order eps, but on this short horizon
    # the phase error the O(eps^2) density deviation drives (through -Lap
    # phi/rho in mu) dominates it: the squared sup-norm fits slope 3.79
    assert res.slopes["err_phi"][0] == pytest.approx(3.79, abs=0.1)


def test_sweep_density_errors_measure_the_departure_from_the_balance():
    # err_rho and err_grad_rho measure rho - 1 - eps^2 pi/P'(1) against the
    # reference's pressure pi, not rho - 1: at t = 0 that leaves the kappa0
    # part eps^2 kappa0 r1 alone, r1 of unit H^3 norm
    kappa0 = 0.37
    res = run_sweep(smoke_config(sample_times=(0.0,), kappa0=kappa0), Constitutive())
    for rec in res.records:
        assert rec.err_rho == pytest.approx(rec.eps**4 * kappa0**2, rel=1e-9)
    a, b = res.records
    assert a.err_grad_rho / a.eps**4 == pytest.approx(b.err_grad_rho / b.eps**4, rel=1e-9)
    # along the run it stays a fraction of the signal eps^4 ||pi/P'(1)||^2
    res = run_sweep(smoke_config(), Constitutive())
    g = TorusGrid(2, 32)
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    signal = hs_norm(Field(g, _incompressible_pressure(u0, phi0, Constitutive()) / 2.0), 3) ** 2
    for rec in res.records:
        assert rec.err_rho < 0.5 * rec.eps**4 * signal, (rec.eps, rec.err_rho)


def test_run_sweep_deterministic_and_parallel_agree():
    c = Constitutive()
    r1 = run_sweep(smoke_config(), c)
    r2 = run_sweep(smoke_config(), c)
    r3 = run_sweep(smoke_config(), c, parallel=2)
    for a, b in zip(r1.records, r2.records):
        for fam in FAMILIES:
            assert getattr(a, fam) == getattr(b, fam)
    for a, b in zip(r1.records, r3.records):
        for fam in FAMILIES:
            assert getattr(a, fam) == getattr(b, fam)


def _alloc_record_errors(cfg, eps, comp_traj, ref_traj, ref_offsets, samples):
    """The six errors of a leg with one allocating transform and weight
    table per norm: l2_norm, hs_norm, g.rfft and hermitian_sq on the
    primitive fields, as the sweep formed them before it batched them."""
    s = cfg.s_index
    phi_idx = 1 if cfg.model is ModelKind.CH else 2
    grad_idx = s if cfg.model is ModelKind.CH else s - 2
    g = TorusGrid(cfg.dim, cfg.n)
    bessel = 1.0 + g.rk_squared
    rho_w = bessel**s
    grad_w = g._rik2 * bessel**grad_idx
    sup = [0.0] * 5
    integrand = []
    for (_, cs), (_, ris), offset in zip(comp_traj, ref_traj, ref_offsets):
        ue, phie = primitives(cs)
        du = [Field(g, a.values - b.values) for a, b in zip(ue, ris.u)]
        du2 = sum(l2_norm(x) ** 2 for x in du)
        dphi = Field(g, phie.values - ris.phi.values)
        dphi2 = hs_norm(dphi, phi_idx) ** 2
        rh = g.rfft(cs.rho.values - 1.0 - eps**2 * offset)
        now = (du2, dphi2, du2 + dphi2, hermitian_sq(g, rh, rho_w), hermitian_sq(g, rh, grad_w))
        sup = [max(a, b) for a, b in zip(sup, now)]
        integrand.append(
            sum(hs_norm(x, 1) ** 2 for x in du) + hs_norm(dphi, 3) ** 2
        )
    err_int = float(np.trapezoid(np.asarray(integrand), np.asarray(samples)))
    return [*sup, err_int]


@pytest.mark.parametrize("model", [ModelKind.CH, ModelKind.AC])
def test_eval_record_equals_the_allocating_formulas_bit_for_bit(model):
    # one batch_rfft per sample and weights built once per record: every
    # error keeps the bits of the per-norm transforms
    c = Constitutive()
    cfg = smoke_config(model=model, eps_list=(0.2, 0.1))
    samples = cfg.samples()
    g = TorusGrid(cfg.dim, cfg.n)
    u0, phi0 = initial_from_preset(cfg.initial, g)
    stepper_cfg = sweep_module._reference_stepper_config(cfg)
    ref = integrate(IncompressibleState(u0, phi0, model), c, stepper_cfg, samples)
    p1 = float(c.pressure_prime(1.0))
    offsets = [_incompressible_pressure(ris.u, ris.phi, c) / p1 for _, ris in ref]
    parts = _prepared_parts(u0, phi0, cfg.seed, c)
    res = run_sweep(cfg, c)
    for rec, eps in zip(res.records, cfg.eps_list):
        leg = sweep_module._run_compressible_leg(cfg, c, parts, eps, samples)
        want = [v.hex() for v in _alloc_record_errors(cfg, eps, leg, ref, offsets, samples)]
        got = sweep_module._eval_record(cfg, c, eps, leg, ref, offsets, samples)
        assert [getattr(got, fam).hex() for fam in FAMILIES] == want
        assert [getattr(rec, fam).hex() for fam in FAMILIES] == want


def test_stiff_sweep_err_u_falls_like_eps_squared_to_a_floor():
    # the constant P(1)/eps^2 leaves the momentum flux before its transform,
    # so at stiff eps the O(1) pressure fluctuation keeps its digits; the
    # pressure-balanced data put every eps <= 1e-5 on the floor, so the
    # rate is fitted over the legs above it
    eps_list = (1e-2, 3e-3, 1e-3, 1e-5, 1e-7, 1e-8)
    cfg = SweepConfig(model=ModelKind.AC, eps_list=eps_list, n=32, t_end=0.5)
    res = run_sweep(cfg, Constitutive())
    err = [rec.err_u for rec in res.records]
    assert not any(rec.failed for rec in res.records)
    # from eps 1e-3 down, err_u stays under the eps^2 line through that leg
    scale = err[2] / eps_list[2] ** 2
    floor = 1e-13
    for eps, e in zip(eps_list[2:], err[2:]):
        assert e <= max(2.0 * scale * eps**2, floor), (eps, e)
    # the eps^2 fall is seen above the floor, not only bounded
    assert err[3] <= 1e-3 * err[2]
    above = [(eps, e) for eps, e in zip(eps_list, err) if e > floor]
    assert len(above) >= 3, err
    assert fit_rate(above)[0] > 1.5


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace the sweep's process pool by one that runs each leg inline
    and starts no process; returns the max_workers of each pool made."""
    seen = []

    class InlinePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", InlinePool)
    return seen


def test_run_sweep_caps_workers_at_the_leg_count(inline_pool):
    # a fork-based pool starts all max_workers processes at the first
    # submit, so --parallel 64 on a 2-leg sweep must ask for 2
    cfg = smoke_config()
    res = run_sweep(cfg, Constitutive(), parallel=64)
    assert inline_pool and all(k <= len(cfg.eps_list) for k in inline_pool)
    assert [r.eps for r in res.records] == list(cfg.eps_list)
    assert not any(r.failed for r in res.records)


@pytest.mark.parametrize("parallel", [1, 2], ids=["serial", "pool"])
def test_run_sweep_builds_the_prepared_data_once(inline_pool, monkeypatch, parallel):
    # pi0/P'(1) and the seeded perturbations do not depend on eps: one build
    # per sweep, which every leg scales, in the caller or in a pool
    built = []

    def counted(*args):
        built.append(args)
        return _prepared_parts(*args)

    monkeypatch.setattr(sweep_module, "_prepared_parts", counted)
    cfg = smoke_config(eps_list=(0.4, 0.2, 0.1), sample_times=(0.0, 0.01))
    res = run_sweep(cfg, Constitutive(), parallel=parallel)
    assert len(built) == 1
    assert not any(r.failed for r in res.records)


def test_run_sweep_reuses_the_initial_pressure(monkeypatch):
    # _prepared_parts solves pi0 from (u0, phi0), the reference's t = 0
    # sample; the reference solves it again only at the later samples
    calls = []
    real = dynamics_module._incompressible_pressure

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dynamics_module, "_incompressible_pressure", counted)
    cfg = smoke_config(sample_times=None)
    res = run_sweep(cfg, Constitutive())
    assert len(res.sample_times) == 11
    assert len(calls) == 11
    assert not any(r.failed for r in res.records)


def test_serial_sweep_holds_one_leg_at_a_time(monkeypatch):
    # each leg's trajectory is freed once its record is made, before the
    # next leg is integrated
    class Trajectory(list):
        pass

    held = []
    live = []
    real = sweep_module._run_compressible_leg

    def tracked(*args, **kwargs):
        live.append(sum(ref() is not None for ref in held))
        traj = Trajectory(real(*args, **kwargs))
        held.append(weakref.ref(traj))
        return traj

    monkeypatch.setattr(sweep_module, "_run_compressible_leg", tracked)
    cfg = smoke_config(eps_list=(0.4, 0.2, 0.1), sample_times=(0.0, 0.01))
    res = run_sweep(cfg, Constitutive())
    assert live == [0, 0, 0]
    assert not any(r.failed for r in res.records)


@pytest.mark.parametrize("parallel", [1, 2], ids=["serial", "pool"])
def test_run_sweep_records_failed_leg(inline_pool, parallel):
    # a perturbation amplitude far beyond well-prepared scaling drives the
    # density negative; the leg must be recorded, not crash the sweep,
    # whether it ran in the caller or in a pool
    c = Constitutive()
    cfg = smoke_config(eps_list=(0.4,), sample_times=(0.0, 0.02), kappa0=2000.0)
    res = run_sweep(cfg, c, parallel=parallel)
    assert inline_pool == ([] if parallel == 1 else [1])
    rec = res.records[0]
    assert rec.failed
    assert re.fullmatch(
        r"make_compressible: density reached -\S+ at grid index \(\d+, \d+\)", rec.reason
    )
    assert math.isnan(rec.err_u)
    assert res.slopes == {}


# ---------------------------------------------------------------------------
# acoustic dispersion probe


def test_dispersion_matches_linear_prediction():
    c = Constitutive()
    measured, predicted = acoustic_dispersion_check(
        0.5, 1, 1e-4, c, n=32, n_periods=2.5
    )
    assert predicted == pytest.approx(math.sqrt(2.0) / 0.5, rel=1e-12)
    assert measured == pytest.approx(predicted, rel=5e-3)


def test_dispersion_validation():
    c = Constitutive()
    with pytest.raises(ValueError):
        acoustic_dispersion_check(0.0, 1, 1e-5, c, n=32)
    with pytest.raises(ValueError):
        acoustic_dispersion_check(0.5, 0, 1e-5, c, n=32)
    with pytest.raises(ValueError):
        acoustic_dispersion_check(0.5, 11, 1e-5, c, n=32)
    with pytest.raises(ValueError):
        acoustic_dispersion_check(0.5, 1, 0.0, c, n=32)
    with pytest.raises(ValueError):
        acoustic_dispersion_check(0.5, 1, math.nan, c, n=32)
    with pytest.raises(ValueError):
        # amplitude cap scales with eps^2
        acoustic_dispersion_check(0.2, 1, 1e-4, c, n=32)
    with pytest.raises(ValueError, match="floor 1e-14"):
        # below the floor 1 + amplitude*cos(kx) rounds the mode away: at
        # eps 1e-7 the cap 1e-3*eps^2 is under half an ulp of 1
        acoustic_dispersion_check(1e-7, 1, 1e-3 * 1e-7**2, c, n=32)
    with pytest.raises(ValueError, match="floor"):
        acoustic_dispersion_check(0.2, 1, 3e-15, c, n=32)


def test_dispersion_needs_enough_crossings():
    c = Constitutive()
    with pytest.raises(NumericsError):
        acoustic_dispersion_check(0.5, 1, 1e-4, c, n=32, n_periods=0.4)
