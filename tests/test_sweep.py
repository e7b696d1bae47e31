import math
import re
from concurrent.futures import Future

import numpy as np
import pytest

import torusflow.sweep as sweep_module
from torusflow.constitutive import Constitutive, ModelKind
from torusflow.errors import NumericsError
from torusflow.sweep import (
    SweepConfig,
    acoustic_dispersion_check,
    fit_rate,
    run_sweep,
    with_eps_list,
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


def test_with_eps_list():
    cfg = with_eps_list(SweepConfig(), [0.3, 0.15])
    assert cfg.eps_list == (0.3, 0.15)
    assert cfg.n == SweepConfig().n


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
        # well-prepared data starts near the limit manifold and drifts away
        assert rec.distance_trace[0] < rec.distance_trace[-1]
        # the full modulated energy dominates the distance part
        assert all(f >= d for f, d in zip(rec.full_trace, rec.distance_trace))
    assert set(res.slopes) == set(FAMILIES)
    # the phase perturbation enters at order eps, so its squared sup-norm
    # fits slope two even on this short horizon
    assert res.slopes["err_phi"][0] == pytest.approx(2.0, abs=0.1)


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

        def submit(self, fn, *args):
            fut = Future()
            try:
                fut.set_result(fn(*args))
            except Exception as exc:
                fut.set_exception(exc)
            return fut

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
