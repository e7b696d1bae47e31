"""End-to-end acceptance suite.

Each test covers one headline guarantee: exact operator identities,
conserved integrals, energy decay across all four model/regime pairings,
an independent ODE oracle, the linear acoustic dispersion relation, the
low-Mach convergence-rate studies for both phase models, the modulated
energy bound, Picard contraction with first-order accuracy, and bitwise
deterministic artifacts.  A PASS/FAIL line per test is printed (visible
under ``pytest -s``).  The two long eps sweeps are session fixtures shared
by the rate, modulated-energy, and trace tests; everything else runs in
seconds.
"""

import csv
import json
import math
import os

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from torusflow.cli import _run_row
from torusflow.cli import main as cli_main
from torusflow.constitutive import Constitutive, ModelKind
from torusflow.diagnostics import (
    energy_compressible,
    energy_incompressible,
    modulated_energy,
)
from torusflow.dynamics import (
    IncompressibleState,
    _leray_hat,
    initial_from_preset,
    make_compressible,
    well_prepared_initial,
)
from torusflow.spectral import (
    Field,
    TorusGrid,
    VectorField,
    _div_hat,
    batch_irfft,
    batch_rfft,
    hermitian_sq,
    l2_norm,
)
from torusflow.stepper import (
    PicardOptions,
    StepperConfig,
    acoustic_dt,
    integrate,
    picard_step,
)
from torusflow.sweep import SweepConfig, run_sweep

from field_ops import constant_field, random_band_limited

# Frozen regression constants for the modulated-energy envelope, calibrated
# once from the default sweep (observed sup_t distance/eps: 0.28 conserved,
# 0.46 relaxational; distance(T)/eps at most 0.22) and frozen with >2x margin.
DIST_OVER_EPS_BOUND = 1.0
ENVELOPE_A = 1.0
ENVELOPE_B = 2.0


def verdict(tag: str, ok: bool, detail: str):
    print(f"acceptance [{tag}]: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"[{tag}] {detail}"


# legs are deterministic one by one, so the worker count changes no result
_WORKERS = min(4, os.cpu_count() or 1)


@pytest.fixture(scope="session")
def ch_sweep():
    return run_sweep(SweepConfig(model=ModelKind.CH), Constitutive(), parallel=_WORKERS)


@pytest.fixture(scope="session")
def ac_sweep():
    return run_sweep(SweepConfig(model=ModelKind.AC), Constitutive(), parallel=_WORKERS)


# ---------------------------------------------------------------------------
# 1. operator identities on random band-limited fields


def test_operator_identities():
    # the band operators every step applies: the symbols _bik_stack and
    # bk_squared, _div_hat, the band transforms and the Leray projection of
    # rhs_incompressible_hat
    g = TorusGrid(2, 32)
    ik, k2 = g._bik_stack, g.bk_squared
    spectra = np.empty((3, *g.bshape), dtype=complex)
    div = np.empty((2, *g.bshape), dtype=complex)
    tmp = np.empty((3, *g.bshape), dtype=complex)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        f = random_band_limited(g, rng, 8)
        h = random_band_limited(g, rng, 8)
        a, b = rng.uniform(-2, 2, size=2)
        comb = a * f.values + b * h.values
        fh, hh, ch = batch_rfft(g, [f.values, h.values, comb], out=spectra)

        grad_c, grad_f, grad_h = (batch_irfft(g, ik * x) for x in (ch, fh, hh))
        lin_g = float(np.max(np.abs(grad_c - a * grad_f - b * grad_h)))
        lap_c, lap_f, lap_h = batch_irfft(g, [-k2 * x for x in (ch, fh, hh)])
        lin_l = float(np.max(np.abs(lap_c - a * lap_f - b * lap_h)))
        _div_hat(ik, ik * fh, div[0], div[1])
        div_grad = float(np.max(np.abs(batch_irfft(g, div[:1])[0] - lap_f)))

        parseval = abs(
            l2_norm(f) ** 2 - hermitian_sq(g, fh, 1.0)
        ) / max(l2_norm(f) ** 2, 1e-30)

        pv = _leray_hat(g, np.stack([fh, hh]), tmp)
        ppv = _leray_hat(g, pv.copy(), tmp)
        idem = float(np.max(np.abs(batch_irfft(g, ppv) - batch_irfft(g, pv))))
        _div_hat(ik, pv, div[0], div[1])
        solenoidal = float(np.max(np.abs(batch_irfft(g, div[:1])[0])))

        worst = max(worst, lin_g, lin_l, div_grad, parseval, idem, solenoidal)
    verdict(
        "operator-identities",
        worst <= 1e-11,
        f"max identity residual {worst:.3e} over 50 fields (tol 1e-11)",
    )


# ---------------------------------------------------------------------------
# 2. conserved integrals over a long compressible run


def test_conservation_long_run():
    # the mass and phase-mass columns of `torusflow run`'s rows
    g = TorusGrid(2, 32)
    c = Constitutive()
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    s = well_prepared_initial(u0, phi0, 0.2, 0.1, 0, ModelKind.CH)
    cfg = StepperConfig(scheme="rk4", cfl=0.2, t_end=0.5)
    traj = integrate(s, c, cfg, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    rows = [_run_row(st, c, t) for t, st in traj]

    def drift(key):
        # maximum drift relative to max(|initial|, 1)
        v0 = rows[0][key]
        return max(abs(r[key] - v0) for r in rows) / max(abs(v0), 1.0)

    mass, phase_mass = drift("mass"), drift("phase_mass")
    ok = mass < 1e-10 and phase_mass < 1e-10
    verdict(
        "conservation",
        ok,
        f"relative drifts: mass {mass:.3e}, "
        f"phase mass {phase_mass:.3e} (tol 1e-10)",
    )


# ---------------------------------------------------------------------------
# 3. energy decay for every model/regime pairing


def test_energy_dissipation_all_pairings():
    g = TorusGrid(2, 32)
    c = Constitutive()
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    samples = [float(t) for t in np.linspace(0.0, 0.25, 11)]
    cfg = StepperConfig(scheme="rk4", cfl=0.2, t_end=0.25)

    details = []
    ok = True
    for model in ModelKind:
        for regime in ("compressible", "incompressible"):
            if regime == "compressible":
                s = well_prepared_initial(u0, phi0, 0.2, 0.1, 0, model)
                traj = integrate(s, c, cfg, samples)
                energies = [energy_compressible(st, c).total for _, st in traj]
            else:
                s = IncompressibleState(u0, phi0, model)
                traj = integrate(s, c, cfg, samples)
                energies = [energy_incompressible(st, c).total for _, st in traj]
            slack = [
                e1 - e0 - 1e-6 * (t1 - t0)
                for (t0, e0), (t1, e1) in zip(
                    zip(samples, energies), zip(samples[1:], energies[1:])
                )
            ]
            worst = max(slack)
            ok = ok and worst <= 0.0
            details.append(f"{model.value}/{regime}: max slack {worst:.2e}")
    verdict("energy-decay", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 4. uniform relaxational dynamics against an independent ODE oracle


def test_uniform_relaxation_ode_oracle():
    g = TorusGrid(2, 16)
    c = Constitutive()
    phi0 = 0.5
    s = make_compressible(
        1.0,
        constant_field(g, 1.0),
        VectorField((constant_field(g, 0.0), constant_field(g, 0.0))),
        constant_field(g, phi0),
        ModelKind.AC,
    )
    # the production path: integrate's default scheme at 1000 fixed steps
    s = integrate(s, c, StepperConfig(dt_override=1e-3, t_end=1.0))[-1][1]
    phi_num = float(np.max(s.q.values / s.rho.values))
    phi_spread = float(np.ptp(s.q.values / s.rho.values))

    e = math.exp(1.0)
    closed = phi0 * e / math.sqrt(1.0 + phi0**2 * (e**2 - 1.0))
    ivp = solve_ivp(
        lambda t, p: p - p**3, (0.0, 1.0), [phi0], rtol=1e-12, atol=1e-14
    ).y[0, -1]
    assert abs(closed - ivp) < 1e-11, "closed form disagrees with the integrator"

    err = abs(phi_num - closed)
    verdict(
        "ode-oracle",
        err < 1e-9 and phi_spread < 1e-12,
        f"|phi(1) - oracle| = {err:.3e} (tol 1e-9), field spread {phi_spread:.1e}",
    )


# ---------------------------------------------------------------------------
# 5. acoustic dispersion relation


def test_acoustic_dispersion_relation():
    from torusflow.sweep import acoustic_dispersion_check

    c = Constitutive()
    details = []
    ok = True
    for eps, k in ((0.2, 1), (0.1, 1), (0.1, 2)):
        measured, predicted = acoustic_dispersion_check(
            eps, k, 1e-3 * eps**2, c, n=32
        )
        rel = abs(measured - predicted) / predicted
        ok = ok and rel <= 0.02
        details.append(f"(eps={eps}, k={k}): rel err {rel:.2e}")
    verdict("dispersion", ok, "; ".join(details) + " (tol 2e-2)")


# ---------------------------------------------------------------------------
# 6./7. low-Mach convergence rates


def _rate_check(tag, result, bars):
    assert not any(r.failed for r in result.records), (
        f"[{tag}] failed legs: "
        f"{[(r.eps, r.reason) for r in result.records if r.failed]}"
    )
    details = []
    ok = True
    for family, bar in bars.items():
        slope, _, r2 = result.slopes[family]
        ok = ok and slope >= bar
        details.append(f"{family}: slope {slope:.2f} >= {bar} (r2 {r2:.3f})")
    verdict(tag, ok, "; ".join(details))


def test_conserved_phase_convergence_rates(ch_sweep):
    _rate_check(
        "rates-conserved-phase",
        ch_sweep,
        {"err_combined": 0.8, "err_rho": 1.6, "err_grad_rho": 3.2},
    )


def test_relaxational_phase_convergence_rates(ac_sweep):
    _rate_check(
        "rates-relaxational-phase",
        ac_sweep,
        {"err_combined": 0.8, "err_rho": 0.8, "err_grad_rho": 3.2},
    )


# ---------------------------------------------------------------------------
# 8. modulated-energy distance stays controlled


def test_modulated_energy_bound(ch_sweep):
    worst_ratio = 0.0
    worst_env = -math.inf
    for rec in ch_sweep.records:
        dist0 = rec.distance_trace[0]
        worst_ratio = max(worst_ratio, rec.distance_trace[-1] / rec.eps)
        for d in rec.distance_trace:
            worst_env = max(
                worst_env, d - (ENVELOPE_A * rec.eps + ENVELOPE_B * dist0)
            )

    g = TorusGrid(2, 64)
    c = Constitutive()
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    cs = make_compressible(0.2, constant_field(g, 1.0), u0, phi0, ModelKind.CH)
    inc = IncompressibleState(u0, phi0, ModelKind.CH)
    _, dist_same = modulated_energy(cs, inc, c)

    ok = (
        worst_ratio <= DIST_OVER_EPS_BOUND
        and worst_env <= 0.0
        and abs(dist_same) <= 1e-12
    )
    verdict(
        "modulated-energy",
        ok,
        f"max distance(T)/eps {worst_ratio:.3f} <= {DIST_OVER_EPS_BOUND}, "
        f"envelope slack {worst_env:.3e} <= 0, "
        f"identical-state distance {dist_same:.1e} (tol 1e-12)",
    )


# ---------------------------------------------------------------------------
# 9. Picard contraction and first-order accuracy


def _state_gap(a, b):
    return float(
        np.sqrt(
            sum(
                l2_norm(Field(a.grid, x - y)) ** 2
                for x, y in zip(a.as_arrays(), b.as_arrays())
            )
        )
    )


def test_picard_contraction_and_order():
    g = TorusGrid(2, 32)
    c = Constitutive()
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    s0 = well_prepared_initial(u0, phi0, 0.2, 0.1, 0, ModelKind.CH)
    dt = acoustic_dt(0.2, g, c, cfl=0.25, umax=0.0)
    cfg = StepperConfig(
        scheme="picard", picard=PicardOptions(tol=1e-10, max_iter=50), t_end=1.0
    )

    s = s0
    ratios = []
    for _ in range(50):
        s, rep = picard_step(s, dt, c, cfg)
        assert rep.converged, "picard iteration failed to converge"
        ratios.extend(rep.ratios)
    max_ratio = max(ratios)

    t_end = 50 * dt
    ref = integrate(
        s0, c, StepperConfig(scheme="rk4", cfl=0.4, t_end=t_end), [t_end]
    )[-1][1]
    gap_coarse = _state_gap(s, ref)

    s = s0
    for _ in range(100):
        s, rep = picard_step(s, dt / 2.0, c, cfg)
        assert rep.converged
    gap_fine = _state_gap(s, ref)
    halving = gap_fine / gap_coarse

    ok = max_ratio < 1.0 and 0.375 <= halving <= 0.625
    verdict(
        "picard",
        ok,
        f"max contraction ratio {max_ratio:.3f} < 1 over {len(ratios)} iterations; "
        f"dt-halving gap ratio {halving:.3f} in [0.375, 0.625]",
    )


# ---------------------------------------------------------------------------
# 10. determinism and artifact IO


def test_determinism_and_io(tmp_path):
    from torusflow.io import read_snapshot, write_snapshot

    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(
        json.dumps(
            {
                "model": "nsch",
                "grid": {"dim": 2, "n": 32},
                "sweep": {
                    "eps_list": [0.4, 0.2],
                    "t_end": 0.02,
                    "sample_times": [0.0, 0.01, 0.02],
                    "seed": 0,
                },
            }
        )
    )
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert cli_main(["sweep", "--config", str(sweep_cfg), "--out", str(out1)]) == 0
    assert cli_main(["sweep", "--config", str(sweep_cfg), "--out", str(out2)]) == 0
    names = ("sweep_errors.csv", "sweep_slopes.csv", "sweep_modulated.csv")
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes() for name in names
    )

    g = TorusGrid(2, 32)
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    s = well_prepared_initial(u0, phi0, 0.3, 0.1, 11, ModelKind.CH)
    snap = tmp_path / "state.bin"
    write_snapshot(s, snap, time=0.125)
    back = read_snapshot(snap)
    bit_exact = all(
        np.array_equal(a, b) for a, b in zip(s.as_arrays(), back.as_arrays())
    ) and back.eps == s.eps

    verdict(
        "determinism-io",
        identical and bit_exact,
        f"sweep CSVs byte-identical: {identical}; snapshot round-trip bit-exact: "
        f"{bit_exact}",
    )
