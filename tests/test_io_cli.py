import ast
import csv
import dataclasses
import functools
import json
import math
import re
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import torusflow.cli as cli_module
import torusflow.stepper as stepper_module
from torusflow.cli import main
from torusflow.constitutive import Constitutive, ModelKind
from torusflow.diagnostics import energy_compressible
from torusflow.dynamics import (
    CompressibleState,
    IncompressibleState,
    PRESETS,
    initial_from_preset,
    make_compressible,
    well_prepared_initial,
)
from torusflow.errors import ConfigError, NumericsError, SnapshotError
from torusflow.io import (
    SNAPSHOT_SCHEMA_VERSION,
    RunConfig,
    load_config,
    load_sweep_config,
    read_snapshot,
    snapshot_header,
    write_snapshot,
    write_timeseries,
)
from torusflow.spectral import Field, TorusGrid, VectorField
from torusflow.stepper import PicardOptions, StepperConfig, default_dt, integrate, picard_step
from torusflow.sweep import SweepConfig

from field_ops import constant_field


def write_json(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def base_run_config(**overrides):
    cfg = {
        "model": "nsch",
        "regime": "compressible",
        "eps": 0.2,
    }
    cfg.update(overrides)
    return cfg


# ---------------------------------------------------------------------------
# run config parsing


def test_load_config_minimal_defaults(tmp_path):
    p = write_json(tmp_path, "run.json", base_run_config())
    cfg = load_config(p)
    assert cfg.model is ModelKind.CH
    assert cfg.regime == "compressible"
    assert cfg.eps == 0.2
    assert cfg.grid.dim == 2 and cfg.grid.n == 64
    assert cfg.constitutive.gamma == 2.0
    assert cfg.stepper.scheme == "rk4"
    assert cfg.initial == "taylor_green_bubble"
    assert cfg.kappa0 == 0.1
    assert cfg.seed == 0
    assert cfg.outdir is None
    assert cfg.sample_cadence == 10


def test_load_config_full_roundtrip(tmp_path):
    # every key set; the picard block goes with its scheme, which runs
    # compressible states only
    payload = {
        "model": "nsac",
        "regime": "compressible",
        "eps": 0.3,
        "grid": {"dim": 2, "n": 32},
        "constitutive": {"gamma": 1.4, "nu0": 0.05, "nu_phi": 0.2},
        "stepper": {
            "scheme": "picard",
            "cfl": 0.3,
            "dt_override": 1e-4,
            "t_end": 0.25,
            "picard": {"tol": 1e-9, "max_iter": 20},
        },
        "initial": {"preset": "single_mode", "kappa0": 0.05, "seed": 7},
        "output": {"directory": "out", "sample_cadence": 5},
    }
    cfg = load_config(write_json(tmp_path, "run.json", payload))
    assert cfg.model is ModelKind.AC
    assert cfg.regime == "compressible"
    assert cfg.eps == 0.3
    assert cfg.grid.n == 32
    assert cfg.constitutive.gamma == 1.4
    assert cfg.constitutive.nu_phi == 0.2
    assert not cfg.constitutive.constant_viscosity
    assert cfg.stepper.scheme == "picard"
    assert cfg.stepper.dt_override == 1e-4
    assert cfg.stepper.picard.tol == 1e-9
    assert cfg.stepper.picard.max_iter == 20
    assert cfg.initial == "single_mode"
    assert cfg.kappa0 == 0.05
    assert cfg.seed == 7
    assert cfg.outdir == "out"
    assert cfg.sample_cadence == 5


def test_load_config_null_dt_override(tmp_path):
    payload = base_run_config(stepper={"dt_override": None})
    cfg = load_config(write_json(tmp_path, "run.json", payload))
    assert cfg.stepper.dt_override is None


@pytest.mark.parametrize(
    "payload,fragment",
    [
        (base_run_config(constitutive={"vicosity": 0.1}), "vicosity"),
        (base_run_config(extra_knob=1), "extra_knob"),
        ({"model": "nsch", "regime": "compressible"}, "eps"),
        (base_run_config(regime="incompressible"), "eps"),
        (base_run_config(eps=-0.1), "eps"),
        ({"regime": "compressible", "eps": 0.2}, "model"),
        (base_run_config(model="navier"), "model"),
        (base_run_config(regime="transonic"), "regime"),
        (base_run_config(eps="big"), "eps"),
        (base_run_config(grid={"n": 64.0}), "n"),
        (base_run_config(stepper={"cfl": True}), "cfl"),
        (base_run_config(stepper={"picard": {"warmstart": 1}}), "warmstart"),
        (base_run_config(constitutive={"gamma": 0.5}), "constitutive"),
        (base_run_config(stepper={"cfl": 1.5}), "stepper"),
        (base_run_config(grid={"n": 63}), "grid"),
        (base_run_config(initial={"preset": "vortex"}), "preset"),
        (base_run_config(initial={"kappa0": -1.0}), "kappa0"),
        (base_run_config(output={"sample_cadence": 0}), "sample_cadence"),
        (
            base_run_config(
                regime="incompressible", eps=None, grid={"dim": 1, "n": 32}
            ),
            "dim",
        ),
        # keys removed with the switches they set; each names itself
        (base_run_config(constitutive={"visc_kind": "affine"}), "visc_kind"),
        (base_run_config(stepper={"dealias_each_stage": True}), "dealias_each_stage"),
        (base_run_config(stepper={"picard": {"enabled": True}}), "enabled"),
        # a picard block that no scheme would read, named as such
        (base_run_config(stepper={"picard": {"tol": 1e-3}}), "stepper.picard"),
        (base_run_config(stepper={"scheme": "rk4", "picard": {}}), "stepper.picard"),
        (
            base_run_config(regime="incompressible", eps=None, stepper={"scheme": "picard"}),
            "compressible regime",
        ),
        (base_run_config(grid={"dim": 1, "n": 32}), "grid.dim"),
        # the removed first-order IMEX scheme; the message lists the schemes
        (base_run_config(stepper={"scheme": "imex"}), "'rk4' or 'picard'"),
    ],
)
def test_load_config_rejects(tmp_path, payload, fragment):
    payload = {k: v for k, v in payload.items() if v is not None}
    p = write_json(tmp_path, "bad.json", payload)
    with pytest.raises(ConfigError, match=fragment):
        load_config(p)


def _run_config(**overrides) -> RunConfig:
    kwargs = dict(
        model=ModelKind.CH,
        regime="compressible",
        grid=TorusGrid(2, 16),
        constitutive=Constitutive(),
        stepper=StepperConfig(),
        eps=0.2,
        initial="taylor_green_bubble",
        kappa0=0.1,
        seed=0,
        outdir=None,
        sample_cadence=10,
    )
    kwargs.update(overrides)
    return RunConfig(**kwargs)


@pytest.mark.parametrize(
    "overrides,fragment",
    [
        ({"eps": None}, "eps"),
        ({"regime": "incompressible"}, "eps"),
        ({"eps": -0.1}, "eps"),
        ({"eps": 1e-320}, "eps"),
        ({"regime": "transonic"}, "regime"),
        ({"initial": "vortex"}, "preset"),
        ({"kappa0": -1.0}, "kappa0"),
        ({"seed": -1}, "seed"),
        ({"sample_cadence": 0}, "sample_cadence"),
        ({"regime": "incompressible", "eps": None, "grid": (1, 32)}, "dim"),
        (
            {"regime": "incompressible", "eps": None, "stepper": StepperConfig(scheme="picard")},
            "compressible regime",
        ),
        ({"grid": (1, 32)}, "grid.dim"),
    ],
)
def test_run_config_built_in_python_checks_its_values(overrides, fragment):
    # the value rules load_config enforces belong to RunConfig itself, and
    # the grid rules to the TorusGrid it holds (a (dim, n) pair here)
    assert _run_config().eps == 0.2
    with pytest.raises(ValueError, match=fragment):
        if isinstance(overrides.get("grid"), tuple):
            overrides = {**overrides, "grid": TorusGrid(*overrides["grid"])}
        _run_config(**overrides)


@pytest.mark.parametrize(
    "build",
    [
        lambda: StepperConfig(t_end=math.nan),
        lambda: StepperConfig(dt_override=math.nan),
        lambda: PicardOptions(tol=math.nan),
        lambda: PicardOptions(max_iter=math.nan),
        lambda: Constitutive(gamma=math.nan),
        lambda: Constitutive(pressure_coeff=math.nan),
        lambda: Constitutive(nu_rho=math.nan),
        lambda: Constitutive(nu_phi=math.nan),
        lambda: Constitutive(eta_rho=math.nan),
        lambda: Constitutive(eta_phi=math.nan),
        lambda: SweepConfig(kappa0=math.nan),
        lambda: SweepConfig(t_end=math.nan),
        lambda: _run_config(kappa0=math.nan),
    ],
    ids=[
        "stepper-t_end",
        "stepper-dt_override",
        "picard-tol",
        "picard-max_iter",
        "gamma",
        "pressure_coeff",
        "nu_rho",
        "nu_phi",
        "eta_rho",
        "eta_phi",
        "sweep-kappa0",
        "sweep-t_end",
        "run-kappa0",
    ],
)
def test_config_types_reject_nan(build):
    # a config file cannot carry NaN, but a library caller can; every
    # one-sided range check fails it
    with pytest.raises(ValueError, match="got nan"):
        build()


def test_constitutive_slopes_act_without_a_switch(tmp_path):
    # slopes alone give the affine law: its dissipation on the initial state
    # is not the constant law's (61.65 against 58.08 here)
    payload = base_run_config(
        grid={"n": 32}, constitutive={"nu_phi": 0.5, "eta_rho": 0.3}
    )
    cfg = load_config(write_json(tmp_path, "run.json", payload))
    c = cfg.constitutive
    u0, phi0 = initial_from_preset(cfg.initial, cfg.grid)
    s = well_prepared_initial(u0, phi0, cfg.eps, cfg.kappa0, cfg.seed, cfg.model)
    affine = energy_compressible(s, c).dissipation
    constant = energy_compressible(s, Constitutive(nu0=c.nu0, eta0=c.eta0)).dissipation
    assert affine > 1.05 * constant
    assert c.viscosity_nu(1.0, 1.0) == pytest.approx(0.6, rel=1e-15)
    assert c.viscosity_eta(2.0, 0.0) == pytest.approx(0.4, rel=1e-15)


def test_picard_scheme_loads_and_integrates(tmp_path, monkeypatch):
    payload = base_run_config(
        grid={"n": 32}, stepper={"scheme": "picard", "cfl": 0.25, "t_end": 0.01}
    )
    cfg = load_config(write_json(tmp_path, "run.json", payload))
    assert cfg.stepper.scheme == "picard"
    reports = []

    def counted(*args):
        out = picard_step(*args)
        reports.append(out[1])
        return out

    monkeypatch.setattr(stepper_module, "picard_step", counted)
    u0, phi0 = initial_from_preset(cfg.initial, cfg.grid)
    s0 = well_prepared_initial(u0, phi0, cfg.eps, cfg.kappa0, cfg.seed, cfg.model)
    s = integrate(s0, cfg.constitutive, cfg.stepper)[-1][1]
    assert reports and all(rep.converged for rep in reports)
    assert len(reports) == math.ceil(0.01 / default_dt(s0, cfg.constitutive, cfg.stepper))
    assert all(np.all(np.isfinite(a)) for a in s.as_arrays())


def test_cli_picard_run_at_the_default_cfl_exits_0(tmp_path, capsys):
    # the default cfl gives nsch the acoustic bound, where Picard
    # converges because its resolvent holds the acoustics
    cfg = write_json(tmp_path, "picard.json", {
        "model": "nsch",
        "regime": "compressible",
        "eps": 0.2,
        "grid": {"n": 32},
        "stepper": {"scheme": "picard", "t_end": 0.05},
    })
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert "run complete" in capsys.readouterr().out


def _readme_schema_blocks():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("\n## Config schema\n", 1)[1].split("\n## ", 1)[0]
    return [json.loads(block) for block in re.findall(r"```json\n(.*?)```", section, re.S)]


def test_readme_config_schema_loads(tmp_path):
    # the documented schema passes the strict parser, so the two cannot
    # drift apart unnoticed
    run, sweep_block = _readme_schema_blocks()
    cfg = load_config(write_json(tmp_path, "run.json", run))
    assert cfg.stepper.scheme == run["stepper"]["scheme"]
    assert cfg.constitutive.constant_viscosity
    # the parser takes the constitutive keys from the dataclass, so a new
    # field is a new config key and must be documented
    fields = sorted(f.name for f in dataclasses.fields(Constitutive))
    assert sorted(run["constitutive"]) == fields
    sweep_cfg, _ = load_sweep_config(write_json(tmp_path, "sweep.json", sweep_block))
    assert list(sweep_cfg.eps_list) == sweep_block["sweep"]["eps_list"]
    # "every block is optional and defaults as shown"
    assert cfg.stepper == StepperConfig()
    assert sweep_cfg == SweepConfig()


def test_load_config_bad_files(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{model:")
    with pytest.raises(ConfigError):
        load_config(notjson)
    toplist = tmp_path / "list.json"
    toplist.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(toplist)


# ---------------------------------------------------------------------------
# sweep config parsing


def sweep_payload(**overrides):
    cfg = {
        "model": "nsch",
        "grid": {"dim": 2, "n": 32},
        "sweep": {
            "eps_list": [0.4, 0.2],
            "t_end": 0.02,
            "sample_times": [0.0, 0.01, 0.02],
        },
    }
    cfg.update(overrides)
    return cfg


def test_load_sweep_config(tmp_path):
    p = write_json(tmp_path, "sweep.json", sweep_payload(constitutive={"gamma": 1.4}))
    cfg, c = load_sweep_config(p)
    assert cfg.model is ModelKind.CH
    assert cfg.n == 32
    assert cfg.eps_list == (0.4, 0.2)
    assert cfg.t_end == 0.02
    assert cfg.sample_times == (0.0, 0.01, 0.02)
    assert c.gamma == 1.4


@pytest.mark.parametrize(
    "mutate",
    [
        {"sweep": {"eps_list": [0.4, "x"]}},
        {"sweep": {"eps_list": [0.2, 0.4]}},
        {"sweep": {"relax": 1}},
        {"unknown_section": {}},
        {"sweep": {"eps_list": [0.4, math.nan]}},
        {"sweep": {"eps_list": [math.inf, 0.2]}},
        {"sweep": {"eps_list": [2.0, True]}},
        {"sweep": {"sample_times": [math.nan, 0.01]}},
        {"sweep": {"t_end": math.nan}},
    ],
)
def test_load_sweep_config_rejects(tmp_path, mutate):
    payload = sweep_payload(**mutate)
    with pytest.raises(ConfigError):
        load_sweep_config(write_json(tmp_path, "bad.json", payload))


# ---------------------------------------------------------------------------
# snapshots


def sample_compressible(g):
    rng = np.random.default_rng(5)
    u0, phi0 = initial_from_preset("taylor_green_bubble", g)
    return well_prepared_initial(u0, phi0, 0.3, 0.1, 3, ModelKind.CH)


def test_snapshot_roundtrip_compressible(tmp_path, g2):
    s = sample_compressible(g2)
    path = tmp_path / "snap.bin"
    write_snapshot(s, path, time=0.375)
    header = snapshot_header(path)
    assert header["schema_version"] == SNAPSHOT_SCHEMA_VERSION
    assert header["time"] == 0.375
    assert header["regime"] == "compressible"
    assert header["fields"] == ["rho", "mom_x", "mom_y", "q"]
    back = read_snapshot(path)
    assert isinstance(back, CompressibleState)
    assert back.eps == s.eps
    assert back.model is s.model
    for a, b in zip(s.as_arrays(), back.as_arrays()):
        assert np.array_equal(a, b)


def test_snapshot_roundtrip_incompressible(tmp_path, g2):
    u0, phi0 = initial_from_preset("taylor_green_bubble", g2)
    s = IncompressibleState(u0, phi0, ModelKind.AC)
    path = tmp_path / "snap.bin"
    write_snapshot(s, path)
    back = read_snapshot(path)
    assert isinstance(back, IncompressibleState)
    assert back.model is ModelKind.AC
    for a, b in zip(s.as_arrays(), back.as_arrays()):
        assert np.array_equal(a, b)


def test_snapshot_truncated_payload(tmp_path, g2):
    s = sample_compressible(g2)
    path = tmp_path / "snap.bin"
    write_snapshot(s, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(SnapshotError, match="bytes"):
        read_snapshot(path)


def test_snapshot_bad_header(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"\x00\x01binary junk\n more")
    with pytest.raises(SnapshotError):
        snapshot_header(p)


def test_snapshot_wrong_schema_version(tmp_path, g2):
    s = sample_compressible(g2)
    path = tmp_path / "snap.bin"
    write_snapshot(s, path)
    header_line, _, payload = path.read_bytes().partition(b"\n")
    header = json.loads(header_line)
    header["schema_version"] = 99
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(SnapshotError, match="schema_version"):
        read_snapshot(path)


def test_snapshot_missing_eps(tmp_path, g2):
    s = sample_compressible(g2)
    path = tmp_path / "snap.bin"
    write_snapshot(s, path)
    header_line, _, payload = path.read_bytes().partition(b"\n")
    header = json.loads(header_line)
    header["eps"] = None
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(SnapshotError, match="eps"):
        read_snapshot(path)


def test_snapshot_unknown_regime(tmp_path, g2):
    s = sample_compressible(g2)
    path = tmp_path / "snap.bin"
    write_snapshot(s, path)
    header_line, _, payload = path.read_bytes().partition(b"\n")
    header = json.loads(header_line)
    header["regime"] = "transonic"
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(SnapshotError, match="regime"):
        read_snapshot(path)


def _snapshot_states():
    """A state of each regime and model, a compressible one on two grid
    sizes."""
    g8, g16 = TorusGrid(2, 8), TorusGrid(2, 16)
    u0, phi0 = initial_from_preset("single_mode", g16)
    x = g8.coords()[0]
    along_x = make_compressible(
        0.5,
        Field(g8, 1.0 + 0.1 * np.cos(x)),
        VectorField((Field(g8, np.sin(x)), constant_field(g8, 0.0))),
        Field(g8, np.cos(2 * x)),
        ModelKind.AC,
    )
    return [along_x, sample_compressible(g16), IncompressibleState(u0, phi0, ModelKind.CH)]


@pytest.mark.parametrize("index", range(3))
def test_snapshot_fields_come_from_the_state_class(tmp_path, index):
    s = _snapshot_states()[index]
    dim = s.grid.dim
    path = tmp_path / "snap.bin"
    write_snapshot(s, path)
    header = snapshot_header(path)
    names = type(s).field_names(dim)
    assert header["fields"] == names
    assert header["regime"] == s.REGIME
    assert len(names) == len(s.as_arrays()) == len(set(names))
    back = read_snapshot(path)
    assert type(back) is type(s)
    for a, b in zip(s.as_arrays(), back.as_arrays()):
        assert np.array_equal(a, b)


def test_read_snapshot_opens_the_file_once(tmp_path, g2, monkeypatch):
    import builtins

    path = tmp_path / "snap.bin"
    write_snapshot(sample_compressible(g2), path)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file) == str(path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    read_snapshot(path)
    monkeypatch.undo()
    assert len(opened) == 1


# ---------------------------------------------------------------------------
# CSV emission


def test_timeseries_roundtrip_and_determinism(tmp_path):
    rows = [
        {"time": 0.1, "count": 3, "flag": True},
        {"time": 1.0 / 3.0, "count": -1, "flag": False},
    ]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_timeseries(rows, p1)
    write_timeseries(rows, p2)
    assert p1.read_bytes() == p2.read_bytes()
    with open(p1, newline="") as fh:
        reader = csv.DictReader(fh)
        got = list(reader)
    assert got[0]["flag"] == "true" and got[1]["flag"] == "false"
    assert got[0]["count"] == "3"
    # 17 significant digits round-trip doubles exactly
    assert float(got[1]["time"]) == 1.0 / 3.0


def test_timeseries_column_control(tmp_path):
    rows = [{"a": 1, "b": 2.0}]
    p = tmp_path / "c.csv"
    write_timeseries(rows, p, columns=["b", "a"])
    assert p.read_text().splitlines()[0] == "b,a"
    write_timeseries([], p, columns=["x", "y"])
    assert p.read_text() == "x,y\n"
    with pytest.raises(ValueError):
        write_timeseries([], p)
    with pytest.raises(ValueError):
        write_timeseries([{"a": 1}], p, columns=["a", "b"])
    with pytest.raises(ValueError):
        write_timeseries([{"a": 1, "z": 2}], p, columns=["a"])


def test_timeseries_rejects_nonfinite(tmp_path):
    with pytest.raises(ValueError):
        write_timeseries([{"x": math.nan}], tmp_path / "bad.csv")
    with pytest.raises(ValueError):
        write_timeseries([{"x": math.inf}], tmp_path / "bad.csv")


# ---------------------------------------------------------------------------
# CLI


def run_config_file(tmp_path, **overrides):
    payload = {
        "model": "nsac",
        "regime": "incompressible",
        "grid": {"dim": 2, "n": 16},
        "stepper": {"dt_override": 1e-3, "t_end": 5e-3},
    }
    payload.update(overrides)
    return write_json(tmp_path, "cli_run.json", payload)


def test_cli_run_incompressible(tmp_path, capsys):
    cfg = run_config_file(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "run complete" in text
    with open(out / "timeseries.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # t = 0 row plus the forced final row (5 steps is not a cadence multiple)
    assert len(rows) == 2
    assert rows[0]["time"] == "0"
    assert float(rows[-1]["time"]) == pytest.approx(5e-3)
    assert set(rows[0]) == {
        "time", "kinetic", "gradient", "potential", "total",
        "dissipation", "phase_mass", "div_u_max",
    }
    # the projected flow stays solenoidal
    assert max(float(r["div_u_max"]) for r in rows) < 1e-12
    # energy decays even over this short horizon
    assert float(rows[-1]["total"]) < float(rows[0]["total"])


def test_cli_run_compressible_with_snapshots(tmp_path):
    cfg = run_config_file(
        tmp_path,
        model="nsch",
        regime="compressible",
        eps=0.4,
        stepper={"dt_override": 1e-4, "t_end": 5e-4},
    )
    out = tmp_path / "out"
    code = main(
        ["run", "--config", str(cfg), "--out", str(out), "--quiet",
         "--snapshots-every", "2"]
    )
    assert code == 0
    snaps = sorted(out.glob("snap_*.bin"))
    assert [p.name for p in snaps] == [
        "snap_000000.bin", "snap_000002.bin", "snap_000004.bin", "snap_000005.bin",
    ]
    with open(out / "timeseries.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    masses = [float(r["mass"]) for r in rows]
    assert all(m == pytest.approx(masses[0], rel=1e-12) for m in masses)

    audit_csv = tmp_path / "audit.csv"
    code = main(
        ["audit", "--snapshots", str(out / "snap_*.bin"), "--out", str(audit_csv),
         "--config", str(cfg)]
    )
    assert code == 0
    with open(audit_csv, newline="") as fh:
        arows = list(csv.DictReader(fh))
    assert len(arows) == 4
    assert arows[0]["snapshot"] == "snap_000000.bin"
    assert float(arows[0]["time"]) == 0.0
    assert float(arows[-1]["time"]) == pytest.approx(5e-4)


def test_cli_exit_codes(tmp_path, capsys):
    # 2: missing config file
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    # 2: malformed config
    bad = write_json(tmp_path, "bad.json", base_run_config(vicosity=1))
    assert main(["run", "--config", str(bad)]) == 2
    # 2: bad CLI arguments (argparse failure, message on stderr)
    assert main(["run"]) == 2
    # 2: negative snapshot cadence (a config error, not a silent |N|)
    good = write_json(tmp_path, "good.json", base_run_config())
    out = tmp_path / "neg"
    assert main(["run", "--config", str(good), "--out", str(out),
                 "--snapshots-every", "-2"]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "--snapshots-every" in err and "Traceback" not in err
    # 2: negative seed (numpy's generator would reject it mid-run)
    neg_seed = write_json(tmp_path, "seed.json", base_run_config(initial={"seed": -1}))
    assert main(["run", "--config", str(neg_seed), "--out", str(out)]) == 2
    assert not out.exists()
    # 2: bad dispersion parameters (validation error before any stepping)
    assert main(["dispersion", "--eps", "-1.0", "--k", "1"]) == 2
    # 2: an eps whose probe amplitude 1e-3*eps^2 is below the floor, where
    # the probe read a relative error of 15 and exited 0
    capsys.readouterr()
    assert main(["dispersion", "--eps", "1e-7", "--k", "1"]) == 2
    captured = capsys.readouterr()
    assert "floor" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    # 3: numerical failure (perturbation amplitude drives density negative)
    vac = run_config_file(
        tmp_path,
        model="nsch",
        regime="compressible",
        eps=0.4,
        initial={"kappa0": 5000.0},
        stepper={"dt_override": 1e-4, "t_end": 5e-4},
    )
    assert main(["run", "--config", str(vac), "--out", str(tmp_path / "v")]) == 3
    # 2: a compressible 1-d grid (both presets are 2-d), rejected by the
    # config loader with the key named, and no output directory
    capsys.readouterr()
    flat = write_json(tmp_path, "flat.json", base_run_config(grid={"dim": 1, "n": 32}))
    flat_out = tmp_path / "flat_out"
    assert main(["run", "--config", str(flat), "--out", str(flat_out)]) == 2
    assert not flat_out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error") and "grid.dim" in err
    # 4: unreadable snapshot
    junk = tmp_path / "snap_junk.bin"
    junk.write_bytes(b"\x00\x01 not a snapshot\n")
    assert (
        main(["audit", "--snapshots", str(junk), "--out", str(tmp_path / "a.csv")])
        == 4
    )
    # 2: audit glob with no matches
    assert (
        main(
            ["audit", "--snapshots", str(tmp_path / "zilch_*.bin"),
             "--out", str(tmp_path / "a.csv")]
        )
        == 2
    )
    capsys.readouterr()


@pytest.mark.parametrize(
    "command,payload,extra",
    [
        ("run", base_run_config(eps=1e-320), []),
        ("run", base_run_config(eps=1e200), []),
        ("sweep", {"model": "nsch", "sweep": {"eps_list": [0.4, 1e-200]}}, []),
        ("sweep", {"model": "nsch", "sweep": {"eps_list": [0.4, 0.2]}}, ["--eps", "0.4,1e-170"]),
        ("dispersion", None, ["--eps", "1e200", "--k", "1"]),
    ],
    ids=["run-tiny", "run-huge", "sweep-tiny", "eps-override-tiny", "dispersion-huge"],
)
def test_cli_eps_whose_square_is_not_normal_exits_2(tmp_path, capsys, command, payload, extra):
    # 1/eps**2 overflows below sqrt(sys.float_info.min), eps**2 above
    # sqrt(sys.float_info.max); either is a config error that names eps
    argv = [command, *extra]
    if payload is not None:
        argv += ["--config", str(write_json(tmp_path, "eps.json", payload))]
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "eps" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command,payload",
    [
        ("run", base_run_config(grid={"n": 16}, stepper={"dt_override": 5e-324})),
        ("run", base_run_config(grid={"n": 16}, stepper={"t_end": 1e308})),
        ("sweep", {"model": "nsch", "grid": {"n": 16}, "sweep": {"t_end": 1e308}}),
        ("run", base_run_config(model="nsac", grid={"n": 16}, stepper={"t_end": 1e300})),
    ],
    ids=["run-dt-override", "run-t-end", "sweep-t-end", "run-t-end-finite-count"],
)
def test_cli_step_count_that_overflows_exits_3(tmp_path, capsys, command, payload):
    # integrate forms every step count; one that is not finite, or too large
    # for t + i*dt to tell its steps apart (above 2**53), names its bound
    cfg = write_json(tmp_path, "steps.json", payload)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure") and "step bound" in err
    assert "Traceback" not in err


def test_cli_audit_vacuum_names_the_2x_grid_point(tmp_path, capsys, g2):
    # one negative density value: the report says where and how deep
    s = sample_compressible(g2)
    rho = s.rho.values.copy()
    rho[3, 5] = -0.1
    bad = CompressibleState(s.eps, Field(g2, rho), s.mom, s.q, s.model)
    write_snapshot(bad, tmp_path / "snap_000000.bin")
    rc = main(["audit", "--snapshots", str(tmp_path / "snap_*.bin"),
               "--out", str(tmp_path / "audit.csv")])
    assert rc == 3
    err = capsys.readouterr().err
    assert (
        "energy_compressible (2x grid): density reached -1.000000e-01 "
        "at grid index (6, 10)" in err
    ), err


def test_cli_long_nsac_run_finishes(tmp_path, capsys):
    # 445 eps-free steps to T = 20 at eps 0.05: a ghost in the carried
    # stack's column 0 once drove this run to vacuum at t = 9.49
    cfg = write_json(tmp_path, "long.json", base_run_config(
        model="nsac", eps=0.05, grid={"n": 32}, stepper={"t_end": 20.0},
        output={"sample_cadence": 100000},
    ))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert "run complete" in capsys.readouterr().out


def test_cli_run_value_error_mid_run_exits_3(tmp_path, capsys, monkeypatch):
    # a ValueError from the diagnostics after the initial state is built is
    # a numerical failure, not a config error
    import torusflow.cli as cli_module

    calls = []

    def third_call_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise ValueError("injected diagnostics failure")
        return energy_compressible(*args, **kwargs)

    monkeypatch.setattr(cli_module, "energy_compressible", third_call_fails)
    cfg = run_config_file(
        tmp_path,
        regime="compressible",
        eps=0.2,
        stepper={"dt_override": 1e-4, "t_end": 5e-4},
        output={"sample_cadence": 1},
    )
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3
    assert len(calls) == 3
    assert err.startswith("numerical failure") and "injected" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# the run pipeline: energy rows and snapshots through cli._Sampler


@pytest.fixture(params=["threaded"])
def sampler_mode(request):
    """The sampler runs the reports on its worker thread; no thread outlives
    the run."""
    before = threading.active_count()
    yield request.param
    assert threading.active_count() == before


def _serial_run(cfg_path, outdir, every):
    """The run loop with each row and snapshot made in the observer, as
    the steps reach them: the reference the sampler must reproduce."""
    cfg = load_config(cfg_path)
    state = cli_module._initial_state(cfg)
    c = cfg.constitutive
    outdir.mkdir()
    rows = [cli_module._run_row(state, c, 0.0)]
    if every:
        write_snapshot(state, outdir / "snap_000000.bin", time=0.0)
    steps = 0

    def observer(t, st):
        nonlocal steps
        steps += 1
        if steps % cfg.sample_cadence == 0:
            rows.append(cli_module._run_row(st, c, t))
        if every and steps % every == 0:
            write_snapshot(st, outdir / f"snap_{steps:06d}.bin", time=t)

    t, final = integrate(state, c, cfg.stepper, [cfg.stepper.t_end], observer=observer)[-1]
    if steps % cfg.sample_cadence:
        rows.append(cli_module._run_row(final, c, t))
    if every and steps % every:
        write_snapshot(final, outdir / f"snap_{steps:06d}.bin", time=t)
    write_timeseries(rows, outdir / "timeseries.csv")


def _files(outdir) -> dict:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def _pipeline_config(tmp_path, **overrides):
    payload = {
        "model": "nsac",
        "regime": "compressible",
        "eps": 0.2,
        "grid": {"dim": 2, "n": 16},
        "stepper": {"dt_override": 1e-4, "t_end": 5e-4},
        "output": {"sample_cadence": 1},
    }
    payload.update(overrides)
    return write_json(tmp_path, "pipeline.json", {k: v for k, v in payload.items() if v is not None})


@pytest.mark.parametrize(
    "overrides, every",
    [
        ({"model": "nsch"}, 1),
        ({"model": "nsac"}, 1),
        ({"regime": "incompressible", "eps": None}, 1),
        # 5 steps: a final partial row and a final snapshot off the cadence
        ({"model": "nsch", "output": {"sample_cadence": 3}}, 2),
    ],
    ids=["nsch", "nsac", "incompressible", "cadence3-every2"],
)
def test_run_pipeline_matches_the_serial_loop(tmp_path, sampler_mode, overrides, every):
    cfg = _pipeline_config(tmp_path, **overrides)
    _serial_run(cfg, tmp_path / "serial", every)
    out = tmp_path / "out"
    argv = ["run", "--config", str(cfg), "--out", str(out), "--quiet"]
    assert main(argv + ["--snapshots-every", str(every)]) == 0
    assert _files(out) == _files(tmp_path / "serial")


def _failing_report(monkeypatch, fail_at: int, delay: float = 0.0):
    """Make the fail_at-th energy report (the t = 0 row is the first) raise;
    the calls made are counted in the returned list."""
    calls = []

    def report(*args, **kwargs):
        calls.append(1)
        time.sleep(delay)
        if len(calls) == fail_at:
            raise ValueError("injected report failure")
        return energy_compressible(*args, **kwargs)

    monkeypatch.setattr(cli_module, "energy_compressible", report)
    return calls


def test_run_pipeline_report_failure_stops_later_snapshots(
    tmp_path, capsys, monkeypatch, sampler_mode
):
    # the report of step 3 fails: exit 3, and no snapshot of step 3 or later;
    # slow reports let the stepping run ahead of the failure
    calls = _failing_report(monkeypatch, fail_at=4, delay=0.02)
    cfg = _pipeline_config(tmp_path, stepper={"dt_override": 1e-4, "t_end": 1e-3})
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--snapshots-every", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure") and "injected report failure" in err
    assert len(calls) == 4
    assert sorted(p.name for p in out.iterdir()) == [f"snap_{k:06d}.bin" for k in range(3)]


def test_run_pipeline_unwritable_snapshot_exits_4(tmp_path, capsys, sampler_mode):
    cfg = _pipeline_config(tmp_path)
    out = tmp_path / "out"
    (out / "snap_000002.bin").mkdir(parents=True)
    assert main(["run", "--config", str(cfg), "--out", str(out), "--snapshots-every", "1"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("io error") and "snap_000002.bin" in err
    assert not (out / "snap_000003.bin").exists()


def _failing_step(monkeypatch, fail_at: int):
    """Make the fail_at-th step raise a NumericsError."""
    make = stepper_module._make_stepper

    def failing_make(state, c, cfg):
        step = make(state, c, cfg)
        taken = []

        def run(s, dt):
            taken.append(1)
            if len(taken) == fail_at:
                raise NumericsError("injected step failure")
            return step(s, dt)

        return run

    monkeypatch.setattr(stepper_module, "_make_stepper", failing_make)


def test_run_pipeline_step_failure_waits_for_pending_reports(
    tmp_path, capsys, monkeypatch, sampler_mode
):
    # slow reports are still pending when step 3 fails; each finishes, and
    # the stepping error is the one reported
    calls = _failing_report(monkeypatch, fail_at=None, delay=0.05)
    _failing_step(monkeypatch, fail_at=3)
    cfg = _pipeline_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--snapshots-every", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure") and "injected step failure" in err
    assert len(calls) == 3
    assert sorted(p.name for p in out.iterdir()) == [f"snap_{k:06d}.bin" for k in range(3)]


def test_run_pipeline_earlier_report_failure_wins_over_step_failure(
    tmp_path, capsys, monkeypatch, sampler_mode
):
    # the report of step 1 fails while step 2 fails: the report's error,
    # which came first in step order, is the one reported
    _failing_report(monkeypatch, fail_at=2, delay=0.05)
    _failing_step(monkeypatch, fail_at=2)
    cfg = _pipeline_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "injected report failure" in err and "injected step failure" not in err


def test_run_pipeline_keeps_at_most_two_reports_pending(tmp_path, monkeypatch, sampler_mode):
    done = []

    def slow_report(*args, **kwargs):
        time.sleep(0.02)
        rep = energy_compressible(*args, **kwargs)
        done.append(1)
        return rep

    lags = []

    def lagging_integrate(state, c, cfg, times, observer):
        steps = []

        def watched(t, st):
            observer(t, st)
            steps.append(1)
            # reports submitted (the t = 0 row and one per step) minus finished
            lags.append(1 + len(steps) - len(done))

        return integrate(state, c, cfg, times, observer=watched)

    monkeypatch.setattr(cli_module, "energy_compressible", slow_report)
    monkeypatch.setattr(cli_module, "integrate", lagging_integrate)
    cfg = _pipeline_config(tmp_path, stepper={"dt_override": 1e-4, "t_end": 8e-4})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert len(lags) == 8 and len(done) == 9
    assert max(lags) == 2


def test_run_incompressible_reports_call_no_grid_transform_on_the_sampler(
    tmp_path, monkeypatch
):
    # the benchmark's tracer counts TorusGrid.rfft/irfft without a lock, so
    # the report thread must not call them; it calls the batch transforms
    threads = {"fft": [], "report": []}

    def recorded(fn, key):
        def call(*args, **kwargs):
            threads[key].append(threading.current_thread().name)
            return fn(*args, **kwargs)

        return call

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(TorusGrid, name, recorded(getattr(TorusGrid, name), "fft"))
    monkeypatch.setattr(
        cli_module, "energy_incompressible", recorded(cli_module.energy_incompressible, "report")
    )
    cfg = _pipeline_config(tmp_path, regime="incompressible", eps=None)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert len(threads["report"]) == 6
    assert all(name.startswith("torusflow-sampler") for name in threads["report"])
    assert not [name for name in threads["fft"] if name.startswith("torusflow-sampler")]


@pytest.mark.parametrize(
    "overrides",
    [
        {"stepper": {"t_end": math.inf}},
        {"stepper": {"t_end": math.nan}},
        {"stepper": {"dt_override": math.nan}},
        {"stepper": {"dt_override": math.inf}},
        {"eps": math.nan},
        {"eps": math.inf},
        {"initial": {"kappa0": math.nan}},
        {"constitutive": {"gamma": math.nan}},
        {"grid": {"n": 10**400}},
    ],
)
def test_cli_run_rejects_nonfinite_numbers(tmp_path, capsys, overrides):
    cfg = write_json(tmp_path, "run.json", base_run_config(**overrides))
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error") and "Traceback" not in err
    key = next(iter(overrides.values()))
    key = next(iter(key)) if isinstance(key, dict) else next(iter(overrides))
    assert f"'{key}'" in err


@pytest.mark.parametrize(
    "bad",
    [
        [1, 2],
        {"n": "x"},
        {"fields": 5},
        {"n": 7},
        {"dim": 3},
        {"time": "x"},
        {"eps": math.nan},
        {"eps": math.inf},
        {"eps": True},
        {"time": math.nan},
        # the names must be the writer's, in its order: rho first
        {"fields": ["q", "mom_x", "mom_y", "rho"]},
        {"fields": ["a", "b", "c", "d"]},
        # the 1-d layout with its payload: the grid is 2-d
        {"dim": 1, "fields": ["rho", "mom_x", "q"]},
    ],
)
def test_cli_audit_malformed_header_exits_4(tmp_path, capsys, g2, bad):
    path = tmp_path / "snap_bad.bin"
    write_snapshot(sample_compressible(g2), path)
    line, _, payload = path.read_bytes().partition(b"\n")
    header = bad
    if isinstance(bad, dict):
        header = {**json.loads(line), **bad}
        if any(type(bad.get(k)) is int for k in ("n", "dim")):
            # payload sized to the header, so only the grid itself is wrong
            payload = bytes(8 * len(header["fields"]) * header["n"] ** header["dim"])
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    code = main(["audit", "--snapshots", str(path), "--out", str(tmp_path / "a.csv")])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("io error") and "Traceback" not in err


def sweep_config_file(tmp_path):
    return write_json(
        tmp_path,
        "cli_sweep.json",
        {
            "model": "nsch",
            "grid": {"dim": 2, "n": 32},
            "sweep": {
                "eps_list": [0.4, 0.2],
                "t_end": 0.02,
                "sample_times": [0.0, 0.01, 0.02],
            },
        },
    )


def test_cli_sweep_tables_and_determinism(tmp_path, capsys):
    cfg = sweep_config_file(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("sweep_errors.csv", "sweep_slopes.csv", "sweep_modulated.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    with open(out1 / "sweep_errors.csv", newline="") as fh:
        erows = list(csv.DictReader(fh))
    assert [float(r["eps"]) for r in erows] == [0.4, 0.2]
    assert all(r["failed"] == "false" for r in erows)
    with open(out1 / "sweep_modulated.csv", newline="") as fh:
        mrows = list(csv.DictReader(fh))
    assert len(mrows) == 6
    text = capsys.readouterr().out
    assert "err_u: slope" in text


def test_cli_sweep_eps_override_and_failures(tmp_path, capsys):
    cfg = sweep_config_file(tmp_path)
    out = tmp_path / "s3"
    # single-leg override: no slopes can be fitted
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--eps", "0.4"]) == 0
    assert (out / "sweep_slopes.csv").read_text() == "family,slope,intercept,r2\n"
    # malformed override
    assert main(["sweep", "--config", str(cfg), "--eps", "0.4,zero"]) == 2
    # increasing override violates the sweep contract
    assert main(["sweep", "--config", str(cfg), "--eps", "0.1,0.2"]) == 2
    # bad parallelism
    assert main(["sweep", "--config", str(cfg), "--parallel", "0"]) == 2
    capsys.readouterr()


def test_cli_rejects_eps_past_the_low_mach_range(tmp_path, capsys):
    # taylor_green_bubble's pressure-balanced density falls below 0.75 from
    # eps about 1.1: a run and a sweep there are config errors, before any
    # stepping, that name the eps limit
    run_cfg = write_json(tmp_path, "run.json", base_run_config(eps=1.5, grid={"n": 32}))
    out = tmp_path / "run_out"
    assert main(["run", "--config", str(run_cfg), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error") and "admit eps <=" in err and "Traceback" not in err
    cfg = sweep_config_file(tmp_path)
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--eps", "1.5,0.2"]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error") and "admit eps <=" in err and "Traceback" not in err


def test_cli_sweep_all_failed_exits_3(tmp_path, capsys):
    cfg = write_json(
        tmp_path,
        "cli_sweep_bad.json",
        {
            "model": "nsch",
            "grid": {"dim": 2, "n": 32},
            "sweep": {
                "eps_list": [0.4],
                "t_end": 0.02,
                "sample_times": [0.0, 0.02],
                "kappa0": 5000.0,
            },
        },
    )
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sf")]) == 3
    err = capsys.readouterr().err
    assert "failed" in err
    # the error table still records the leg, with empty error cells
    with open(tmp_path / "sf" / "sweep_errors.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["failed"] == "true"
    assert "density" in rows[0]["reason"]
    assert rows[0]["err_u"] == ""


# ---------------------------------------------------------------------------
# property tests: outside input ends in a valid object or the documented error

_PROPERTY_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)
)

# JSON scalars, plus in-range numbers, the non-finite and overflowing
# values JSON admits, and valid strings, so that a share of the examples
# are valid configs
_SLOT_SCALARS = st.one_of(
    _JSON_SCALARS,
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=12),
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400, 5e-324, 1e-170, 1e308]),
    # "imex" names a scheme that no longer exists: a config error
    st.sampled_from(["rk4", "imex", "picard", "single_mode", "out"]),
)

# key paths of the slots of a run config: every key of the blocks, the
# constitutive ones taken from the dataclass the parser reads them from
_RUN_SLOTS = (
    ("eps",),
    ("grid", "dim"),
    ("grid", "n"),
    *(("constitutive", f.name) for f in dataclasses.fields(Constitutive)),
    ("stepper", "scheme"),
    ("stepper", "cfl"),
    ("stepper", "dt_override"),
    ("stepper", "t_end"),
    ("stepper", "picard", "tol"),
    ("stepper", "picard", "max_iter"),
    ("initial", "preset"),
    ("initial", "kappa0"),
    ("initial", "seed"),
    ("output", "directory"),
    ("output", "sample_cadence"),
)


def run_payload(slots):
    """The base run config with each slot path set to its value."""
    payload = base_run_config()
    if any(path[:2] == ("stepper", "picard") for path in slots):
        # the picard block is read with its own scheme only
        payload["stepper"] = {"scheme": "picard"}
    for path, value in slots.items():
        node = payload
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
    return payload


def _numbers(obj):
    """Every int or float field of a config, nested dataclasses and the
    elements of tuple fields included."""
    for f in dataclasses.fields(obj):
        val = getattr(obj, f.name)
        if dataclasses.is_dataclass(val):
            yield from _numbers(val)
        elif isinstance(val, tuple):
            yield from (x for x in val if isinstance(x, (int, float)))
        elif isinstance(val, (int, float)):
            yield val


@_PROPERTY_SETTINGS
@given(st.dictionaries(st.sampled_from(_RUN_SLOTS), _SLOT_SCALARS, min_size=1, max_size=3))
def test_load_config_yields_finite_numbers_or_config_error(tmp_path, slots):
    try:
        cfg = load_config(write_json(tmp_path, "prop.json", run_payload(slots)))
    except ConfigError:
        return
    assert all(math.isfinite(x) for x in _numbers(cfg))
    # eps**2 is a normal float: 1/eps**2 is finite
    assert cfg.eps is None or cfg.eps**2 >= sys.float_info.min
    assert cfg.seed >= 0  # np.random.default_rng rejects a negative seed
    assert cfg.stepper.scheme in ("rk4", "picard")
    assert cfg.initial in PRESETS
    assert cfg.outdir is None or isinstance(cfg.outdir, str)


# slots of a sweep config: a key of the sweep block, or (key, index) for an
# element of its eps_list or sample_times
_SWEEP_SLOTS = (
    ("eps_list",),
    ("eps_list", 0),
    ("eps_list", 1),
    ("t_end",),
    ("sample_times",),
    ("sample_times", 0),
    ("sample_times", 1),
    ("sample_times", 2),
    ("s_index",),
    ("preset",),
    ("kappa0",),
    ("seed",),
    ("cfl",),
)


def sweep_slots_payload(tmp_path, slots):
    """The CLI sweep config with each slot set; a whole list set to a
    scalar or null overrides its elements."""
    payload = json.loads(sweep_config_file(tmp_path).read_text())
    sec = payload["sweep"]
    for path, value in sorted(slots.items(), key=lambda kv: -len(kv[0])):
        if len(path) == 2:
            sec[path[0]][path[1]] = value
        else:
            sec[path[0]] = value
    return payload


@_PROPERTY_SETTINGS
@given(st.dictionaries(st.sampled_from(_SWEEP_SLOTS), _SLOT_SCALARS, min_size=1, max_size=3))
def test_load_sweep_config_yields_config_or_config_error(tmp_path, slots):
    payload = sweep_slots_payload(tmp_path, slots)
    try:
        cfg, _ = load_sweep_config(write_json(tmp_path, "prop.json", payload))
    except ConfigError:
        return
    assert isinstance(cfg, SweepConfig)
    assert all(math.isfinite(x) for x in _numbers(cfg))
    assert all(eps**2 >= sys.float_info.min for eps in cfg.eps_list)
    assert cfg.seed >= 0  # np.random.default_rng rejects a negative seed
    assert isinstance(cfg.eps_list, tuple) and cfg.initial in PRESETS
    assert cfg.sample_times is None or isinstance(cfg.sample_times, tuple)


def test_null_unsets_only_dt_override_and_sample_times(tmp_path):
    # null elsewhere is a config error, not a silent default
    for path in _RUN_SLOTS:
        p = write_json(tmp_path, "null.json", run_payload({path: None}))
        if path == ("stepper", "dt_override"):
            assert load_config(p).stepper.dt_override is None
        else:
            with pytest.raises(ConfigError, match=path[-1]):
                load_config(p)
    for path in (path for path in _SWEEP_SLOTS if len(path) == 1):
        payload = sweep_slots_payload(tmp_path, {path: None})
        p = write_json(tmp_path, "null.json", payload)
        if path == ("sample_times",):
            assert load_sweep_config(p)[0].sample_times is None
        else:
            with pytest.raises(ConfigError, match=path[0]):
                load_sweep_config(p)


@functools.lru_cache(maxsize=None)
def valid_snapshot_bytes() -> bytes:
    g = TorusGrid(2, 8)
    x = g.coords()[0]
    state = make_compressible(
        0.3,
        Field(g, 1.0 + 0.01 * np.cos(x)),
        VectorField((constant_field(g, 0.1), constant_field(g, 0.0))),
        constant_field(g, 0.5),
        ModelKind.CH,
    )
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "snap.bin"
        write_snapshot(state, path, time=0.5)
        return path.read_bytes()


@st.composite
def snapshot_like_bytes(draw):
    """Arbitrary bytes, a valid snapshot with a spliced-in run of arbitrary
    bytes, or a valid snapshot with one header value replaced."""
    base = valid_snapshot_bytes()
    kind = draw(st.sampled_from(("bytes", "splice", "header")))
    if kind == "bytes":
        return draw(st.binary(max_size=300))
    if kind == "splice":
        i = draw(st.integers(0, len(base)))
        j = draw(st.integers(i, len(base)))
        return base[:i] + draw(st.binary(max_size=16)) + base[j:]
    line, _, payload = base.partition(b"\n")
    header = json.loads(line)
    header[draw(st.sampled_from(sorted(header)))] = draw(_JSON_SCALARS)
    return json.dumps(header).encode() + b"\n" + payload


@_PROPERTY_SETTINGS
@given(snapshot_like_bytes())
def test_read_snapshot_yields_state_or_snapshot_error(tmp_path, data):
    path = tmp_path / "snap.bin"
    path.write_bytes(data)
    try:
        state = read_snapshot(path)
    except SnapshotError:
        return
    assert isinstance(state, (CompressibleState, IncompressibleState))
    if isinstance(state, CompressibleState):
        assert math.isfinite(state.eps) and state.eps > 0


# ---------------------------------------------------------------------------
# package surface


def test_star_import_resolves_every_export():
    import torusflow

    namespace = {}
    exec("from torusflow import *", namespace)
    assert [name for name in torusflow.__all__ if name not in namespace] == []
    assert len(set(torusflow.__all__)) == len(torusflow.__all__)


def test_every_export_is_used_inside_the_package():
    # an export counts as used when another module of the package imports
    # it, or when its own module loads it outside its own definition; a
    # local name in another module that merely shares it does not count
    import torusflow

    pkg = Path(torusflow.__file__).parent
    imported, home, loaded = set(), {}, {}
    for path in pkg.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported.update(
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names
        )
        loaded[path.stem] = set()
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                own = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                own = set()
            home.update(dict.fromkeys(own, path.stem))
            loaded[path.stem].update(
                node.id
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id not in own
            )
    unused = [
        n for n in torusflow.__all__ if n not in imported and n not in loaded[home[n]]
    ]
    assert unused == []
