"""Config parsing, snapshot persistence, CSV emission.

Configs are strict JSON: unknown keys are rejected with their location so a
typo never silently falls back to a default.  Snapshots are a one-line JSON
header followed by concatenated little-endian float64 arrays in physical
representation, row-major, in header order; the round trip is bit-exact.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .constitutive import Constitutive, ModelKind
from .dynamics import CompressibleState, IncompressibleState, PRESETS
from .errors import ConfigError, SnapshotError
from .spectral import Field, TorusGrid, VectorField
from .stepper import PicardOptions, StepperConfig
from .sweep import SweepConfig

SNAPSHOT_SCHEMA_VERSION = 1

_REQUIRED = object()


@dataclass(frozen=True)
class RunConfig:
    model: ModelKind
    regime: str
    grid: TorusGrid
    constitutive: Constitutive
    stepper: StepperConfig
    eps: Optional[float]
    initial: str
    kappa0: float
    seed: int
    outdir: Optional[str]
    sample_cadence: int


def _finite(x) -> bool:
    """True for a number that converts to a finite float."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _take(d: dict, key: str, kinds, where: str, default=_REQUIRED):
    if key not in d:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key '{key}' in {where}")
        return default
    val = d.pop(key)
    if kinds is not None and not isinstance(val, kinds):
        names = (
            kinds.__name__ if isinstance(kinds, type) else "/".join(k.__name__ for k in kinds)
        )
        raise ConfigError(
            f"key '{key}' in {where} must be {names}, got {type(val).__name__}"
        )
    # bool is an int subclass; keep them apart
    if kinds is not None and isinstance(val, bool):
        wants_bool = kinds is bool or (isinstance(kinds, tuple) and bool in kinds)
        if not wants_bool:
            raise ConfigError(f"key '{key}' in {where} must be a number, got bool")
    # json accepts NaN and Infinity, and overlong literals overflow a float
    if _is_number(val) and not _finite(val):
        raise ConfigError(f"key '{key}' in {where} must be a finite number, got {val!r}")
    return val


def _no_leftovers(d: dict, where: str):
    if d:
        raise ConfigError(f"unknown key '{next(iter(d))}' in {where}")


def _section(d: dict, key: str, where: str) -> dict:
    sec = _take(d, key, dict, where, default=None)
    return dict(sec) if sec is not None else {}


_NUM = (int, float)


def _parse_constitutive(sec: dict) -> Constitutive:
    where = "constitutive"
    kwargs = {}
    for name in (
        "gamma",
        "pressure_coeff",
        "nu0",
        "nu_rho",
        "nu_phi",
        "eta0",
        "eta_rho",
        "eta_phi",
        "nu_star",
        "nu_upper",
        "eta_star",
        "eta_upper",
    ):
        val = _take(sec, name, _NUM, where, default=None)
        if val is not None:
            kwargs[name] = float(val)
    _no_leftovers(sec, where)
    try:
        return Constitutive(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid constitutive block: {exc}") from exc


def _parse_stepper(sec: dict) -> StepperConfig:
    where = "stepper"
    has_picard = "picard" in sec
    pic_sec = _section(sec, "picard", where)
    pic_kwargs = {}
    tol = _take(pic_sec, "tol", _NUM, "stepper.picard", default=None)
    if tol is not None:
        pic_kwargs["tol"] = float(tol)
    max_iter = _take(pic_sec, "max_iter", int, "stepper.picard", default=None)
    if max_iter is not None:
        pic_kwargs["max_iter"] = max_iter
    _no_leftovers(pic_sec, "stepper.picard")

    kwargs = {}
    scheme = _take(sec, "scheme", str, where, default=None)
    if scheme is not None:
        kwargs["scheme"] = scheme
    # the block tunes the "picard" scheme alone; any other would ignore it
    if has_picard and scheme != "picard":
        raise ConfigError(
            f"stepper.picard applies to scheme 'picard' only, got scheme "
            f"{scheme or StepperConfig.scheme!r}"
        )
    cfl = _take(sec, "cfl", _NUM, where, default=None)
    if cfl is not None:
        kwargs["cfl"] = float(cfl)
    if "dt_override" in sec:
        dt = sec.pop("dt_override")
        if dt is not None and not (_is_number(dt) and _finite(dt)):
            raise ConfigError(
                f"key 'dt_override' in stepper must be a finite number or null, got {dt!r}"
            )
        kwargs["dt_override"] = float(dt) if dt is not None else None
    t_end = _take(sec, "t_end", _NUM, where, default=None)
    if t_end is not None:
        kwargs["t_end"] = float(t_end)
    _no_leftovers(sec, where)
    try:
        return StepperConfig(picard=PicardOptions(**pic_kwargs), **kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid stepper block: {exc}") from exc


def _parse_grid(sec: dict) -> TorusGrid:
    where = "grid"
    dim = _take(sec, "dim", int, where, default=2)
    n = _take(sec, "n", int, where, default=64)
    _no_leftovers(sec, where)
    try:
        return TorusGrid(dim, n)
    except ValueError as exc:
        raise ConfigError(f"invalid grid block: {exc}") from exc


def _parse_model(raw: str) -> ModelKind:
    try:
        return ModelKind(raw)
    except ValueError:
        valid = ", ".join(m.value for m in ModelKind)
        raise ConfigError(f"key 'model' must be one of {{{valid}}}, got {raw!r}") from None


def load_config(path) -> RunConfig:
    """Parse and validate a run config; unknown keys are errors."""
    raw = _load_json(path)
    where = "top level"
    model = _parse_model(_take(raw, "model", str, where))
    regime = _take(raw, "regime", str, where)
    if regime not in ("compressible", "incompressible"):
        raise ConfigError(
            f"key 'regime' must be 'compressible' or 'incompressible', got {regime!r}"
        )
    eps = _take(raw, "eps", _NUM, where, default=None)
    if regime == "compressible" and eps is None:
        raise ConfigError("missing required key 'eps' (compressible regime)")
    if regime == "incompressible" and eps is not None:
        raise ConfigError("key 'eps' is only valid in the compressible regime")
    if eps is not None and eps <= 0:
        raise ConfigError(f"key 'eps' must be positive, got {eps}")

    grid = _parse_grid(_section(raw, "grid", where))
    constitutive = _parse_constitutive(_section(raw, "constitutive", where))
    stepper = _parse_stepper(_section(raw, "stepper", where))

    init = _section(raw, "initial", where)
    preset = _take(init, "preset", str, "initial", default="taylor_green_bubble")
    if preset not in PRESETS:
        raise ConfigError(
            f"unknown preset {preset!r} in initial; available: {sorted(PRESETS)}"
        )
    kappa0 = float(_take(init, "kappa0", _NUM, "initial", default=0.1))
    if kappa0 < 0:
        raise ConfigError(f"key 'kappa0' in initial must be nonnegative, got {kappa0}")
    seed = _take(init, "seed", int, "initial", default=0)
    if seed < 0:
        raise ConfigError(f"key 'seed' in initial must be >= 0, got {seed}")
    _no_leftovers(init, "initial")

    out = _section(raw, "output", where)
    outdir = _take(out, "directory", str, "output", default=None)
    cadence = _take(out, "sample_cadence", int, "output", default=10)
    if cadence < 1:
        raise ConfigError(f"key 'sample_cadence' in output must be >= 1, got {cadence}")
    _no_leftovers(out, "output")
    _no_leftovers(raw, where)

    if grid.dim < 2 and regime == "incompressible":
        raise ConfigError("incompressible regime requires dim = 2")
    if stepper.scheme == "picard" and regime == "incompressible":
        raise ConfigError("scheme 'picard' applies to the compressible regime only")
    return RunConfig(
        model=model,
        regime=regime,
        grid=grid,
        constitutive=constitutive,
        stepper=stepper,
        eps=float(eps) if eps is not None else None,
        initial=preset,
        kappa0=kappa0,
        seed=seed,
        outdir=outdir,
        sample_cadence=cadence,
    )


def load_sweep_config(path):
    """Parse a sweep config; returns (SweepConfig, Constitutive)."""
    raw = _load_json(path)
    where = "top level"
    model = _parse_model(_take(raw, "model", str, where))
    grid = _parse_grid(_section(raw, "grid", where))
    constitutive = _parse_constitutive(_section(raw, "constitutive", where))

    sec = _section(raw, "sweep", where)
    kwargs = {"model": model, "n": grid.n, "dim": grid.dim}
    eps_list = _take(sec, "eps_list", list, "sweep", default=None)
    if eps_list is not None:
        if not all(_is_number(e) and _finite(e) for e in eps_list):
            raise ConfigError("key 'eps_list' in sweep must be a list of finite numbers")
        kwargs["eps_list"] = tuple(float(e) for e in eps_list)
    t_end = _take(sec, "t_end", _NUM, "sweep", default=None)
    if t_end is not None:
        kwargs["t_end"] = float(t_end)
    if "sample_times" in sec:
        st = sec.pop("sample_times")
        if st is not None:
            if not isinstance(st, list) or not all(_is_number(t) and _finite(t) for t in st):
                raise ConfigError(
                    "key 'sample_times' in sweep must be a list of finite numbers or null"
                )
            kwargs["sample_times"] = tuple(float(t) for t in st)
    s_index = _take(sec, "s_index", int, "sweep", default=None)
    if s_index is not None:
        kwargs["s_index"] = s_index
    preset = _take(sec, "preset", str, "sweep", default=None)
    if preset is not None:
        kwargs["initial"] = preset
    kappa0 = _take(sec, "kappa0", _NUM, "sweep", default=None)
    if kappa0 is not None:
        kwargs["kappa0"] = float(kappa0)
    seed = _take(sec, "seed", int, "sweep", default=None)
    if seed is not None:
        kwargs["seed"] = seed
    cfl = _take(sec, "cfl", _NUM, "sweep", default=None)
    if cfl is not None:
        kwargs["cfl"] = float(cfl)
    _no_leftovers(sec, "sweep")
    _no_leftovers(raw, where)
    try:
        return SweepConfig(**kwargs), constitutive
    except ValueError as exc:
        raise ConfigError(f"invalid sweep block: {exc}") from exc


def _load_json(path) -> dict:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    try:
        raw = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long to parse
        raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {p} must contain a JSON object at the top level")
    return raw


# ---------------------------------------------------------------------------
# snapshots


def _state_fields(state):
    if isinstance(state, CompressibleState):
        names = ["rho"] + [f"mom_{ax}" for ax in "xy"[: state.grid.dim]] + ["q"]
        arrays = state.as_arrays()
        return "compressible", names, arrays, state.eps
    if isinstance(state, IncompressibleState):
        names = [f"u_{ax}" for ax in "xy"[: state.grid.dim]] + ["phi"]
        return "incompressible", names, state.as_arrays(), None
    raise TypeError(f"unsupported state type {type(state)!r}")


def write_snapshot(state, path, time: float = 0.0):
    """One-line JSON header plus little-endian float64 payload."""
    regime, names, arrays, eps = _state_fields(state)
    g = state.grid
    header = {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "time": time,
        "model": state.model.value,
        "regime": regime,
        "eps": eps,
        "dim": g.dim,
        "n": g.n,
        "fields": names,
    }
    payload = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(payload)


def snapshot_header(path) -> dict:
    with open(path, "rb") as fh:
        line = fh.readline()
    try:
        header = json.loads(line.decode())
    except ValueError as exc:  # undecodable bytes or malformed JSON
        raise SnapshotError(f"{path}: malformed snapshot header: {exc}") from exc
    if not isinstance(header, dict):
        raise SnapshotError(f"{path}: snapshot header must be a JSON object")
    version = header.get("schema_version")
    if version != SNAPSHOT_SCHEMA_VERSION:
        raise SnapshotError(
            f"{path}: unsupported schema_version {version!r} "
            f"(this build reads {SNAPSHOT_SCHEMA_VERSION})"
        )
    time = header.get("time")
    if not (_is_number(time) and _finite(time)):
        raise SnapshotError(f"{path}: snapshot time must be a finite number, got {time!r}")
    return header


def read_snapshot(path):
    """Inverse of write_snapshot; bit-exact round trip."""
    header = snapshot_header(path)
    with open(path, "rb") as fh:
        fh.readline()
        payload = fh.read()
    try:
        dim = header["dim"]
        n = header["n"]
        names = header["fields"]
        regime = header["regime"]
        model = ModelKind(header["model"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"{path}: incomplete snapshot header: {exc}") from exc
    if type(dim) is not int or type(n) is not int:
        raise SnapshotError(f"{path}: dim and n must be integers, got {dim!r} and {n!r}")
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise SnapshotError(f"{path}: fields must be a list of names, got {names!r}")
    try:
        grid = TorusGrid(dim, n)
    except ValueError as exc:
        raise SnapshotError(f"{path}: bad snapshot grid: {exc}") from exc
    expected = len(names) * n**dim * 8
    if len(payload) != expected:
        raise SnapshotError(
            f"{path}: payload holds {len(payload)} bytes, expected {expected} "
            f"({len(names)} fields of {n}^{dim} float64)"
        )
    arrays = []
    for i in range(len(names)):
        chunk = payload[i * n**dim * 8 : (i + 1) * n**dim * 8]
        arrays.append(
            np.frombuffer(chunk, dtype="<f8").astype(float).reshape(grid.shape)
        )
    # field counts, eps and payload values are checked by the state types
    try:
        if regime == "compressible":
            eps = header.get("eps")
            if eps is None:
                raise SnapshotError(f"{path}: compressible snapshot lacks eps")
            if not _is_number(eps):
                raise SnapshotError(f"{path}: snapshot eps must be a number, got {eps!r}")
            rho = Field(grid, arrays[0])
            mom = VectorField(tuple(Field(grid, a) for a in arrays[1:-1]))
            return CompressibleState(float(eps), rho, mom, Field(grid, arrays[-1]), model)
        if regime == "incompressible":
            u = VectorField(tuple(Field(grid, a) for a in arrays[:-1]))
            return IncompressibleState(u, Field(grid, arrays[-1]), model)
    except (IndexError, OverflowError, TypeError, ValueError) as exc:
        raise SnapshotError(f"{path}: inconsistent snapshot: {exc}") from exc
    raise SnapshotError(f"{path}: unknown regime {regime!r}")


# ---------------------------------------------------------------------------
# CSV emission


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            raise ValueError(f"non-finite value {v!r} in timeseries row")
        return format(v, ".17g")
    return str(value)


def write_timeseries(rows, path, columns=None):
    """Write dict rows as CSV with 17-significant-digit floats.

    ``columns`` fixes the header order; it defaults to the keys of the first
    row and is required when rows is empty.
    """
    rows = list(rows)
    if columns is None:
        if not rows:
            raise ValueError("columns are required to write an empty timeseries")
        columns = list(rows[0].keys())
    formatted = []
    for i, row in enumerate(rows):
        missing = [k for k in columns if k not in row]
        if missing:
            raise ValueError(f"row {i} lacks column {missing[0]!r}")
        extra = [k for k in row if k not in columns]
        if extra:
            raise ValueError(f"row {i} has unexpected column {extra[0]!r}")
        formatted.append([_format_cell(row[k]) for k in columns])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(formatted)
