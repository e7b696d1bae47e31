"""Config parsing, snapshot persistence, CSV emission.

Configs are strict JSON: unknown keys are rejected with their location so a
typo never silently falls back to a default.  Snapshots are a one-line JSON
header followed by concatenated little-endian float64 arrays in physical
representation, row-major, in header order; the round trip is bit-exact.
The state classes (``dynamics.STATES``) give each regime's field names and
array layout.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, get_args, get_type_hints

import numpy as np

from .constitutive import Constitutive, ModelKind
from .dynamics import STATES, CompressibleState, _check_eps, _check_initial
from .errors import ConfigError, SnapshotError
from .spectral import TorusGrid
from .stepper import PicardOptions, StepperConfig, _check_scheme
from .sweep import SweepConfig

SNAPSHOT_SCHEMA_VERSION = 1

_REQUIRED = object()


@dataclass(frozen=True)
class RunConfig:
    """One run's settings; each value rule raises a ValueError here or in
    the function that owns it."""

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

    def __post_init__(self):
        if self.regime not in STATES:
            raise ValueError(f"regime must be one of {sorted(STATES)}, got {self.regime!r}")
        if (self.eps is None) == (self.regime == CompressibleState.REGIME):
            raise ValueError(
                f"eps is required in the compressible regime and forbidden in the "
                f"incompressible one, got eps = {self.eps} in regime {self.regime!r}"
            )
        if self.eps is not None:
            _check_eps(self.eps)
        _check_initial(self.initial, self.kappa0, self.seed)
        _check_scheme(self.stepper.scheme, self.regime)
        if self.sample_cadence < 1:
            raise ValueError(f"sample_cadence must be >= 1, got {self.sample_cadence}")


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
            kinds.__name__
            if isinstance(kinds, type)
            else "/".join("null" if k is type(None) else k.__name__ for k in kinds)
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
# the JSON types each kind accepts; a tuple is a list of finite numbers
_JSON_KINDS = {float: _NUM, int: (int,), str: (str,), tuple: (list,)}


def _kinds(cls, *skip) -> dict:
    """The kinds of a dataclass's fields, in field order, skip left out."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if f.name not in skip}


def _options(sec: dict, where: str, **kinds) -> dict:
    """Pop the block's keys, each of its kind (float, int, str, tuple, or an
    Optional of one), and reject any other key.  A float takes any number
    and returns it as a float; a tuple takes a list of finite numbers and
    returns a tuple of floats.  A key that is absent, or null where its kind
    admits None, is left out of the result."""
    out = {}
    for key, kind in kinds.items():
        base, *null = get_args(kind) or (kind,)
        val = _take(sec, key, _JSON_KINDS[base] + tuple(null), where, default=None)
        if val is None:
            continue
        if base is tuple:
            if not all(_is_number(x) and _finite(x) for x in val):
                raise ConfigError(f"key '{key}' in {where} must be a list of finite numbers")
            val = tuple(float(x) for x in val)
        out[key] = float(val) if base is float else val
    _no_leftovers(sec, where)
    return out


def _build(cls, kwargs: dict, where: str):
    """cls(**kwargs), whose ValueError is a ConfigError naming where."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def _parse_constitutive(sec: dict) -> Constitutive:
    kwargs = _options(sec, "constitutive", **_kinds(Constitutive))
    return _build(Constitutive, kwargs, "constitutive block")


def _parse_stepper(sec: dict) -> StepperConfig:
    has_picard = "picard" in sec
    pic_sec = _section(sec, "picard", "stepper")
    picard = _options(pic_sec, "stepper.picard", **_kinds(PicardOptions))
    kwargs = _options(sec, "stepper", **_kinds(StepperConfig, "picard"))
    # the block tunes the "picard" scheme alone; any other would ignore it
    scheme = kwargs.get("scheme", StepperConfig.scheme)
    if has_picard and scheme != "picard":
        raise ConfigError(
            f"stepper.picard applies to scheme 'picard' only, got scheme {scheme!r}"
        )
    kwargs["picard"] = _build(PicardOptions, picard, "stepper block")
    return _build(StepperConfig, kwargs, "stepper block")


def _parse_grid(sec: dict) -> TorusGrid:
    kwargs = {"dim": 2, "n": 64, **_options(sec, "grid", **_kinds(TorusGrid))}
    return _build(TorusGrid, kwargs, "grid block")


def _parse_model(raw: str) -> ModelKind:
    try:
        return ModelKind(raw)
    except ValueError:
        valid = ", ".join(m.value for m in ModelKind)
        raise ConfigError(f"key 'model' must be one of {{{valid}}}, got {raw!r}") from None


def load_config(path) -> RunConfig:
    """Parse a run config into a RunConfig, which checks its values; unknown
    keys are errors."""
    raw = _load_json(path)
    where = "top level"
    model = _parse_model(_take(raw, "model", str, where))
    regime = _take(raw, "regime", str, where)
    eps = _take(raw, "eps", _NUM, where, default=None)
    grid = _parse_grid(_section(raw, "grid", where))
    constitutive = _parse_constitutive(_section(raw, "constitutive", where))
    stepper = _parse_stepper(_section(raw, "stepper", where))
    init = _options(
        _section(raw, "initial", where), "initial", preset=str, kappa0=float, seed=int
    )
    out = _options(
        _section(raw, "output", where), "output", directory=str, sample_cadence=int
    )
    _no_leftovers(raw, where)
    kwargs = dict(
        model=model,
        regime=regime,
        grid=grid,
        constitutive=constitutive,
        stepper=stepper,
        eps=float(eps) if eps is not None else None,
        initial=init.get("preset", "taylor_green_bubble"),
        kappa0=init.get("kappa0", 0.1),
        seed=init.get("seed", 0),
        outdir=out.get("directory"),
        sample_cadence=out.get("sample_cadence", 10),
    )
    return _build(RunConfig, kwargs, "run config")


def load_sweep_config(path):
    """Parse a sweep config; returns (SweepConfig, Constitutive)."""
    raw = _load_json(path)
    where = "top level"
    model = _parse_model(_take(raw, "model", str, where))
    grid = _parse_grid(_section(raw, "grid", where))
    constitutive = _parse_constitutive(_section(raw, "constitutive", where))
    kinds = _kinds(SweepConfig, "model", "n", "dim")
    # the sweep block names SweepConfig.initial "preset"
    kinds = {("preset" if k == "initial" else k): v for k, v in kinds.items()}
    kwargs = _options(_section(raw, "sweep", where), "sweep", **kinds)
    kwargs["initial"] = kwargs.pop("preset", SweepConfig.initial)
    _no_leftovers(raw, where)
    kwargs.update(model=model, n=grid.n, dim=grid.dim)
    return _build(SweepConfig, kwargs, "sweep block"), constitutive


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


def write_snapshot(state, path, time: float = 0.0):
    """One-line JSON header plus little-endian float64 payload."""
    if not isinstance(state, tuple(STATES.values())):
        raise TypeError(f"unsupported state type {type(state)!r}")
    g = state.grid
    header = {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "time": time,
        "model": state.model.value,
        "regime": state.REGIME,
        "eps": getattr(state, "eps", None),
        "dim": g.dim,
        "n": g.n,
        "fields": state.field_names(g.dim),
    }
    arrays = state.as_arrays()
    payload = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(payload)


def _parse_header(path, line: bytes) -> dict:
    """The checked header of a snapshot, from its first line."""
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


def snapshot_header(path) -> dict:
    with open(path, "rb") as fh:
        return _parse_header(path, fh.readline())


def read_snapshot(path):
    """Inverse of write_snapshot; bit-exact round trip.  Opens the file once."""
    with open(path, "rb") as fh:
        header = _parse_header(path, fh.readline())
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
    cls = STATES.get(regime) if isinstance(regime, str) else None
    if cls is None:
        raise SnapshotError(f"{path}: unknown regime {regime!r}")
    layout = cls.field_names(dim)
    if names != layout:
        raise SnapshotError(
            f"{path}: fields {names!r} do not match the {dim}-d {regime} layout {layout}"
        )
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
    eps = header.get("eps")
    if cls is CompressibleState:
        if eps is None:
            raise SnapshotError(f"{path}: compressible snapshot lacks eps")
        if not _is_number(eps):
            raise SnapshotError(f"{path}: snapshot eps must be a number, got {eps!r}")
    # eps and payload values are checked by the state types
    try:
        return cls.from_arrays(grid, arrays, model, eps)
    except (OverflowError, TypeError, ValueError) as exc:
        raise SnapshotError(f"{path}: inconsistent snapshot: {exc}") from exc


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
