"""Pseudo-spectral two-phase flow on the periodic torus.

Compressible and incompressible Navier-Stokes coupled to conserved
(Cahn-Hilliard) or relaxational (Allen-Cahn) phase dynamics, plus a sweep
harness measuring the low-Mach convergence rates.
"""

from .constitutive import Constitutive, ModelKind
from .diagnostics import (
    EnergyReport,
    energy_compressible,
    energy_incompressible,
    modulated_energy,
)
from .dynamics import (
    CompressibleState,
    IncompressibleState,
    PRESETS,
    initial_from_preset,
    make_compressible,
    primitives,
    single_mode,
    taylor_green_bubble,
    well_prepared_initial,
)
from .errors import ConfigError, NumericsError, SnapshotError, VacuumError
from .io import (
    RunConfig,
    load_config,
    load_sweep_config,
    read_snapshot,
    snapshot_header,
    write_snapshot,
    write_timeseries,
)
from .spectral import (
    Field,
    TorusGrid,
    VectorField,
    divergence,
    hs_norm,
    integral,
    l2_norm,
    refine,
)
from .stepper import (
    PicardOptions,
    PicardReport,
    StepperConfig,
    acoustic_dt,
    default_dt,
    integrate,
    picard_step,
    step_compressible_rk4,
    step_incompressible_rk4,
)
from .sweep import (
    EpsRecord,
    SweepConfig,
    SweepResult,
    acoustic_dispersion_check,
    fit_rate,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "CompressibleState",
    "ConfigError",
    "Constitutive",
    "EnergyReport",
    "EpsRecord",
    "Field",
    "IncompressibleState",
    "ModelKind",
    "NumericsError",
    "PRESETS",
    "PicardOptions",
    "PicardReport",
    "RunConfig",
    "SnapshotError",
    "StepperConfig",
    "SweepConfig",
    "SweepResult",
    "TorusGrid",
    "VacuumError",
    "VectorField",
    "acoustic_dispersion_check",
    "acoustic_dt",
    "default_dt",
    "divergence",
    "energy_compressible",
    "energy_incompressible",
    "fit_rate",
    "hs_norm",
    "initial_from_preset",
    "integral",
    "integrate",
    "l2_norm",
    "load_config",
    "load_sweep_config",
    "make_compressible",
    "modulated_energy",
    "picard_step",
    "primitives",
    "read_snapshot",
    "refine",
    "run_sweep",
    "single_mode",
    "snapshot_header",
    "step_compressible_rk4",
    "step_incompressible_rk4",
    "taylor_green_bubble",
    "well_prepared_initial",
    "write_snapshot",
    "write_timeseries",
]
