"""Constitutive laws: barotropic pressure and viscosities, on arrays.

The pressure is the power law p_e(rho) = a * rho**gamma.  Its elastic
potential omega satisfies rho * omega'(rho) - omega(rho) = p_e(rho) with
omega(1) = 0 (so omega'(1) = p_e(1)); energy comparisons downstream use
the relative form omega(rho) - p_e(1) * (rho - 1), which is nonnegative
by convexity.  The laws act on floats and arrays (collocation values),
not on Fields.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class ModelKind(enum.Enum):
    """Phase dynamics: conserved (CH) or relaxational (AC)."""

    CH = "nsch"
    AC = "nsac"


@dataclass(frozen=True)
class Constitutive:
    """Material parameters.

    The viscosities are affine in (rho - 1, phi^2),

        nu(rho, phi) = nu0 + nu_rho (rho - 1) + nu_phi phi^2

    and likewise eta, clamped pointwise to [*_star, *_upper] so they stay
    positive.  With every slope 0 the law is the constant one, nu0 and eta0
    exactly, and the kernels take their constant-coefficient path (see
    constant_viscosity).
    """

    gamma: float = 2.0
    pressure_coeff: float = 1.0
    nu0: float = 0.1
    nu_rho: float = 0.0
    nu_phi: float = 0.0
    eta0: float = 0.1
    eta_rho: float = 0.0
    eta_phi: float = 0.0
    nu_star: float = 1e-4
    nu_upper: float = 100.0
    eta_star: float = 1e-4
    eta_upper: float = 100.0

    def __post_init__(self):
        if not self.gamma >= 1.0:
            raise ValueError(f"gamma must be >= 1, got {self.gamma}")
        if not self.pressure_coeff > 0.0:
            raise ValueError(f"pressure_coeff must be positive, got {self.pressure_coeff}")
        for name in ("nu_rho", "nu_phi", "eta_rho", "eta_phi"):
            if not np.isfinite(slope := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {slope}")
        for lo, hi, name in (
            (self.nu_star, self.nu_upper, "nu"),
            (self.eta_star, self.eta_upper, "eta"),
        ):
            if not (0.0 < lo <= hi):
                raise ValueError(f"{name} clamp bounds must satisfy 0 < lower <= upper")
        if not (self.nu_star <= self.nu0 <= self.nu_upper):
            raise ValueError("nu0 must lie inside its clamp bounds")
        if not (self.eta_star <= self.eta0 <= self.eta_upper):
            raise ValueError("eta0 must lie inside its clamp bounds")

    # -- pressure family -------------------------------------------------

    def pressure(self, rho):
        r = np.asarray(rho, dtype=float)
        return self.pressure_coeff * r**self.gamma

    def pressure_prime(self, rho):
        r = np.asarray(rho, dtype=float)
        return self.pressure_coeff * self.gamma * r ** (self.gamma - 1.0)

    def omega(self, rho, out=None):
        """Elastic potential: a*rho*(rho^(g-1) - 1)/(g-1), a*rho*log(rho) at g=1.

        Given an array ``out``, every step but the g = 1 product a*rho is
        written there (the energy reports pass a workspace buffer).
        """
        r = np.asarray(rho, dtype=float)
        a, g = self.pressure_coeff, self.gamma
        if abs(g - 1.0) < 1e-12:
            return np.multiply(a * r, np.log(r, out=out), out=out)
        res = np.power(r, g - 1.0, out=out)
        res = np.subtract(res, 1.0, out=out)
        res = np.multiply(r, res, out=out)
        res = np.divide(res, g - 1.0, out=out)
        return np.multiply(a, res, out=out)

    # -- viscosities ------------------------------------------------------

    @property
    def constant_viscosity(self) -> bool:
        """True when every slope is 0, so nu = nu0 and eta = eta0 everywhere."""
        return self.nu_rho == self.nu_phi == self.eta_rho == self.eta_phi == 0.0

    def viscosity_nu(self, rho, phi):
        r = np.asarray(rho, dtype=float)
        p = np.asarray(phi, dtype=float)
        raw = self.nu0 + self.nu_rho * (r - 1.0) + self.nu_phi * p * p
        return np.clip(raw, self.nu_star, self.nu_upper)

    def viscosity_eta(self, rho, phi):
        r = np.asarray(rho, dtype=float)
        p = np.asarray(phi, dtype=float)
        raw = self.eta0 + self.eta_rho * (r - 1.0) + self.eta_phi * p * p
        return np.clip(raw, self.eta_star, self.eta_upper)

