"""Bath spectral densities and the thermal occupation factor.

Units: hbar = k_B = m = 1 throughout, with frequencies measured in units
of the system frequency omega0 (so omega0 = 1 by default).  The bath is
characterized by the cutoff ratio r = omega_c / omega0, the dimensionless
temperature theta = k_B T / (hbar omega0) and the dimensionless coupling
alpha.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndeterminateAtZeroError, NegativeFrequencyError

__all__ = [
    "BaseSpectralDensity",
    "OhmicLorentzDrude",
    "ReservoirParams",
    "check_model_consistency",
    "spectral_density",
    "thermal_factor",
    "weighted_spectral_density",
]

# The smallest normal double.
_TINY = np.finfo(float).tiny


class BaseSpectralDensity:
    """Extension point for user-supplied spectral densities J(omega).

    Subclasses must provide ``density(omega)`` (vectorized, nonnegative
    for omega >= 0) and declare ``tail_exponent``, the envelope exponent
    p such that J(omega) <= C / omega**p as omega -> infinity.  It gates
    the quadrature: ``check_model_consistency``, run wherever a model
    enters a coefficient or rate, refuses a negative p (a growing J,
    whose kernel integrals the tail cannot complete); any p >= 0 takes
    the same route, so it sets no cut or step.  Override
    ``density_over_omega`` with a closed form when J(omega)/omega has a
    finite omega -> 0 limit, so thermal weighting stays smooth at zero.
    """

    tail_exponent = 1.0

    def density(self, omega):
        raise NotImplementedError

    def density_over_omega(self, omega):
        omega = np.asarray(omega, dtype=float)
        safe = np.maximum(omega, 1e-300)
        return self.density(safe) / safe


@dataclass(frozen=True)
class OhmicLorentzDrude(BaseSpectralDensity):
    """Ohmic spectral density with a Lorentz-Drude cutoff.

    J(omega) = (omega / pi) * omega_c**2 / (omega_c**2 + omega**2)
    """

    omega_c: float
    tail_exponent = 1.0

    def __post_init__(self) -> None:
        if not (self.omega_c > 0.0):
            raise ValueError("omega_c must be positive")

    def density(self, omega):
        omega = np.asarray(omega, dtype=float)
        wc2 = self.omega_c**2
        return (omega / np.pi) * wc2 / (wc2 + omega**2)

    def density_over_omega(self, omega):
        # Even in omega and finite at zero: J(omega)/omega -> 1/pi.
        omega = np.asarray(omega, dtype=float)
        wc2 = self.omega_c**2
        return wc2 / (np.pi * (wc2 + omega**2))


@dataclass(frozen=True)
class ReservoirParams:
    """System-reservoir parameters in hbar = k_B = m = 1 units.

    r      -- cutoff ratio omega_c / omega0
    theta  -- dimensionless temperature k_B T / (hbar omega0), >= 0
    alpha  -- dimensionless system-reservoir coupling, > 0
    omega0 -- system oscillator frequency (default 1, the unit of frequency)

    alpha**2, omega0**2 and omega_c**2 = (r omega0)**2 must be finite
    and normal (not subnormal) as doubles.
    """

    r: float
    theta: float
    alpha: float
    omega0: float = 1.0

    def __post_init__(self) -> None:
        for name in ("omega0", "r", "alpha"):
            value = getattr(self, name)
            if not (0.0 < value < np.inf):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not (0.0 <= self.theta < np.inf):
            raise ValueError(f"theta must be finite and nonnegative, got {self.theta}")
        # The rates take alpha**2, and the baths the squares of omega0 and
        # omega_c; a subnormal square would lose digits or underflow the rates.
        for name in ("alpha", "omega0", "omega_c"):
            value = getattr(self, name)
            if not (_TINY <= value * value < np.inf):
                raise ValueError(
                    f"{name} must have a finite nonzero square that is a normal double, "
                    f"got {value}"
                )

    @property
    def omega_c(self) -> float:
        return self.r * self.omega0

    def spectral_model(self) -> OhmicLorentzDrude:
        """The matching Ohmic Lorentz-Drude model with omega_c = r * omega0."""
        return OhmicLorentzDrude(self.omega_c)


def check_model_consistency(params: ReservoirParams, model: BaseSpectralDensity) -> None:
    """Raise if the model's cutoff disagrees with params (r * omega0) or its J grows."""
    if not model.tail_exponent >= 0.0:
        raise ValueError(
            f"tail_exponent {model.tail_exponent} < 0: the quadrature needs a J that does not grow"
        )
    model_wc = getattr(model, "omega_c", None)
    if model_wc is not None and abs(model_wc - params.omega_c) > 1e-12 * params.omega_c:
        raise ValueError(
            f"model omega_c={model_wc} does not match params r*omega0={params.omega_c}"
        )


def spectral_density(model: BaseSpectralDensity, omega):
    """J(omega) for omega >= 0; raises NegativeFrequencyError otherwise."""
    arr = np.asarray(omega, dtype=float)
    if np.any(arr < 0.0):
        raise NegativeFrequencyError("spectral density defined for omega >= 0")
    out = model.density(arr)
    return float(out) if np.isscalar(omega) else out


def thermal_factor(omega, theta: float, omega0: float = 1.0):
    """coth(omega / (2 theta omega0)); exactly 1 at theta = 0.

    The omega = 0 point is a pole for theta > 0 and raises
    IndeterminateAtZeroError; callers needing the origin must use
    weighted_spectral_density, whose limit is finite.
    """
    if theta < 0.0:
        raise ValueError("theta must be nonnegative")
    arr = np.asarray(omega, dtype=float)
    if theta == 0.0:
        if np.any(arr <= 0.0):
            raise ValueError("theta = 0 requires omega > 0")
        out = np.ones_like(arr)
        return float(out) if np.isscalar(omega) else out
    if np.any(arr == 0.0):
        raise IndeterminateAtZeroError("coth pole at omega = 0 for theta > 0")
    x = arr / (2.0 * theta * omega0)
    out = 1.0 / np.tanh(x)
    return float(out) if np.isscalar(omega) else out


def _omega_times_coth(omega, theta: float, omega0: float):
    """omega * coth(omega / (2 theta omega0)) as a smooth total function.

    Even in omega with value 2 theta omega0 at the origin; the small-x
    series keeps it accurate where x / tanh(x) would lose digits.
    """
    scale = 2.0 * theta * omega0
    x = np.asarray(omega, dtype=float) / scale
    small = np.abs(x) < 1e-4
    out = np.tanh(x, out=np.empty_like(x))  # a buffer even for 0-d input, where x is a scalar
    np.divide(x, out, out=out, where=~small)
    if small.any():
        xs = x[small]
        out[small] = 1.0 + xs * xs / 3.0
    out *= scale
    return out


def weighted_spectral_density(model: BaseSpectralDensity, params: ReservoirParams, omega):
    """J(omega) * coth(omega / (2 theta omega0)), total on omega >= 0.

    The removable omega -> 0 point is evaluated through the analytic
    limit (2 theta omega0 / pi for the Ohmic Lorentz-Drude model); at
    theta = 0 the weight reduces to J itself with limit 0.
    """
    arr = np.asarray(omega, dtype=float)
    if np.any(arr < 0.0):
        raise NegativeFrequencyError("weighted spectral density defined for omega >= 0")
    if params.theta == 0.0:
        out = model.density(arr)
    else:
        out = model.density_over_omega(arr) * _omega_times_coth(arr, params.theta, params.omega0)
    return float(out) if np.isscalar(omega) else out
