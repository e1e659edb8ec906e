"""Master-equation diffusion and damping coefficients for the damped oscillator.

The second-order coefficients are double integrals (bath frequency times
evolution time).  For the Ohmic Lorentz-Drude bath itself (``type(model)
is OhmicLorentzDrude``) both integrals are done in closed form over the
bath's cutoff and Matsubara poles (``_matsubara``); ``spec`` is unused
there.  For every other model, subclasses included, the time integration
is carried out in closed form, so every quantity is a single
semi-infinite frequency integral:

  Delta(t)    = alpha^2 * (t/2)   * Int J coth [sinc(u-) + sinc(u+)] domega
  gamma(t)    = alpha^2 * (t/2)   * Int J      [sinc(u-) - sinc(u+)] domega
  IDelta(tau) = alpha^2 * (tau^2/4) * Int J coth [sinc^2(v-) + sinc^2(v+)] domega
  Igamma(tau) = alpha^2 * (tau^2/4) * Int J      [sinc^2(v-) - sinc^2(v+)] domega

with u± = (omega ± omega0) t, v± = (omega ± omega0) tau / 2 and
sinc(x) = sin(x)/x (sinc(0) = 1).  The removable point omega = omega0 is
handled by the sinc forms themselves, never by an epsilon guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _matsubara
from ._table import csv_text
from .numerics import QuadratureSpec, _map_grid, integrate_semi_infinite
from .spectral import (
    BaseSpectralDensity,
    OhmicLorentzDrude,
    ReservoirParams,
    _omega_times_coth,
    check_model_consistency,
    weighted_spectral_density,
)

__all__ = [
    "CoefficientSeries",
    "MarkovianLimits",
    "coefficient_pair",
    "diffusion_coefficient",
    "damping_coefficient",
    "integrated_diffusion",
    "integrated_damping",
    "integrated_pair",
    "markovian_limits",
    "markovian_limits_numerical",
    "tabulate_coefficients",
]

# Sign of the omega + omega0 half in each coefficient of a pair:
# Delta-type coefficients add the halves, gamma-type ones subtract them.
_PAIR_SIGNS = np.array([1.0, -1.0])


def bare_weight(model: BaseSpectralDensity):
    """J(omega), formed as (J(omega)/omega) * omega like every pair row."""
    return lambda omega: model.density_over_omega(omega) * omega


def coth_weight(model: BaseSpectralDensity, params: ReservoirParams):
    """J(omega) coth(omega / 2 theta omega0) as a vectorized callable."""
    if params.theta == 0.0:
        return bare_weight(model)
    return lambda omega: weighted_spectral_density(model, params, omega)


def _pair_weight(model: BaseSpectralDensity, params: ReservoirParams):
    """(J coth, J) at N frequencies as a (2, N) array, one model call per node.

    Both rows come from J(omega)/omega, so the removable omega -> 0 point
    stays smooth, and each row is bit-identical to coth_weight resp.
    bare_weight at the same frequencies.
    """
    theta, omega0 = params.theta, params.omega0

    def weights(omega: np.ndarray) -> np.ndarray:
        over = model.density_over_omega(omega)
        # Temporaries of the coth factor are freed before the output exists.
        coth = None if theta == 0.0 else _omega_times_coth(omega, theta, omega0)
        out = np.empty((2, omega.size))
        np.multiply(over, omega, out=out[1])
        if coth is None:
            out[0] = out[1]
        else:
            np.multiply(over, coth, out=out[0])
        return out

    return weights


def half_kernel_integral(
    weight,
    omega0: float,
    scale: float,
    kernel: str,
    shift: int,
    spec: QuadratureSpec | None = None,
):
    """One half of a coefficient integral, in oscillation coordinates.

    Evaluates Int_0^inf weight(omega) * k((omega + shift*omega0) * scale)
    domega for k = sinc or sinc^2, substituting u = (omega + shift*omega0)
    * scale so the kernel is k(u) with its fixed period (2 pi resp. pi)
    for any measurement interval.  Only the envelope weight(omega)/scale
    is built here; the engine applies the kernel.

    ``weight`` returns one value per frequency (the result is a float)
    or a (k, N) array for N frequencies, in which case the kernel is
    evaluated once per node for all k weights and the result is a
    length-k array.
    """

    def envelope(u):
        omega = u / scale
        omega -= shift * omega0
        np.maximum(omega, 0.0, out=omega)
        values = weight(omega)  # a fresh array from every weight used here
        values /= scale
        return values

    value, _ = integrate_semi_infinite(envelope, spec, lower=shift * omega0 * scale, kernel=kernel)
    return value


def _kernel_pass(params, model, time, kernel, spec):
    """Quadrature (Delta-type, gamma-type) alpha^2 * pref(time) * (lower +- upper).

    ``time`` is t for the sinc kernel (Delta, gamma; pref = t/2) and tau
    for sinc^2 (IDelta, Igamma; pref = tau^2/4, kernel scale tau/2).
    Both halves go through one quadrature each, for both weights at once.
    """
    scale = time if kernel == "sinc" else 0.5 * time
    weight = _pair_weight(model, params)
    lower, upper = (
        half_kernel_integral(weight, params.omega0, scale, kernel, shift, spec) for shift in (-1, +1)
    )
    pref = 0.5 * time if kernel == "sinc" else 0.25 * time**2
    return params.alpha**2 * pref * (lower + _PAIR_SIGNS * upper)


def _pairs(params, model, times, kernel, spec) -> tuple[np.ndarray, np.ndarray]:
    """The (Delta-type, gamma-type) pair on one kernel at every time of a grid, by model type.

    The Ohmic Lorentz-Drude bath itself takes the closed-form Matsubara
    evaluator, one pass for the whole grid (``spec`` unused); every other
    model, subclasses included, takes the quadrature, time by time.  A
    time's values do not depend on the rest of the grid, so every
    per-point function is this with one time.
    """
    times = np.asarray(times, dtype=float)
    if np.count_nonzero(times < 0.0):
        raise ValueError(f"{'t' if kernel == 'sinc' else 'tau'} must be nonnegative")
    if np.count_nonzero(times) < times.size:
        # t = 0 rows are zero; the others are the grid without them.
        delta, gamma = np.zeros_like(times), np.zeros_like(times)
        live = times != 0.0
        if np.count_nonzero(live):
            delta[live], gamma[live] = _pairs(params, model, times[live], kernel, spec)
        return delta, gamma
    check_model_consistency(params, model)
    if type(model) is OhmicLorentzDrude:
        omega0 = params.omega0
        power, unit = (1, omega0) if kernel == "sinc" else (2, 1.0)
        delta, gamma = _matsubara.pair(model.omega_c / omega0, params.theta, omega0 * times, power)
        return params.alpha**2 * (unit * delta), params.alpha**2 * (unit * gamma)
    pairs = [_kernel_pass(params, model, float(t), kernel, spec) for t in times]
    return tuple(np.array(pairs, dtype=float).reshape(-1, 2).T)


def _pair(params, model, time, kernel, spec) -> tuple[float, float]:
    """``_pairs`` at one time, as floats."""
    delta, gamma = _pairs(params, model, np.array([time], dtype=float), kernel, spec)
    return float(delta[0]), float(gamma[0])


def _pair_chunk(args) -> np.ndarray:
    """Rows (Delta, gamma) per kernel of ``_pairs`` on one chunk of a time grid."""
    params, model, kernels, spec, times = args
    return np.vstack([_pairs(params, model, times, kernel, spec) for kernel in kernels])


def coefficient_pair(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    t: float,
    spec: QuadratureSpec | None = None,
) -> tuple[float, float]:
    """(Delta(t), gamma(t)), from one sinc quadrature per half or in closed form."""
    return _pair(params, model, t, "sinc", spec)


def integrated_pair(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    tau: float,
    spec: QuadratureSpec | None = None,
) -> tuple[float, float]:
    """(IDelta(tau), Igamma(tau)), from one sinc^2 quadrature per half or in closed form."""
    return _pair(params, model, tau, "sinc2", spec)


def diffusion_coefficient(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    t: float,
    spec: QuadratureSpec | None = None,
) -> float:
    """Time-dependent diffusion coefficient Delta(t); vanishes at t = 0."""
    return coefficient_pair(params, model, t, spec)[0]


def damping_coefficient(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    t: float,
    spec: QuadratureSpec | None = None,
) -> float:
    """Time-dependent damping coefficient gamma(t); temperature-free."""
    return coefficient_pair(params, model, t, spec)[1]


def integrated_diffusion(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    tau: float,
    spec: QuadratureSpec | None = None,
) -> float:
    """Running integral Int_0^tau Delta(t) dt."""
    return integrated_pair(params, model, tau, spec)[0]


def integrated_damping(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    tau: float,
    spec: QuadratureSpec | None = None,
) -> float:
    """Running integral Int_0^tau gamma(t) dt."""
    return integrated_pair(params, model, tau, spec)[1]


@dataclass(frozen=True)
class MarkovianLimits:
    """Long-time (resonance) values of the diffusion and damping coefficients."""

    delta_m: float
    gamma_m: float


def markovian_limits(params: ReservoirParams, model: BaseSpectralDensity) -> MarkovianLimits:
    """Resonance (Fermi golden rule) limits of Delta(t) and gamma(t).

    The sinc kernels concentrate at omega = omega0 as t -> infinity, so

      Delta_M = (pi/2) alpha^2 J(omega0) coth(omega0 / 2 theta omega0)
      gamma_M = (pi/2) alpha^2 J(omega0)

    At theta = 0 the two coincide exactly.  These closed forms are
    canonical; ``markovian_limits_numerical`` provides the large-t
    cross-check (slowly convergent, diagnostic only).
    """
    check_model_consistency(params, model)
    pref = 0.5 * np.pi * params.alpha**2
    gamma_m = pref * float(model.density(params.omega0))
    if params.theta == 0.0:
        delta_m = gamma_m
    else:
        delta_m = pref * float(weighted_spectral_density(model, params, params.omega0))
    return MarkovianLimits(delta_m=delta_m, gamma_m=gamma_m)


def markovian_limits_numerical(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    t: float = 200.0,
    spec: QuadratureSpec | None = None,
) -> MarkovianLimits:
    """Large-t estimate of the Markovian limits: (Delta(t), gamma(t)).

    Evaluated like any ``coefficient_pair`` (closed form for the
    Lorentz-Drude bath, quadrature otherwise).  Converges only like
    1/(omega0 t) because of the oscillating resonance tails; intended
    as a cross-check of the closed forms, not as input to ratio
    denominators.
    """
    if not (t > 0.0):
        raise ValueError("t must be positive")
    delta_m, gamma_m = coefficient_pair(params, model, t, spec)
    return MarkovianLimits(delta_m=delta_m, gamma_m=gamma_m)


@dataclass(frozen=True)
class CoefficientSeries:
    """Tabulated Delta, gamma and their running integrals on a time grid."""

    times: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray
    int_delta: np.ndarray
    int_gamma: np.ndarray
    params: ReservoirParams

    def __post_init__(self) -> None:
        n = len(self.times)
        for name in ("delta", "gamma", "int_delta", "int_gamma"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} length differs from times")
        if n < 1 or self.times[0] != 0.0:
            raise ValueError("time grid must start at 0")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("time grid must be strictly increasing")
        for name in ("delta", "gamma", "int_delta", "int_gamma"):
            if getattr(self, name)[0] != 0.0:
                raise ValueError(f"{name} must vanish at t = 0")

    def table(self) -> tuple[list[str], list[np.ndarray]]:
        """(header, columns): t, delta, gamma, int_delta, int_gamma."""
        return (
            ["t", "delta", "gamma", "int_delta", "int_gamma"],
            [self.times, self.delta, self.gamma, self.int_delta, self.int_gamma],
        )

    def to_csv(self, path) -> None:
        """Write the table at 17 significant digits."""
        Path(path).write_text(csv_text(*self.table()))


def tabulate_coefficients(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    t_max: float,
    n_points: int,
    spec: QuadratureSpec | None = None,
    jobs: int = 1,
) -> CoefficientSeries:
    """Uniform-grid tabulation of Delta, gamma and their running integrals.

    Each integral column is evaluated at the grid time itself, not by
    chaining trapezoids, so every row is independently accurate.  The
    grid is evaluated in one pass (closed form for the Lorentz-Drude
    bath); ``jobs > 1`` splits it into that many contiguous chunks, one
    per worker process, and joins them in order.  Every row is the same
    bit for bit whatever ``jobs`` is.
    """
    if not (t_max > 0.0):
        raise ValueError("t_max must be positive")
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    times = np.linspace(0.0, t_max, n_points)
    rows = _map_grid(_pair_chunk, (params, model, ("sinc", "sinc2"), spec), times[1:], jobs)
    table = np.hstack([np.zeros((4, 1)), rows])
    return CoefficientSeries(
        times=times,
        delta=table[0],
        gamma=table[1],
        int_delta=table[2],
        int_gamma=table[3],
        params=params,
    )
