"""Master-equation diffusion and damping coefficients for the damped oscillator.

The second-order coefficients are double integrals (bath frequency times
evolution time).  The time integration is carried out in closed form, so
every quantity here is a single semi-infinite frequency integral:

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

from ._table import csv_text
from .numerics import QuadratureSpec, integrate_semi_infinite, ordered_map
from .spectral import (
    BaseSpectralDensity,
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

_TWO_PI = 2.0 * np.pi
# Kernel name -> (oscillation period in u, envelope power of the kernel).
_KERNELS = {"sinc": (_TWO_PI, 1.0), "sinc2": (np.pi, 2.0)}
# Sign of the omega + omega0 half in each coefficient of a pair:
# Delta-type coefficients add the halves, gamma-type ones subtract them.
_PAIR_SIGNS = np.array([1.0, -1.0])


def sinc(x):
    """Unnormalized sinc: sin(x)/x with sinc(0) = 1."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    np.divide(np.sin(x), x, out=out, where=x != 0.0)
    return out


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
    tail_exponent: float = 1.0,
):
    """One half of a coefficient integral, in oscillation coordinates.

    Evaluates Int_0^inf weight(omega) * k((omega + shift*omega0) * scale)
    domega for k = sinc or sinc^2, substituting u = (omega + shift*omega0)
    * scale so the oscillation period is constant (2 pi resp. pi) and the
    engine's quarter-period panelling and period-segment tail apply
    uniformly for any measurement interval.

    ``weight`` returns one value per frequency (the result is a float)
    or a (k, N) array for N frequencies, in which case the kernel is
    evaluated once per node for all k weights and the result is a
    length-k array.  ``tail_exponent`` is the declared envelope exponent
    of the weight (J ~ C/omega for Ohmic Lorentz-Drude).
    """
    spec = spec or QuadratureSpec()
    if kernel not in _KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}")
    period, kpow = _KERNELS[kernel]
    u0 = shift * omega0 * scale

    def integrand(u):
        omega = u / scale
        omega -= shift * omega0
        np.maximum(omega, 0.0, out=omega)
        k = sinc(u)
        if kernel == "sinc2":
            k *= k
        k /= scale
        values = weight(omega)  # a fresh array from every weight used here
        values *= k
        return values

    value, _ = integrate_semi_infinite(
        integrand,
        spec,
        lower=u0,
        oscillation_period=period,
        tail_exponent=tail_exponent + kpow,
    )
    return value


def _kernel_pass(params, model, time, kernel, weight, signs, spec):
    """Coefficients alpha^2 * pref(time) * (lower + signs * upper) on one kernel.

    ``time`` is t for the sinc kernel (Delta, gamma; pref = t/2) and tau
    for sinc^2 (IDelta, Igamma; pref = tau^2/4, kernel scale tau/2).
    Both halves go through one quadrature each, for every weight at once.
    """
    name = "t" if kernel == "sinc" else "tau"
    if time < 0.0:
        raise ValueError(f"{name} must be nonnegative")
    if time == 0.0:
        return 0.0 * signs
    check_model_consistency(params, model)
    scale = time if kernel == "sinc" else 0.5 * time
    lower, upper = (
        half_kernel_integral(weight, params.omega0, scale, kernel, shift, spec, model.tail_exponent)
        for shift in (-1, +1)
    )
    if kernel == "sinc":
        return params.alpha**2 * 0.5 * time * (lower + signs * upper)
    return params.alpha**2 * 0.25 * time**2 * (lower + signs * upper)


def coefficient_pair(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    t: float,
    spec: QuadratureSpec | None = None,
) -> tuple[float, float]:
    """(Delta(t), gamma(t)) from one sinc quadrature per half for both."""
    delta, gamma = _kernel_pass(
        params, model, t, "sinc", _pair_weight(model, params), _PAIR_SIGNS, spec
    )
    return float(delta), float(gamma)


def integrated_pair(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    tau: float,
    spec: QuadratureSpec | None = None,
) -> tuple[float, float]:
    """(IDelta(tau), Igamma(tau)) from one sinc^2 quadrature per half for both."""
    i_delta, i_gamma = _kernel_pass(
        params, model, tau, "sinc2", _pair_weight(model, params), _PAIR_SIGNS, spec
    )
    return float(i_delta), float(i_gamma)


def diffusion_coefficient(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    t: float,
    spec: QuadratureSpec | None = None,
) -> float:
    """Time-dependent diffusion coefficient Delta(t); vanishes at t = 0."""
    return float(_kernel_pass(params, model, t, "sinc", coth_weight(model, params), 1.0, spec))


def damping_coefficient(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    t: float,
    spec: QuadratureSpec | None = None,
) -> float:
    """Time-dependent damping coefficient gamma(t); temperature-free."""
    return float(_kernel_pass(params, model, t, "sinc", bare_weight(model), -1.0, spec))


def integrated_diffusion(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    tau: float,
    spec: QuadratureSpec | None = None,
) -> float:
    """Running integral Int_0^tau Delta(t) dt via the closed sinc^2 kernel."""
    return float(_kernel_pass(params, model, tau, "sinc2", coth_weight(model, params), 1.0, spec))


def integrated_damping(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    tau: float,
    spec: QuadratureSpec | None = None,
) -> float:
    """Running integral Int_0^tau gamma(t) dt via the closed sinc^2 kernel."""
    return float(_kernel_pass(params, model, tau, "sinc2", bare_weight(model), -1.0, spec))


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
    quadrature cross-check (slowly convergent, diagnostic only).
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
    """Large-t quadrature estimate of the Markovian limits.

    Converges only like 1/(omega0 t) because of oscillatory resonance
    tails; intended as a cross-check of the closed forms, not as input
    to ratio denominators.
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


def _tabulation_row(args) -> tuple[float, float, float, float]:
    params, model, t, spec = args
    return coefficient_pair(params, model, t, spec) + integrated_pair(params, model, t, spec)


def tabulate_coefficients(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    t_max: float,
    n_points: int,
    spec: QuadratureSpec | None = None,
    jobs: int = 1,
) -> CoefficientSeries:
    """Uniform-grid tabulation of Delta, gamma and their running integrals.

    Each integral column is evaluated by the closed sinc^2 kernel at the
    grid time, not by chaining trapezoids, so every row is independently
    accurate.  ``jobs > 1`` parallelizes rows over processes with
    deterministic ordered assembly.
    """
    if not (t_max > 0.0):
        raise ValueError("t_max must be positive")
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    times = np.linspace(0.0, t_max, n_points)
    tasks = [(params, model, float(t), spec) for t in times[1:]]
    rows = ordered_map(_tabulation_row, tasks, jobs)
    table = np.vstack([np.zeros(4), np.array(rows)])
    return CoefficientSeries(
        times=times,
        delta=table[:, 0],
        gamma=table[:, 1],
        int_delta=table[:, 2],
        int_gamma=table[:, 3],
        params=params,
    )
