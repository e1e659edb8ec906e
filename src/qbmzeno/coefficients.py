"""Master-equation diffusion and damping coefficients for the damped oscillator.

The second-order coefficients are double integrals (bath frequency times
evolution time).  For the Ohmic Lorentz-Drude bath itself (``type(model)
is OhmicLorentzDrude``) both integrals are done in closed form over the
bath's cutoff and Matsubara poles (``_matsubara``).  For every other
model, subclasses included, the time integration is carried out in
closed form, so every quantity is one semi-infinite frequency integral
against a sum or difference of kernels, evaluated at the tolerance of
``numerics``' default ``QuadratureSpec``:

  Delta(t)    = alpha^2 * (t/2)     * Int J coth [sinc(u-) + sinc(u+)] domega
  gamma(t)    = alpha^2 * (t/2)     * Int J      [sinc(u-) - sinc(u+)] domega
  IDelta(tau) = alpha^2 * (tau^2/4) * Int J coth [sinc^2(u-) + sinc^2(u+)] domega
  Igamma(tau) = alpha^2 * (tau^2/4) * Int J      [sinc^2(u-) - sinc^2(u+)] domega

with u± = (omega ± omega0) s, s = t for the sinc kernel and tau/2 for
sinc^2, and sinc(x) = sin(x)/x (sinc(0) = 1).  Each pair is one
quadrature: both weights share every model call, and both kernels every
node (u = u- from -omega0 s, where u+ = u + 2 omega0 s), and the
difference of the gamma-type kernels is formed without cancellation,
however small omega0 s.  The removable point omega = omega0 is handled
by the sinc forms themselves, never by an epsilon guard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _matsubara
from ._table import write_csv
from .numerics import integrate_semi_infinite
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

# Each coefficient of a pair as (a, b) of its kernel a k(u-) + b k(u+):
# Delta-type coefficients add the two kernels, gamma-type ones subtract them.
_PAIR_MIX = ((1.0, 1.0), (1.0, -1.0))


def _pair_weight(model: BaseSpectralDensity, params: ReservoirParams):
    """(J coth, J) at N frequencies as a (2, N) array, one model call per node.

    Both rows come from J(omega)/omega, so the removable omega -> 0 point
    stays smooth.
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


def _frequency_integral(params, model, scale, kernel, rows, mix):
    """Int_0^inf w_c(omega) [a_c k(u-) + b_c k(u+)] domega for each row c, in one quadrature.

    u± = (omega ± omega0) scale; the rows w_c are ``rows`` of the (J coth,
    J) array of ``_pair_weight`` at N frequencies, and (a_c, b_c) =
    mix[c].  In the coordinate u = u- from -a, a = omega0 scale, the
    omega + omega0 term's kernel argument is u + 2a, so one weight call
    per node serves both terms: one ``integrate_semi_infinite`` pass
    with shift 2a, whose envelope is rows(weights)/scale.  Only the
    envelope is built here; the engine applies the kernels, and forms
    k(u) - k(u + 2a) without cancellation.
    """
    omega0 = params.omega0
    weight = _pair_weight(model, params)
    inverse = 1.0 / scale  # a product per node, not a division

    def envelope(u):
        omega = u * inverse
        omega += omega0
        np.maximum(omega, 0.0, out=omega)
        values = rows(weight(omega))  # a fresh array from every rows used here
        values *= inverse
        return values

    a = omega0 * scale
    value, _ = integrate_semi_infinite(envelope, lower=-a, kernel=kernel, shift=2.0 * a, mix=mix)
    return value


def _kernel_pass(params, model, time, kernel):
    """Quadrature (Delta-type, gamma-type) alpha^2 * pref(time) * Int w [k(u-) ± k(u+)] domega.

    ``time`` is t for the sinc kernel (Delta, gamma; pref = t/2) and tau
    for sinc^2 (IDelta, Igamma; pref = tau^2/4, kernel scale tau/2).
    Both weights and both kernels take one quadrature.
    """
    scale = time if kernel == "sinc" else 0.5 * time
    pref = 0.5 * time if kernel == "sinc" else 0.25 * time**2
    value = _frequency_integral(params, model, scale, kernel, lambda weights: weights, _PAIR_MIX)
    return params.alpha**2 * pref * value


def _pairs(params, model, times, kernel) -> tuple[np.ndarray, np.ndarray]:
    """The (Delta-type, gamma-type) pair on one kernel at every time of a grid, by model type.

    The times are positive and finite; every grid caller builds them so.
    The Ohmic Lorentz-Drude bath itself takes the closed-form Matsubara
    evaluator, one pass for the whole grid; every other model, subclasses
    included, the quadrature, time by time.  A time's values do not depend
    on the rest of the grid, so every per-point function is this with one
    time.  Overflow, of a value or inside the closed form, raises OverflowError.
    """
    check_model_consistency(params, model)
    if type(model) is OhmicLorentzDrude:
        pairs = _closed_form(model.omega_c / params.omega0, params.theta, params.omega0,
                             params.alpha**2, times, kernel)
        if pairs is not None:
            return pairs
    else:
        pairs = [_kernel_pass(params, model, float(t), kernel) for t in times]
        delta, gamma = np.array(pairs, dtype=float).reshape(-1, 2).T
        if np.isfinite(delta).all() and np.isfinite(gamma).all():
            return delta, gamma
    name = "t" if kernel == "sinc" else "tau"
    raise OverflowError(f"the coefficients at some {name} overflow a double at {params}")


def _closed_form(wc, theta, omega0, alpha2, times, kernel):
    """The Lorentz-Drude pair on one kernel from ``_matsubara.pair``, or None if it overflows.

    The bath's numbers (cutoff ratio, theta, omega0, alpha^2) are one
    cell's floats or arrays like ``times``, each row's own cell.  An
    overflow is raised, not warned, so that -W error cannot make it a
    RuntimeWarning.
    """
    power = 1 if kernel == "sinc" else 2
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            delta, gamma = _matsubara.pair(wc, theta, omega0 * times, power)
            if power == 1:  # rates: omega0 times the pair in units of omega0
                delta, gamma = omega0 * delta, omega0 * gamma
            return alpha2 * delta, alpha2 * gamma
    except FloatingPointError:
        return None


def _cell_pairs(points, times, index, kernel) -> tuple[np.ndarray, np.ndarray]:
    """``_pairs`` at every row: times[i] (positive and finite) of the cell points[index[i]].

    ``points`` is a list of (params, model).  Several cells that are all
    the Ohmic Lorentz-Drude bath itself take one closed-form pass; one
    cell, any other model, or a pass that overflows go cell by cell
    through ``_pairs``, which names the cell that overflows.  Each row is
    ``_pairs`` of its own cell at that time alone, bit for bit.
    """
    if len(points) > 1 and all(type(model) is OhmicLorentzDrude for _, model in points):
        for params, model in points:
            check_model_consistency(params, model)

        def rows(value):
            return np.array([value(params, model) for params, model in points])[index]

        pairs = _closed_form(rows(lambda params, model: model.omega_c / params.omega0),
                             rows(lambda params, _: params.theta),
                             rows(lambda params, _: params.omega0),
                             rows(lambda params, _: params.alpha**2), times, kernel)
        if pairs is not None:
            return pairs
    delta, gamma = np.empty_like(times), np.empty_like(times)
    for c, (params, model) in enumerate(points):
        rows = index == c
        delta[rows], gamma[rows] = _pairs(params, model, times[rows], kernel)
    return delta, gamma


def _pair(params, model, time, kernel) -> tuple[float, float]:
    """``_pairs`` at one time, as floats; t = 0 gives (0, 0)."""
    times = np.array([time], dtype=float)
    if not 0.0 < times[0] < np.inf:
        name = "t" if kernel == "sinc" else "tau"
        if times[0] < 0.0:
            raise ValueError(f"{name} must be nonnegative")
        if times[0] != 0.0:
            raise ValueError(f"{name} must be finite")
        return 0.0, 0.0
    delta, gamma = _pairs(params, model, times, kernel)
    return float(delta[0]), float(gamma[0])


def coefficient_pair(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    t: float,
) -> tuple[float, float]:
    """(Delta(t), gamma(t)), from one sinc quadrature or in closed form."""
    return _pair(params, model, t, "sinc")


def integrated_pair(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    tau: float,
) -> tuple[float, float]:
    """(IDelta(tau), Igamma(tau)), from one sinc^2 quadrature or in closed form."""
    return _pair(params, model, tau, "sinc2")


def diffusion_coefficient(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    t: float,
) -> float:
    """Time-dependent diffusion coefficient Delta(t); vanishes at t = 0."""
    return coefficient_pair(params, model, t)[0]


def damping_coefficient(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    t: float,
) -> float:
    """Time-dependent damping coefficient gamma(t); temperature-free."""
    return coefficient_pair(params, model, t)[1]


def integrated_diffusion(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    tau: float,
) -> float:
    """Running integral Int_0^tau Delta(t) dt."""
    return integrated_pair(params, model, tau)[0]


def integrated_damping(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    tau: float,
) -> float:
    """Running integral Int_0^tau gamma(t) dt."""
    return integrated_pair(params, model, tau)[1]


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
    cross-check (slowly convergent, diagnostic only).  A limit that does
    not fit in a double, or a bath that overflows on the way to it (the
    Lorentz-Drude omega_c^2 + omega0^2 near 1e308), raises OverflowError.
    """
    check_model_consistency(params, model)
    pref = 0.5 * np.pi * params.alpha**2
    try:  # raised, not warned, so that -W error cannot make it a RuntimeWarning
        with np.errstate(over="raise"):
            gamma_m = pref * float(model.density(params.omega0))
            if params.theta == 0.0:
                delta_m = gamma_m
            else:
                delta_m = pref * float(weighted_spectral_density(model, params, params.omega0))
    except FloatingPointError:
        delta_m = gamma_m = np.inf  # the bath overflowed on the way
    if not (np.isfinite(delta_m) and np.isfinite(gamma_m)):
        raise OverflowError(f"the Markovian limits overflow a double at {params}")
    return MarkovianLimits(delta_m=delta_m, gamma_m=gamma_m)


def markovian_limits_numerical(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    t: float = 200.0,
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
    delta_m, gamma_m = coefficient_pair(params, model, t)
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
        """Write the table at 17 significant digits, atomically (temp + rename)."""
        write_csv(path, *self.table())


def tabulate_coefficients(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    t_max: float,
    n_points: int,
) -> CoefficientSeries:
    """Uniform-grid tabulation of Delta, gamma and their running integrals.

    Each integral column is evaluated at the grid time itself, not by
    chaining trapezoids, so every row is independently accurate.  The
    grid is evaluated in one pass per kernel (closed form for the
    Lorentz-Drude bath); every row is bit-identical to the per-point
    functions at its time.
    """
    if not (0.0 < t_max < np.inf):
        raise ValueError("t_max must be positive and finite")
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    times = np.linspace(0.0, t_max, n_points)
    rows = np.vstack([_pairs(params, model, times[1:], kernel) for kernel in ("sinc", "sinc2")])
    table = np.hstack([np.zeros((4, 1)), rows])
    return CoefficientSeries(
        times=times,
        delta=table[0],
        gamma=table[1],
        int_delta=table[2],
        int_gamma=table[3],
        params=params,
    )
