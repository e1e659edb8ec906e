"""Effective decay rates under repeated measurements and the QZE/AZE crossover.

A Fock state |n> monitored every tau decays with the effective rate

  rate_z(n, tau) = (1/tau) [ (2n+1) Int_0^tau Delta - Int_0^tau gamma ]

whose ratio to the Markovian rate (2n+1) Delta_M - gamma_M decides the
regime: below one the measurements hinder the decay (QZE), above one
they enhance it (AZE).  The crossover time tau* is where the ratio
crosses unity; at theta = 0, n = 0 the Markovian rate vanishes exactly
and the ratio diverges (pure AZE).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from ._table import csv_text
from .coefficients import (
    _pairs,
    coth_weight,
    half_kernel_integral,
    integrated_diffusion,
    integrated_pair,
    markovian_limits,
)
from .errors import DegenerateDenominatorError, PerturbativeBreakdownError
from .numerics import (
    QuadratureSpec,
    _map_grid,
    bisect,
    brackets_from_samples,
    scan_for_bracket,
)
from .spectral import BaseSpectralDensity, ReservoirParams, check_model_consistency

__all__ = [
    "RATIO_TOL",
    "Regime",
    "ZenoScan",
    "classify_regime",
    "degeneracy_guard",
    "effective_decay_rate",
    "effective_decay_rate_fd",
    "find_crossover_time",
    "high_t_ratio",
    "markovian_decay_rate",
    "zeno_ratio",
    "zeno_scan",
]

# Regime classification band around ratio = 1: below quadrature noise,
# above double-precision noise.
RATIO_TOL = 1e-3

_ESCAPE_WARN = 0.1
_ESCAPE_FAIL = 0.5


class Regime(Enum):
    QZE = "QZE"
    AZE = "AZE"
    MARGINAL = "Marginal"


def degeneracy_guard(params: ReservoirParams) -> float:
    """Threshold below which the Markovian rate counts as degenerate."""
    return 1e-12 * params.alpha**2 * params.omega0


def _is_degenerate(markov_rate: float, params: ReservoirParams) -> bool:
    return abs(markov_rate) < degeneracy_guard(params)


def _ratio_denominator(params: ReservoirParams, model: BaseSpectralDensity, n: int) -> float:
    """The Markovian rate as a ratio denominator.

    Raises DegenerateDenominatorError below the degeneracy guard
    (theta ~ 0, n = 0): no finite ratio or crossover exists there and
    the measurements always enhance the decay.
    """
    denominator = markovian_decay_rate(params, model, n)
    if _is_degenerate(denominator, params):
        raise DegenerateDenominatorError(
            f"Markovian rate {denominator:.3e} below guard "
            f"{degeneracy_guard(params):.3e}: AZE-divergent regime, no finite crossover"
        )
    return denominator


def _check_perturbative(escape: float, tau: float, strict: bool) -> None:
    # Markovian-regime scans evaluate rates at large tau where the escape
    # probability leaves the perturbative window; the rate remains a
    # well-defined formal quantity there, so by default this only warns.
    if escape > _ESCAPE_FAIL:
        if strict:
            raise PerturbativeBreakdownError(
                f"escape probability {escape:.3g} > {_ESCAPE_FAIL} at tau={tau}"
            )
        warnings.warn(
            f"escape probability {escape:.3g} > {_ESCAPE_FAIL} at tau={tau}: "
            "the effective rate is a formal (extrapolated) quantity here",
            stacklevel=3,
        )
    elif escape > _ESCAPE_WARN:
        warnings.warn(
            f"escape probability {escape:.3g} > {_ESCAPE_WARN} at tau={tau}: "
            "second-order perturbation theory is marginal",
            stacklevel=3,
        )


def effective_decay_rate(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    n: int,
    tau: float,
    spec: QuadratureSpec | None = None,
    strict: bool = False,
) -> float:
    """Effective decay rate of |n> for measurement interval tau (time domain).

    Canonical route: (1/tau)[(2n+1) IDelta(tau) - Igamma(tau)].  Escape
    probabilities above 0.1 warn; above 0.5 they warn loudly (or raise
    PerturbativeBreakdownError with strict=True).
    """
    if not (tau > 0.0):
        raise ValueError("tau must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    i_delta, i_gamma = integrated_pair(params, model, tau, spec)
    escape = (2 * n + 1) * i_delta - i_gamma
    _check_perturbative(escape, tau, strict)
    return escape / tau


def _rates(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    n: int,
    taus: np.ndarray,
    spec: QuadratureSpec | None = None,
) -> np.ndarray:
    """effective_decay_rate at every tau of a grid, in one pass and without escape checks.

    Each value is bit-identical to effective_decay_rate at that tau.  The
    grid callers (scans, crossover grids, fig1) look at large tau on
    purpose, so they do not check the perturbative window.
    """
    taus = np.asarray(taus, dtype=float)
    if not np.all(taus > 0.0):
        raise ValueError("tau must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    i_delta, i_gamma = _pairs(params, model, taus, "sinc2", spec)
    return ((2 * n + 1) * i_delta - i_gamma) / taus


def _rate_chunk(args) -> np.ndarray:
    """_rates on one chunk of a tau grid (a task of numerics._map_grid)."""
    params, model, n, spec, taus = args
    return _rates(params, model, n, taus, spec)


def effective_decay_rate_fd(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    n: int,
    tau: float,
    spec: QuadratureSpec | None = None,
    strict: bool = False,
) -> float:
    """Effective decay rate via the frequency-domain sinc^2 kernel.

    rate = (alpha^2 tau / 4) Int J(w) { [(2n+1) coth - 1] sinc^2(v-)
                                      + [(2n+1) coth + 1] sinc^2(v+) } dw

    with v± = (w ± w0) tau / 2.  Mathematically identical to the time
    route but evaluated with differently grouped integrands, so the two
    act as mutual numerical oracles.  It is always a quadrature, also
    for the Lorentz-Drude bath, whose time route is closed form.
    """
    if not (tau > 0.0):
        raise ValueError("tau must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_model_consistency(params, model)
    w_coth = coth_weight(model, params)
    m = 2 * n + 1

    def weight_minus(omega):
        return m * w_coth(omega) - model.density(omega)

    def weight_plus(omega):
        return m * w_coth(omega) + model.density(omega)

    half = 0.5 * tau
    lower = half_kernel_integral(weight_minus, params.omega0, half, "sinc2", -1, spec)
    upper = half_kernel_integral(weight_plus, params.omega0, half, "sinc2", +1, spec)
    rate = params.alpha**2 * 0.25 * tau * (lower + upper)
    _check_perturbative(rate * tau, tau, strict)
    return rate


def markovian_decay_rate(params: ReservoirParams, model: BaseSpectralDensity, n: int) -> float:
    """Fermi-golden-rule decay rate (2n+1) Delta_M - gamma_M.

    The minus sign follows from the tau -> infinity limit of the
    time-domain rate; it vanishes exactly at theta = 0, n = 0.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    lim = markovian_limits(params, model)
    return (2 * n + 1) * lim.delta_m - lim.gamma_m


def zeno_ratio(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    n: int,
    tau: float,
    spec: QuadratureSpec | None = None,
) -> float:
    """rate_z(n, tau) / markovian rate; the QZE/AZE decider.

    Raises DegenerateDenominatorError when the Markovian rate is below
    the degeneracy guard (theta ~ 0, n = 0): no finite ratio exists and
    the measurements always enhance the decay.
    """
    denominator = _ratio_denominator(params, model, n)
    return effective_decay_rate(params, model, n, tau, spec) / denominator


def high_t_ratio(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    tau: float,
    spec: QuadratureSpec | None = None,
) -> float:
    """High-temperature limit of the decay-rate ratio: IDelta(tau)/(tau Delta_M).

    Independent of the initial Fock state; ties the Zeno crossover to the
    averaged environment-induced decoherence accumulated between
    measurements.
    """
    if not (tau > 0.0):
        raise ValueError("tau must be positive")
    lim = markovian_limits(params, model)
    return integrated_diffusion(params, model, tau, spec) / (tau * lim.delta_m)


def classify_regime(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    n: int,
    tau: float,
    spec: QuadratureSpec | None = None,
    ratio_tol: float = RATIO_TOL,
) -> Regime:
    """QZE if ratio < 1 - tol, AZE if > 1 + tol, else Marginal.

    The degenerate (zero-denominator) case maps to AZE.
    """
    try:
        ratio = zeno_ratio(params, model, n, tau, spec)
    except DegenerateDenominatorError:
        return Regime.AZE
    if ratio < 1.0 - ratio_tol:
        return Regime.QZE
    if ratio > 1.0 + ratio_tol:
        return Regime.AZE
    return Regime.MARGINAL


def find_crossover_time(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    n: int,
    tau_range: tuple[float, float],
    grid_points: int = 64,
    spec: QuadratureSpec | None = None,
) -> list[float]:
    """All crossover times tau* with rate ratio = 1 inside tau_range.

    Evaluates ratio - 1 on a log-spaced grid in one pass, brackets every
    sign change and bisects each bracket to 1e-6 relative width, one
    rate per step.  An empty list means no crossover in range; the
    oscillatory coefficients at r < 1 can produce several.  Raises
    DegenerateDenominatorError in the AZE-divergent case.
    """
    lo, hi = tau_range
    if not (0.0 < lo < hi):
        raise ValueError("tau_range must be positive and ordered")
    if grid_points < 16:
        raise ValueError("grid_points must be at least 16")
    denominator = _ratio_denominator(params, model, n)
    taus = np.geomspace(lo, hi, grid_points)
    excess = _rates(params, model, n, taus, spec) / denominator - 1.0
    samples = dict(zip(taus.tolist(), excess.tolist()))
    brackets = scan_for_bracket(samples.__getitem__, taus)
    return _crossovers(params, model, n, denominator, spec, brackets)


def _crossovers(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    n: int,
    denominator: float,
    spec: QuadratureSpec | None,
    brackets,
) -> list[float]:
    """Crossover times: the roots of ratio(tau) - 1 in its sign-change brackets.

    Each bracket is bisected to 1e-6 relative width.  Escape warnings
    are silenced: a crossover search samples large tau on purpose.
    """

    def excess(tau: float) -> float:
        return effective_decay_rate(params, model, n, tau, spec) / denominator - 1.0

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return [bisect(excess, b, tol=1e-6 * b.hi) for b in brackets]


@dataclass(frozen=True)
class ZenoScan:
    """Effective decay rate and ratio over a grid of measurement intervals."""

    n: int
    taus: np.ndarray
    rate_z: np.ndarray
    ratio: np.ndarray
    markov_rate: float
    crossovers: list[float]
    params: ReservoirParams

    def __post_init__(self) -> None:
        if len(self.taus) != len(self.rate_z) or len(self.taus) != len(self.ratio):
            raise ValueError("taus, rate_z and ratio must have equal length")
        if np.any(self.taus <= 0.0) or np.any(np.diff(self.taus) <= 0.0):
            raise ValueError("taus must be positive and strictly increasing")

    @property
    def degenerate(self) -> bool:
        """True in the AZE-divergent regime (ratio column is infinite)."""
        return _is_degenerate(self.markov_rate, self.params)

    def regimes(self, ratio_tol: float = RATIO_TOL) -> list[Regime]:
        out = []
        for rho in self.ratio:
            if not np.isfinite(rho) or rho > 1.0 + ratio_tol:
                out.append(Regime.AZE)
            elif rho < 1.0 - ratio_tol:
                out.append(Regime.QZE)
            else:
                out.append(Regime.MARGINAL)
        return out

    def table(self) -> tuple[list[str], list]:
        """(header, columns): tau, rate_z, ratio and the regime names."""
        regimes = [regime.value for regime in self.regimes()]
        return ["tau", "rate_z", "ratio", "regime"], [self.taus, self.rate_z, self.ratio, regimes]

    def to_csv(self, path) -> None:
        """Write the table at 17 significant digits."""
        Path(path).write_text(csv_text(*self.table()))

    def metadata(self) -> dict:
        """Sidecar payload: initial state, parameters, Markovian rate, crossovers."""
        return {
            "n": self.n,
            "params": {
                "r": self.params.r,
                "theta": self.params.theta,
                "alpha": self.params.alpha,
                "omega0": self.params.omega0,
            },
            "markov_rate": self.markov_rate,
            "crossovers": list(self.crossovers),
            "regime": "AZE-divergent" if self.degenerate else "mixed",
        }

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.metadata(), indent=2) + "\n")


def zeno_scan(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    n: int,
    taus,
    spec: QuadratureSpec | None = None,
    jobs: int = 1,
) -> ZenoScan:
    """Tabulate the effective decay rate and ratio over a tau grid.

    In the degenerate (AZE-divergent) case the scan still tabulates the
    rates, with the ratio column set to +infinity.  The grid is evaluated
    in one pass; ``jobs > 1`` splits it into that many contiguous chunks,
    one per worker process, and joins them in order, with every value
    the same bit for bit whatever ``jobs`` is.  Crossovers are bisected
    from the sign changes of the tabulated ratio.
    """
    taus = np.asarray(taus, dtype=float)
    denominator = markovian_decay_rate(params, model, n)
    degenerate = _is_degenerate(denominator, params)
    rates = _map_grid(_rate_chunk, (params, model, n, spec), taus, jobs)

    if degenerate:
        ratio = np.full_like(rates, np.inf)
        crossovers: list[float] = []
    else:
        ratio = rates / denominator
        brackets = brackets_from_samples(taus, ratio - 1.0)
        crossovers = _crossovers(params, model, n, denominator, spec, brackets)
    return ZenoScan(
        n=n,
        taus=taus,
        rate_z=rates,
        ratio=ratio,
        markov_rate=denominator,
        crossovers=crossovers,
        params=params,
    )
