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

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._table import write_csv, write_json
from .coefficients import (
    _cell_pairs,
    _pair_weight,
    half_kernel_integral,
    integrated_diffusion,
    integrated_pair,
    markovian_limits,
)
from .errors import DegenerateDenominatorError
from .numerics import bisect, brent_dekker, scan_for_bracket
from .spectral import BaseSpectralDensity, ReservoirParams, check_model_consistency

__all__ = [
    "RATIO_TOL",
    "Regime",
    "ZenoScan",
    "classify_regime",
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


def _regime(ratio: float) -> Regime:
    """QZE if ratio < 1 - RATIO_TOL, AZE if > 1 + RATIO_TOL, else Marginal.

    An infinite ratio falls on its side of the band; NaN, on neither,
    is Marginal.
    """
    if ratio < 1.0 - RATIO_TOL:
        return Regime.QZE
    if ratio > 1.0 + RATIO_TOL:
        return Regime.AZE
    return Regime.MARGINAL


def _check_tau_grid(taus: np.ndarray) -> None:
    """Raise ValueError unless taus is 1-D, finite, positive and strictly increasing."""
    if (
        taus.ndim != 1
        or not np.all(np.isfinite(taus))
        or np.any(taus <= 0.0)
        or np.any(np.diff(taus) <= 0.0)
    ):
        raise ValueError("taus must be a 1-D grid of finite, positive, strictly increasing values")


def _markov_rate(
    params: ReservoirParams, model: BaseSpectralDensity, n: int
) -> tuple[float, bool]:
    """The Markovian rate (2n+1) Delta_M - gamma_M and whether it is degenerate.

    Degenerate means that its two terms cancel to 12 digits,
    |(2n+1) Delta_M - gamma_M| <= 1e-12 ((2n+1) Delta_M + gamma_M), a
    rule free of the rate's scale (which goes like J(omega0)).  It holds
    at theta = 0, n = 0, where Delta_M == gamma_M, and for a pair that
    underflowed to zero.  Terms that overflow a double raise OverflowError.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    lim = markovian_limits(params, model)
    diffusion = (2 * n + 1) * lim.delta_m
    if not np.isfinite(diffusion + lim.gamma_m):
        raise OverflowError(f"the Markovian rate of n={n} overflows a double at {params}")
    rate = diffusion - lim.gamma_m
    return rate, abs(rate) <= 1e-12 * (diffusion + lim.gamma_m)


def _ratio_denominator(params: ReservoirParams, model: BaseSpectralDensity, n: int) -> float:
    """The Markovian rate as a ratio denominator.

    Raises DegenerateDenominatorError when it is degenerate (theta ~ 0,
    n = 0): no finite ratio or crossover exists there and the
    measurements always enhance the decay.
    """
    denominator, degenerate = _markov_rate(params, model, n)
    if degenerate:
        raise DegenerateDenominatorError(
            f"Markovian rate {denominator:.3e} cancels to 12 digits: "
            "AZE-divergent regime, no finite crossover"
        )
    return denominator


def _check_rate(rate: float, escape: float, tau: float) -> None:
    if not -np.inf < rate < np.inf:  # math.isfinite's cost, on the single-tau path
        raise OverflowError(f"the rate at tau={tau} overflows a double")
    # Markovian-regime scans evaluate rates at large tau where the escape
    # probability leaves the perturbative window; the rate remains a
    # well-defined formal quantity there, so this only warns.
    if escape > _ESCAPE_FAIL:
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
) -> float:
    """Effective decay rate of |n> for measurement interval tau (time domain).

    Canonical route: (1/tau)[(2n+1) IDelta(tau) - Igamma(tau)].  Escape
    probabilities above 0.1 warn that perturbation theory is marginal;
    above 0.5 they warn that the rate is a formal (extrapolated) value.
    A rate that does not fit in a double raises OverflowError.
    """
    if not (tau > 0.0):
        raise ValueError("tau must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    i_delta, i_gamma = integrated_pair(params, model, tau)
    escape = (2 * n + 1) * i_delta - i_gamma
    rate = escape / tau
    _check_rate(rate, escape, tau)
    return rate


def _rates(points: list, n, taus: np.ndarray, index: np.ndarray) -> np.ndarray:
    """effective_decay_rate at every row, taus[i] in the cell points[index[i]], without escape checks.

    ``points`` is a list of (params, model) and ``n`` one Fock index for
    every cell or a list of one per cell.  The pairs are one
    ``coefficients._cell_pairs`` call and 2n+1 is the cell's Python int
    as a float, so each row is effective_decay_rate at that tau, bit for
    bit, whatever else the rows hold.  A rate that does not fit in a
    double raises OverflowError naming its cell.  The callers (scans,
    crossover grids and their root refinement, fig1) look at large tau
    on purpose, so they do not check the perturbative window.
    """
    taus = np.asarray(taus, dtype=float)
    if not np.all((taus > 0.0) & (taus < np.inf)):
        raise ValueError("tau must be positive and finite")
    ns = n if isinstance(n, list) else [n] * len(points)
    if any(k < 0 for k in ns):
        raise ValueError("n must be nonnegative")
    i_delta, i_gamma = _cell_pairs(points, taus, index, "sinc2")
    with np.errstate(over="ignore", invalid="ignore"):
        rates = (np.array([float(2 * k + 1) for k in ns])[index] * i_delta - i_gamma) / taus
    overflow = np.flatnonzero(~np.isfinite(rates))
    if overflow.size:
        c = index[overflow[0]]
        raise OverflowError(f"the rates of n={ns[c]} overflow a double at {points[c][0]}")
    return rates


def effective_decay_rate_fd(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    n: int,
    tau: float,
) -> float:
    """Effective decay rate via the frequency-domain sinc^2 kernel.

    rate = (alpha^2 tau / 4) Int J(w) { [(2n+1) coth - 1] sinc^2(v-)
                                      + [(2n+1) coth + 1] sinc^2(v+) } dw

    with v± = (w ± w0) tau / 2.  Mathematically identical to the time
    route but evaluated with differently grouped integrands, so the two
    act as mutual numerical oracles.  It is always a quadrature, also
    for the Lorentz-Drude bath, whose time route is closed form.
    """
    if not (0.0 < tau < np.inf):
        raise ValueError("tau must be positive and finite")
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_model_consistency(params, model)
    pair_weight = _pair_weight(model, params)
    m = 2 * n + 1

    def weight_minus(omega):
        coth, bare = pair_weight(omega)
        return m * coth - bare

    def weight_plus(omega):
        coth, bare = pair_weight(omega)
        return m * coth + bare

    half = 0.5 * tau
    lower = half_kernel_integral(weight_minus, params.omega0, half, "sinc2", -1)
    upper = half_kernel_integral(weight_plus, params.omega0, half, "sinc2", +1)
    rate = params.alpha**2 * 0.25 * tau * (lower + upper)
    _check_rate(rate, rate * tau, tau)
    return rate


def markovian_decay_rate(params: ReservoirParams, model: BaseSpectralDensity, n: int) -> float:
    """Fermi-golden-rule decay rate (2n+1) Delta_M - gamma_M.

    The minus sign follows from the tau -> infinity limit of the
    time-domain rate; it vanishes exactly at theta = 0, n = 0.
    """
    return _markov_rate(params, model, n)[0]


def zeno_ratio(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    n: int,
    tau: float,
) -> float:
    """rate_z(n, tau) / markovian rate; the QZE/AZE decider.

    Raises DegenerateDenominatorError when the Markovian rate is
    degenerate (theta ~ 0, n = 0): no finite ratio exists and the
    measurements always enhance the decay.
    """
    denominator = _ratio_denominator(params, model, n)
    return effective_decay_rate(params, model, n, tau) / denominator


def high_t_ratio(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    tau: float,
) -> float:
    """High-temperature limit of the decay-rate ratio: IDelta(tau)/(tau Delta_M).

    Independent of the initial Fock state; ties the Zeno crossover to the
    averaged environment-induced decoherence accumulated between
    measurements.
    """
    if not (tau > 0.0):
        raise ValueError("tau must be positive")
    lim = markovian_limits(params, model)
    return integrated_diffusion(params, model, tau) / (tau * lim.delta_m)


def classify_regime(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    n: int,
    tau: float,
) -> Regime:
    """QZE if ratio < 1 - RATIO_TOL, AZE if > 1 + RATIO_TOL, else Marginal.

    The degenerate (zero-denominator) case maps to AZE.
    """
    try:
        ratio = zeno_ratio(params, model, n, tau)
    except DegenerateDenominatorError:
        return Regime.AZE
    return _regime(ratio)


def _excess(points: list, denominators: np.ndarray, n: int, taus: np.ndarray,
            index: np.ndarray) -> np.ndarray:
    """ratio - 1 at every row: taus[i] in the cell points[index[i]], whose Markovian
    rate is denominators[index[i]], each row as ``_rates`` gives it."""
    return _rates(points, n, taus, index) / denominators[index] - 1.0


def _crossovers(points: list, denominators: np.ndarray, n: int, taus: np.ndarray,
                excess: np.ndarray) -> list[list[float]]:
    """Crossover times of each cell: the roots of ratio(tau) - 1 between its grid samples.

    Row c of ``excess`` holds ratio - 1 of the cell points[c] at every
    tau of the grid ``taus``.  ``scan_for_bracket`` reads each row (no
    rate call) and brackets its sign changes; a zero on the grid is a
    root as it stands.  Every bracket of every cell is refined by
    Brent-Dekker (``numerics.brent_dekker``) to 1e-12 relative width,
    from the grid values at its ends, in lock step: each round takes the
    next tau of every live bracket, and one ``_excess`` call evaluates
    them all, a row each.  A row is what its cell's single-tau rate would be, bit
    for bit, so each bracket takes the steps that refining it alone
    would.  Each root is then ``bisect`` replaying the bracket's
    trajectory (tau -> ratio - 1) without a rate call; a KeyError there
    would mean that the lock step left the scalar path.
    """
    jobs = []
    for c, row in enumerate(excess):
        samples = dict(zip(taus.tolist(), row.tolist()))
        jobs += [(c, bracket) for bracket in scan_for_bracket(samples.__getitem__, taus)]
    steps = [brent_dekker(bracket, 1e-12 * bracket.hi) for _, bracket in jobs]
    trajectories: list[dict] = [{} for _ in jobs]
    pending: dict[int, float] = {}  # job -> the tau it waits for

    def advance(j: int, value) -> None:
        try:
            pending[j] = steps[j].send(value)
        except StopIteration:
            pending.pop(j, None)

    for j in range(len(jobs)):
        advance(j, None)
    while pending:
        live = list(pending)
        asked = np.array([pending[j] for j in live])
        index = np.array([jobs[j][0] for j in live])
        values = _excess(points, denominators, n, asked, index).tolist()
        for j, tau, value in zip(live, asked.tolist(), values):
            trajectories[j][tau] = value
            advance(j, value)
    roots: list[list[float]] = [[] for _ in points]
    for (c, bracket), trajectory in zip(jobs, trajectories):
        roots[c].append(bisect(trajectory.__getitem__, bracket, tol=1e-12 * bracket.hi))
    return roots


def _crossover_grid(tau_range: tuple[float, float], grid_points: int) -> np.ndarray:
    """The log grid of a crossover search, after checking its range and size."""
    lo, hi = tau_range
    if not (0.0 < lo < hi < np.inf):
        raise ValueError("tau_range must be finite, positive and ordered")
    if grid_points < 16:
        raise ValueError("grid_points must be at least 16")
    return np.geomspace(lo, hi, grid_points)


def find_crossover_time(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    n: int,
    tau_range: tuple[float, float],
    grid_points: int = 64,
) -> list[float]:
    """All crossover times tau* with rate ratio = 1 inside tau_range.

    Evaluates ratio - 1 on a log-spaced grid in one pass, brackets every
    sign change and refines every bracket by Brent-Dekker to 1e-12
    relative width, all brackets in lock step: this is ``_crossover_map``
    of the one point.  On the closed-form Lorentz-Drude path tau* is
    then good to about 1e-12; on quadrature baths it is only as exact as
    the rate.  An empty list means no crossover in range; the
    oscillatory coefficients at r < 1 can produce several.  Raises
    DegenerateDenominatorError in the AZE-divergent case.
    """
    _ratio_denominator(params, model, n)
    return _crossover_map([(params, model)], n, tau_range, grid_points)[0]


def _crossover_map(
    points: list,
    n: int,
    tau_range: tuple[float, float],
    grid_points: int,
) -> list[list[float] | None]:
    """find_crossover_time at every (params, model) point, all at once; None where degenerate.

    Every cell whose Markovian rate is not degenerate joins one pass over
    the log grid of ``grid_points`` taus, and then the bracketing and
    lock-step refinement of all their roots (``_crossovers``).  A map of
    Lorentz-Drude cells is thus one closed-form call per grid and per
    Brent-Dekker round, not one per cell and step.  Each row of a pass is
    its own cell's single-tau rate, bit for bit, so each list is what the
    cell alone would give.
    """
    taus = _crossover_grid(tau_range, grid_points)
    cells, live, denominators = [], [], []
    for i, (params, model) in enumerate(points):
        denominator, degenerate = _markov_rate(params, model, n)
        if not degenerate:
            cells.append((params, model))
            live.append(i)
            denominators.append(denominator)
    denominators = np.array(denominators)
    index = np.repeat(np.arange(len(cells)), len(taus))
    excess = _excess(cells, denominators, n, np.tile(taus, len(cells)), index)
    found: list[list[float] | None] = [None] * len(points)
    for i, roots in zip(live, _crossovers(cells, denominators, n, taus,
                                          excess.reshape(len(cells), len(taus)))):
        found[i] = roots
    return found


@dataclass(frozen=True)
class ZenoScan:
    """Effective decay rate and ratio over a grid of measurement intervals.

    ``degenerate`` is set in the AZE-divergent regime, where the ratio
    column is infinite.
    """

    n: int
    taus: np.ndarray
    rate_z: np.ndarray
    ratio: np.ndarray
    markov_rate: float
    crossovers: list[float]
    params: ReservoirParams
    degenerate: bool = False

    def __post_init__(self) -> None:
        if len(self.taus) != len(self.rate_z) or len(self.taus) != len(self.ratio):
            raise ValueError("taus, rate_z and ratio must have equal length")
        _check_tau_grid(np.asarray(self.taus))

    def regimes(self) -> list[Regime]:
        """The regime at every tau, banded as in classify_regime."""
        return [_regime(rho) for rho in self.ratio]

    def table(self) -> tuple[list[str], list]:
        """(header, columns): tau, rate_z, ratio and the regime names."""
        regimes = [regime.value for regime in self.regimes()]
        return ["tau", "rate_z", "ratio", "regime"], [self.taus, self.rate_z, self.ratio, regimes]

    def to_csv(self, path) -> None:
        """Write the table at 17 significant digits, atomically (temp + rename)."""
        write_csv(path, *self.table())

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
        """Write the metadata sidecar, atomically (temp + rename)."""
        write_json(path, self.metadata())


def zeno_scan(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    n: int,
    taus,
) -> ZenoScan:
    """Tabulate the effective decay rate and ratio over a tau grid.

    In the degenerate (AZE-divergent) case the scan still tabulates the
    rates, with the ratio column set to +infinity.  The grid is evaluated
    in one pass (``_rates`` of the one cell).  Crossovers are bracketed
    at the sign changes of the tabulated ratio and refined to 1e-12
    relative width, as in find_crossover_time (``_crossovers``); a grid
    of one tau brackets none.  Raises ValueError, before any rate is
    computed, unless taus is a 1-D grid of finite, positive, strictly
    increasing values.
    """
    taus = np.asarray(taus, dtype=float)
    _check_tau_grid(taus)
    denominator, degenerate = _markov_rate(params, model, n)
    point = [(params, model)]
    rates = _rates(point, n, taus, np.zeros(taus.size, np.intp))

    if degenerate:
        ratio = np.full_like(rates, np.inf)
        crossovers: list[float] = []
    else:
        ratio = rates / denominator
        # scan_for_bracket takes two taus or more; one has no sign change.
        crossovers = [] if taus.size < 2 else _crossovers(
            point, np.array([denominator]), n, taus, (ratio - 1.0)[None])[0]
    return ZenoScan(
        n=n,
        taus=taus,
        rate_z=rates,
        ratio=ratio,
        markov_rate=denominator,
        crossovers=crossovers,
        params=params,
        degenerate=degenerate,
    )
