"""Survival probabilities, measurement schedules and the Fock-ladder simulator.

Transition probabilities out of |n> follow the diagonal rate equation:
upward (n+1)[Delta(t) - gamma(t)], downward n[Delta(t) + gamma(t)].  A
non-selective measurement erases system-bath correlations while keeping
the populations, so between measurements the coefficient clock restarts
at zero and the survival probability factorizes, P^(N) = P(tau)^N.

The ladder simulator extends the loss-only rate equation with the
matching repopulation (gain) terms so total probability is conserved up
to leakage past the truncation level; it backs the shuttered- versus
un-shuttered-noise comparison of the trapped-ion protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline

from ._table import csv_text
from .coefficients import (
    CoefficientSeries,
    coefficient_pair,
    integrated_diffusion,
    integrated_pair,
)
from .errors import (
    NegativeProbabilityError,
    PerturbativeBreakdownError,
    StiffStepError,
    TruncationLeakageError,
)
from .numerics import QuadratureSpec
from .spectral import BaseSpectralDensity, ReservoirParams
from .zeno import Regime, markovian_decay_rate

__all__ = [
    "LadderState",
    "LadderTrace",
    "MeasurementMode",
    "MeasurementSchedule",
    "ShutteredComparison",
    "UnshutteredSurvival",
    "eid_attenuation",
    "evolve_ladder",
    "shuttered_comparison",
    "survival_after_measurements",
    "survival_probability",
    "transition_probabilities",
    "unshuttered_survival",
]

_NEGATIVE_PROB_FLOOR = -1e-12
_ESCAPE_LIMIT = 0.5
_LEAKAGE_LIMIT = 1e-6
_STIFFNESS_LIMIT = 0.1


class MeasurementMode(Enum):
    SHUTTERED = "shuttered"
    UNSHUTTERED = "unshuttered"


@dataclass(frozen=True)
class MeasurementSchedule:
    """A train of N non-selective measurements spaced by tau."""

    tau: float
    n_measurements: int
    mode: MeasurementMode = MeasurementMode.SHUTTERED

    def __post_init__(self) -> None:
        if not (self.tau > 0.0):
            raise ValueError("tau must be positive")
        if self.n_measurements < 1:
            raise ValueError("n_measurements must be at least 1")

    @property
    def total_time(self) -> float:
        return self.tau * self.n_measurements


@dataclass(frozen=True)
class LadderState:
    """Fock-level populations rho_nn over 0..n_max at a given clock time."""

    populations: np.ndarray
    time: float
    n_max: int

    def __post_init__(self) -> None:
        pops = np.asarray(self.populations, dtype=float)
        object.__setattr__(self, "populations", pops)
        if pops.shape != (self.n_max + 1,):
            raise ValueError("populations must have length n_max + 1")
        if np.any(pops < _NEGATIVE_PROB_FLOOR) or np.any(pops > 1.0 + 1e-9):
            raise ValueError("populations must lie in [0, 1]")
        if float(np.sum(pops)) > 1.0 + 1e-9:
            raise ValueError("populations must sum to at most 1")

    @classmethod
    def fock(cls, n: int, n_max: int | None = None) -> "LadderState":
        """Pure |n> with the required truncation margin n_max >= n + 5."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        if n_max is None:
            n_max = n + 10
        if n_max < n + 5:
            raise ValueError("n_max must leave a margin of at least 5 levels above n")
        pops = np.zeros(n_max + 1)
        pops[n] = 1.0
        return cls(populations=pops, time=0.0, n_max=n_max)

    def total(self) -> float:
        return float(np.sum(self.populations))


def transition_probabilities(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    n: int,
    tau: float,
    spec: QuadratureSpec | None = None,
) -> tuple[float, float]:
    """(P_up, P_down) for |n> over one measurement interval tau.

    P_up = (n+1) [IDelta - Igamma], P_down = n [IDelta + Igamma].
    Negative values beyond -1e-12 raise NegativeProbabilityError (they
    signal quadrature failure, not physics); the pair must stay within
    the perturbative window P_up + P_down <= 0.5.
    """
    if not (tau > 0.0):
        raise ValueError("tau must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    i_delta, i_gamma = integrated_pair(params, model, tau, spec)
    p_up = (n + 1) * (i_delta - i_gamma)
    p_down = n * (i_delta + i_gamma)
    for name, p in (("P_up", p_up), ("P_down", p_down)):
        if p < _NEGATIVE_PROB_FLOOR:
            raise NegativeProbabilityError(f"{name} = {p:.3e} < 0 beyond roundoff")
    p_up = max(p_up, 0.0)
    p_down = max(p_down, 0.0)
    if p_up + p_down > _ESCAPE_LIMIT:
        raise PerturbativeBreakdownError(
            f"escape probability {p_up + p_down:.3g} > {_ESCAPE_LIMIT} at tau={tau}"
        )
    return p_up, p_down


def survival_probability(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    n: int,
    tau: float,
    spec: QuadratureSpec | None = None,
) -> float:
    """Probability that |n> survives one interval: 1 - P_up - P_down."""
    p_up, p_down = transition_probabilities(params, model, n, tau, spec)
    return 1.0 - p_up - p_down


def survival_after_measurements(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    n: int,
    schedule: MeasurementSchedule,
    spec: QuadratureSpec | None = None,
) -> float:
    """Survival of |n> after the scheduled measurement train.

    Shuttered mode: the exact power law P(tau)^N (each measurement resets
    the coefficient clock).  Unshuttered mode: free decay over the same
    total duration, no intermediate resets.
    """
    if schedule.mode is MeasurementMode.UNSHUTTERED:
        return unshuttered_survival(params, model, n, schedule.total_time, spec).probability
    p = survival_probability(params, model, n, schedule.tau, spec)
    return p**schedule.n_measurements


@dataclass(frozen=True)
class UnshutteredSurvival:
    """Free-decay survival with its Markovian reference.

    ``perturbative`` is the second-order value 1 - escape, present only
    within its validity window; beyond it ``probability`` falls back to
    the Markovian exponential and ``extrapolated`` is set.
    """

    probability: float
    markovian: float
    perturbative: float | None
    extrapolated: bool


def unshuttered_survival(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    n: int,
    t_total: float,
    spec: QuadratureSpec | None = None,
) -> UnshutteredSurvival:
    """Survival of |n> with the noise on continuously for t_total."""
    if not (t_total > 0.0):
        raise ValueError("t_total must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    markov = math.exp(-markovian_decay_rate(params, model, n) * t_total)
    i_delta, i_gamma = integrated_pair(params, model, t_total, spec)
    escape = (2 * n + 1) * i_delta - i_gamma
    if escape > _ESCAPE_LIMIT:
        return UnshutteredSurvival(
            probability=markov, markovian=markov, perturbative=None, extrapolated=True
        )
    if escape < _NEGATIVE_PROB_FLOOR:
        raise NegativeProbabilityError(f"escape probability {escape:.3e} < 0 beyond roundoff")
    value = 1.0 - max(escape, 0.0)
    return UnshutteredSurvival(
        probability=value, markovian=markov, perturbative=value, extrapolated=False
    )


def eid_attenuation(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    dx: float,
    tau: float,
    spec: QuadratureSpec | None = None,
) -> float:
    """Position-coherence attenuation factor exp(-dx^2 * IDelta(tau)).

    ``dx`` is the position separation x - x' in units of sqrt(hbar/omega0);
    diagonal elements (dx = 0) are unaffected.
    """
    if tau < 0.0:
        raise ValueError("tau must be nonnegative")
    if tau == 0.0:
        return 1.0
    return math.exp(-(dx**2) * integrated_diffusion(params, model, tau, spec))


def _rate_table(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    t_end: float,
    spec: QuadratureSpec | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, delta, gamma) on the ladder's uniform grid over [0, t_end]."""
    times = np.linspace(0.0, t_end, max(80, min(400, int(40 * t_end) + 2)))
    rows = [(0.0, 0.0)] + [coefficient_pair(params, model, float(t), spec) for t in times[1:]]
    delta, gamma = np.array(rows).T
    return times, delta, gamma


def _spline_rates(times: np.ndarray, delta: np.ndarray, gamma: np.ndarray):
    delta_s, gamma_s = CubicSpline(times, delta), CubicSpline(times, gamma)
    return lambda ts: (delta_s(ts), gamma_s(ts))


def _rate_functions(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    coefficients,
    t_end: float,
    spec: QuadratureSpec | None,
):
    """Normalize the rate source to one map: times array -> (delta, gamma) arrays."""
    if coefficients is None:
        return _spline_rates(*_rate_table(params, model, t_end, spec))
    if isinstance(coefficients, CoefficientSeries):
        if coefficients.times[-1] < t_end - 1e-12:
            raise ValueError("coefficient table does not cover the requested time span")
        return _spline_rates(coefficients.times, coefficients.delta, coefficients.gamma)
    delta_fn, gamma_fn = coefficients
    return lambda ts: (
        np.array([delta_fn(t) for t in ts], dtype=float),
        np.array([gamma_fn(t) for t in ts], dtype=float),
    )


def _ladder_rhs(p: np.ndarray, delta: float, gamma: float, levels: np.ndarray) -> np.ndarray:
    up = (levels + 1.0) * (delta - gamma)
    down = levels * (delta + gamma)
    flow = -(up + down) * p
    flow[1:] += up[:-1] * p[:-1]
    flow[:-1] += down[1:] * p[1:]
    return flow


def _integrate_ladder(
    state: LadderState,
    rates,
    dt: float,
    t_end: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 on the birth-death system; returns (times, populations).

    ``rates`` maps an array of times to the (delta, gamma) arrays there;
    it is called once each for the step starts, midpoints and ends.
    """
    if not (dt > 0.0):
        raise ValueError("dt must be positive")
    span = t_end - state.time
    if span <= 0.0:
        raise ValueError("t_end must exceed the state's current time")
    n_steps = max(1, int(math.ceil(span / dt - 1e-12)))
    h = span / n_steps
    levels = np.arange(state.n_max + 1, dtype=float)

    d, g = rates(np.linspace(state.time, t_end, 9))
    max_rate = float(np.max(np.abs((state.n_max + 1) * (d - g)) + np.abs(state.n_max * (d + g))))
    if h * max_rate > _STIFFNESS_LIMIT:
        raise StiffStepError(
            f"dt * max_rate = {h * max_rate:.3g} exceeds {_STIFFNESS_LIMIT}; reduce dt"
        )

    times = state.time + h * np.arange(n_steps + 1)
    times[-1] = t_end
    starts = times[:-1]
    d1, g1 = (a.tolist() for a in rates(starts))
    d2, g2 = (a.tolist() for a in rates(starts + 0.5 * h))
    d4, g4 = (a.tolist() for a in rates(starts + h))
    trace = np.empty((n_steps + 1, state.n_max + 1))
    p = state.populations.copy()
    trace[0] = p
    for i in range(n_steps):
        k1 = _ladder_rhs(p, d1[i], g1[i], levels)
        k2 = _ladder_rhs(p + 0.5 * h * k1, d2[i], g2[i], levels)
        k3 = _ladder_rhs(p + 0.5 * h * k2, d2[i], g2[i], levels)
        k4 = _ladder_rhs(p + h * k3, d4[i], g4[i], levels)
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        trace[i + 1] = p
    return times, trace


def evolve_ladder(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    state: LadderState,
    dt: float,
    t_end: float,
    coefficients=None,
    spec: QuadratureSpec | None = None,
) -> LadderState:
    """Evolve the Fock-ladder populations to t_end with explicit RK4 steps.

    Time-dependent rates are read from ``coefficients``: a
    CoefficientSeries (cubic-spline interpolated), a pair of callables
    (delta(t), gamma(t)), or None to tabulate on demand.  Raises
    StiffStepError when dt * max-rate exceeds 0.1 and
    TruncationLeakageError when population reaches the top level.
    """
    rates = _rate_functions(params, model, coefficients, t_end, spec)
    _, trace = _integrate_ladder(state, rates, dt, t_end)
    final = trace[-1]
    if final[-1] > _LEAKAGE_LIMIT:
        raise TruncationLeakageError(
            f"top-level population {final[-1]:.3e} > {_LEAKAGE_LIMIT}; increase n_max"
        )
    return LadderState(populations=np.clip(final, 0.0, 1.0), time=t_end, n_max=state.n_max)


@dataclass(frozen=True)
class LadderTrace:
    """Recorded populations over a simulated measurement protocol."""

    times: np.ndarray
    populations: np.ndarray  # shape (len(times), n_max + 1)
    mode: MeasurementMode
    tau: float
    n_measurements: int
    initial_n: int

    @property
    def survival_final(self) -> float:
        return float(self.populations[-1, self.initial_n])

    def table(self) -> tuple[list[str], list[np.ndarray]]:
        """(header, columns): t, then the population p<k> of every level k."""
        levels = self.populations.shape[1]
        return ["t"] + [f"p{k}" for k in range(levels)], [self.times, *self.populations.T]

    def to_csv(self, path) -> None:
        """Write the table at 17 significant digits."""
        Path(path).write_text(csv_text(*self.table()))

    def summary(self, regime: str) -> dict:
        return {
            "mode": self.mode.value,
            "tau": self.tau,
            "N": self.n_measurements,
            "survival_final": self.survival_final,
            "regime": regime,
        }


@dataclass(frozen=True)
class ShutteredComparison:
    """Shuttered versus un-shuttered survival at the measurement times.

    ``shuttered`` is the analytic power law P(tau)^k; ``shuttered_ladder``
    the rate-equation simulation with the coefficient clock reset after
    each interval; ``unshuttered`` the free decay over t = k tau.
    """

    times: np.ndarray
    shuttered: np.ndarray
    shuttered_ladder: np.ndarray
    unshuttered: np.ndarray
    unshuttered_extrapolated: bool
    trace: LadderTrace = field(repr=False)

    @property
    def verdict(self) -> Regime:
        final_s, final_u = self.shuttered[-1], self.unshuttered[-1]
        if final_s > final_u:
            return Regime.QZE
        if final_s < final_u:
            return Regime.AZE
        return Regime.MARGINAL

    def table(self) -> tuple[list[str], list[np.ndarray]]:
        """(header, columns): t, shuttered, unshuttered."""
        return ["t", "shuttered", "unshuttered"], [self.times, self.shuttered, self.unshuttered]

    def to_csv(self, path) -> None:
        """Write the table at 17 significant digits."""
        Path(path).write_text(csv_text(*self.table()))


def shuttered_comparison(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    n: int,
    tau: float,
    n_measurements: int,
    spec: QuadratureSpec | None = None,
    n_max: int | None = None,
    dt: float | None = None,
) -> ShutteredComparison:
    """Rate-equation comparison of the shuttered-noise measurement protocol.

    Shuttering the engineered noise for an instant traces out the
    reservoir (a non-selective measurement); the survival of |n> under N
    such switch off-on periods is compared against leaving the noise on
    for the same total duration.  Shuttered > unshuttered signals QZE,
    the reverse AZE.
    """
    schedule = MeasurementSchedule(tau=tau, n_measurements=n_measurements)
    p_single = survival_probability(params, model, n, schedule.tau, spec)
    times = schedule.tau * np.arange(n_measurements + 1, dtype=float)
    shuttered = p_single ** np.arange(n_measurements + 1)
    if n_max is None:
        # High-T baths pump population up the ladder roughly one level per
        # unit escape; leave generous headroom above that drift.
        total_escape = n_measurements * (1.0 - p_single)
        n_max = n + max(10, 12 + int(math.ceil(16.0 * total_escape)))

    unshuttered = np.ones(n_measurements + 1)
    extrapolated = False
    for k in range(1, n_measurements + 1):
        result = unshuttered_survival(params, model, n, float(times[k]), spec)
        unshuttered[k] = result.probability
        extrapolated = extrapolated or result.extrapolated

    # Ladder route: one rate table over a single interval, reused because
    # every measurement resets the coefficient clock to zero.
    table_times, delta, gamma = _rate_table(params, model, tau, spec)
    if dt is None:
        rate_bound = float(
            np.max((n_max + 1) * np.abs(delta - gamma) + n_max * np.abs(delta + gamma))
        )
        dt = min(tau / 200.0, 0.05 / max(rate_bound, 1e-12))
    rates = _spline_rates(table_times, delta, gamma)
    state = LadderState.fock(n, n_max)
    ladder = np.ones(n_measurements + 1)
    segments_t = []
    segments_p = []
    for k in range(n_measurements):
        seg_times, seg_trace = _integrate_ladder(state, rates, dt=dt, t_end=tau)
        if seg_trace[-1, -1] > _LEAKAGE_LIMIT:
            raise TruncationLeakageError("population reached the ladder truncation level")
        segments_t.append(seg_times + k * tau)
        segments_p.append(seg_trace)
        ladder[k + 1] = seg_trace[-1, n]
        state = LadderState(
            populations=np.clip(seg_trace[-1], 0.0, 1.0), time=0.0, n_max=state.n_max
        )

    trace = LadderTrace(
        times=np.concatenate(segments_t),
        populations=np.concatenate(segments_p),
        mode=MeasurementMode.SHUTTERED,
        tau=tau,
        n_measurements=n_measurements,
        initial_n=n,
    )
    return ShutteredComparison(
        times=times,
        shuttered=shuttered,
        shuttered_ladder=ladder,
        unshuttered=unshuttered,
        unshuttered_extrapolated=extrapolated,
        trace=trace,
    )
