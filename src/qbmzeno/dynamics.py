"""Survival probabilities, measurement schedules and the Fock-ladder populations.

Transition probabilities out of |n> follow the diagonal rate equation:
upward (n+1)[Delta(t) - gamma(t)], downward n[Delta(t) + gamma(t)].  A
non-selective measurement erases system-bath correlations while keeping
the populations, so between measurements the coefficient clock restarts
at zero and the survival probability factorizes, P^(N) = P(tau)^N.

The full rate equation, gain terms included, is a linear birth-death
process: over [0, t] it maps the Fock-ladder populations exactly by two
numbers (Intravaia, Maniscalco and Messina, PRA 67, 042108 (2003)), and
such maps compose across the segments of the trapped-ion protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ._table import write_csv
from .coefficients import (
    CoefficientSeries,
    _pairs,
    integrated_diffusion,
    integrated_pair,
    tabulate_coefficients,
)
from .errors import (
    NegativeProbabilityError,
    PerturbativeBreakdownError,
    TruncationLeakageError,
)
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
# Rows of one shuttering segment in the ladder trace, both ends included.
_SEGMENT_ROWS = 201


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
        if not (0.0 < self.tau < math.inf):
            raise ValueError("tau must be positive and finite")
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
) -> tuple[float, float]:
    """(P_up, P_down) for |n> over one measurement interval tau.

    P_up = (n+1) [IDelta - Igamma], P_down = n [IDelta + Igamma].
    Negative values beyond -1e-12 raise NegativeProbabilityError (they
    signal an error in the integrated pair, not physics); the pair must
    stay within the perturbative window P_up + P_down <= 0.5.
    """
    if not (tau > 0.0):
        raise ValueError("tau must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    i_delta, i_gamma = integrated_pair(params, model, tau)
    return _transitions(n, tau, i_delta, i_gamma)


def _transitions(n: int, tau: float, i_delta: float, i_gamma: float) -> tuple[float, float]:
    """transition_probabilities from the integrated pair at tau."""
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
) -> float:
    """Probability that |n> survives one interval: 1 - P_up - P_down."""
    p_up, p_down = transition_probabilities(params, model, n, tau)
    return 1.0 - p_up - p_down


def survival_after_measurements(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    n: int,
    schedule: MeasurementSchedule,
) -> float:
    """Survival of |n> after the scheduled measurement train.

    Shuttered mode: the exact power law P(tau)^N (each measurement resets
    the coefficient clock).  Unshuttered mode: free decay over the same
    total duration, no intermediate resets.
    """
    if schedule.mode is MeasurementMode.UNSHUTTERED:
        return unshuttered_survival(params, model, n, schedule.total_time).probability
    p = survival_probability(params, model, n, schedule.tau)
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
) -> UnshutteredSurvival:
    """Survival of |n> with the noise on continuously for t_total."""
    if not (t_total > 0.0):
        raise ValueError("t_total must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    i_delta, i_gamma = integrated_pair(params, model, t_total)
    return _unshuttered(n, t_total, i_delta, i_gamma, markovian_decay_rate(params, model, n))


def _unshuttered(n: int, t_total: float, i_delta: float, i_gamma: float, markov_rate: float):
    """unshuttered_survival from the integrated pair at t_total and the Markov rate."""
    markov = math.exp(-markov_rate * t_total)
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
) -> float:
    """Position-coherence attenuation factor exp(-dx^2 * IDelta(tau)).

    ``dx`` is the position separation x - x' in units of sqrt(hbar/omega0);
    diagonal elements (dx = 0) are unaffected.
    """
    if tau < 0.0:
        raise ValueError("tau must be nonnegative")
    if tau == 0.0:
        return 1.0
    return math.exp(-(dx**2) * integrated_diffusion(params, model, tau))


def _cumulative(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Running integral of samples on a grid of >= 4 times, fourth order on any grid.

    Each interval integrates the cubic through the four samples nearest to it.
    """
    stencil = np.clip(np.arange(len(times) - 1) - 1, 0, len(times) - 4)[:, None] + np.arange(4)
    h = np.diff(times)
    knots = (times[stencil] - times[:-1, None]) / h[:, None]  # in units of the interval
    cubic = np.linalg.solve(knots[:, :, None] ** np.arange(4), values[stencil][:, :, None])
    return np.concatenate([[0.0], np.cumsum(h * (cubic[:, :, 0] @ (1.0 / np.arange(1, 5))))])


def _ladder_maps(times, gamma, int_delta, int_gamma) -> tuple[np.ndarray, np.ndarray]:
    """The ladder map (a, b) from the first row's time to every row's time.

    a = exp(-2 Igamma) is the decay of the mean level and b the mean level
    reached from |0>, a Int (Delta - gamma) exp(2 Igamma) ds; integrating
    that by parts leaves only the O(alpha^4) remainder
    Int 2 IDelta gamma exp(2 Igamma) ds for the cumulative rule.
    """
    a = np.exp(-2.0 * int_gamma)
    remainder = _cumulative(times, 2.0 * int_delta * gamma / a)
    return a, int_delta + 0.5 * np.expm1(-2.0 * int_gamma) - a * remainder


def _times_linear(poly: np.ndarray, c0, c1) -> np.ndarray:
    """Rows of coefficients in z times (c0 + c1 z), truncated to the same degree."""
    out = c0 * poly
    out[:, 1:] += c1 * poly[:, :-1]
    return out


def _populations(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Populations over the levels of ``p`` after the ladder map (a[r], b[r]) of each row r.

    The map is binomial thinning with eta = a/(1+b) followed by a
    quantum-limited amplifier of gain 1+b, so every term is nonnegative:
    P(j->m) = sum_i C(j,i) eta^i (1-eta)^(j-i) C(m,i) (1+b)^-(i+1) (b/(1+b))^(m-i).
    Raises TruncationLeakageError when more than 1e-6 of the mass of ``p``
    ends above the top level.
    """
    a, b = a[:, None], b[:, None]
    eta = a / (1.0 + b)
    # Thinning: Horner's rule on the generating function sum_j p_j (1 - eta + eta z)^j.
    top = int(np.max(np.flatnonzero(p), initial=0))
    thinned = np.zeros((len(a), top + 1))
    for j in range(top, -1, -1):
        thinned = _times_linear(thinned, 1.0 - eta, eta)
        thinned[:, 0] += p[j]
    # Amplifier matrix, row m from row m - 1: A[m, i] = x A[m-1, i] + g A[m-1, i-1].
    g, x = 1.0 / (1.0 + b), b / (1.0 + b)
    amp = np.zeros_like(thinned)
    amp[:, :1] = g
    out = np.empty((len(a), len(p)))
    for m in range(len(p)):
        amp = _times_linear(amp, x, g) if m else amp
        out[:, m] = np.sum(amp * thinned, axis=1)
    tail = float(np.max(np.sum(p) - np.sum(out, axis=1)))
    if tail > _LEAKAGE_LIMIT:
        raise TruncationLeakageError(
            f"population {tail:.3e} above the top level exceeds {_LEAKAGE_LIMIT}; increase n_max"
        )
    return out


def _rate_rows(coefficients, t0: float, t_end: float, dt: float | None):
    """(times, gamma, IDelta, Igamma) over [t0, t_end], integrals taken from t0."""
    if not (t_end > t0):
        raise ValueError("t_end must exceed the state's time")
    if isinstance(coefficients, CoefficientSeries):
        if dt is not None:
            raise ValueError("a coefficient table is used on its own grid: pass no dt with it")
        times = coefficients.times
        if t0 != 0.0 or len(times) < 4 or not math.isclose(times[-1], t_end, rel_tol=1e-12):
            raise ValueError(
                f"a coefficient table of 4 or more rows must span the evolution: it runs "
                f"from t = 0 to {times[-1]!r}, the evolution from {t0!r} to {t_end!r}"
            )
        return times, coefficients.gamma, coefficients.int_delta, coefficients.int_gamma
    if dt is None or not (dt > 0.0):
        raise ValueError(f"callable rates need a positive sampling step dt, got {dt!r}")
    points = max(4, math.ceil((t_end - t0) / dt - 1e-12) + 1)
    delta_fn, gamma_fn = coefficients
    times = np.linspace(t0, t_end, points)
    delta = np.array([delta_fn(t) for t in times], dtype=float)
    gamma = np.array([gamma_fn(t) for t in times], dtype=float)
    return times, gamma, _cumulative(times, delta), _cumulative(times, gamma)


def evolve_ladder(
    state: LadderState,
    t_end: float,
    coefficients,
    dt: float | None = None,
) -> LadderState:
    """Evolve the Fock-ladder populations to t_end by the exact ladder map.

    Time-dependent rates come from ``coefficients``: a CoefficientSeries,
    used on its own grid, which must run from t = 0 (the state's time)
    to t_end and takes no ``dt``; or a pair of callables (delta(t),
    gamma(t)), sampled at a step of at most ``dt``, which they require,
    and integrated by a fourth-order cumulative rule.  Raises
    TruncationLeakageError when more than 1e-6 of the population ends
    above n_max.
    """
    times, gamma, i_delta, i_gamma = _rate_rows(coefficients, state.time, t_end, dt)
    a, b = _ladder_maps(times, gamma, i_delta, i_gamma)
    final = _populations(state.populations, a[-1:], b[-1:])[0]
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
        """Write the table at 17 significant digits, atomically (temp + rename)."""
        write_csv(path, *self.table())

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
    the exact rate-equation population of |n>, with the coefficient clock
    reset after each interval; ``unshuttered`` the free decay over
    t = k tau.  ``trace`` holds all populations at 201 times per interval.
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
        """Write the table at 17 significant digits, atomically (temp + rename)."""
        write_csv(path, *self.table())


def shuttered_comparison(
    params: ReservoirParams,
    model: BaseSpectralDensity,
    n: int,
    tau: float,
    n_measurements: int,
) -> ShutteredComparison:
    """Rate-equation comparison of the shuttered-noise measurement protocol.

    Shuttering the engineered noise for an instant traces out the
    reservoir (a non-selective measurement); the survival of |n> under N
    such switch off-on periods is compared against leaving the noise on
    for the same total duration.  Shuttered > unshuttered signals QZE,
    the reverse AZE.  The ladder is truncated with headroom above the
    expected upward drift.
    """
    schedule = MeasurementSchedule(tau=tau, n_measurements=n_measurements)
    if n < 0:
        raise ValueError("n must be nonnegative")
    # One coefficient table over a single interval serves the ladder of
    # every segment, because each measurement resets the coefficient
    # clock.  The free decay takes the integrated pair at every k tau in
    # one grid pass; its first entry, at tau, is that of one interval
    # (bit-identical to integrated_pair at tau), so P(tau) reuses it.
    table = tabulate_coefficients(params, model, tau, _SEGMENT_ROWS)
    times = schedule.tau * np.arange(n_measurements + 1, dtype=float)
    i_delta, i_gamma = _pairs(params, model, times[1:], "sinc2")
    p_up, p_down = _transitions(n, schedule.tau, float(i_delta[0]), float(i_gamma[0]))
    p_single = 1.0 - p_up - p_down
    shuttered = p_single ** np.arange(n_measurements + 1)
    # High-T baths pump population up the ladder roughly one level per
    # unit escape; leave generous headroom above that drift.
    total_escape = n_measurements * (1.0 - p_single)
    n_max = n + max(10, 12 + int(math.ceil(16.0 * total_escape)))

    unshuttered = np.ones(n_measurements + 1)
    extrapolated = False
    markov_rate = markovian_decay_rate(params, model, n)
    for k in range(1, n_measurements + 1):
        result = _unshuttered(
            n, float(times[k]), float(i_delta[k - 1]), float(i_gamma[k - 1]), markov_rate
        )
        unshuttered[k] = result.probability
        extrapolated = extrapolated or result.extrapolated

    # After k segments the map is (a^k, b (1 + a + ... + a^(k-1))); a row at
    # s inside the next segment composes that with (a(s), b(s)).
    a, b = _ladder_maps(table.times, table.gamma, table.int_delta, table.int_gamma)
    done_a = a[-1] ** np.arange(n_measurements)[:, None]
    done_b = b[-1] * np.concatenate([[0.0], np.cumsum(done_a[:-1])])[:, None]
    populations = _populations(
        LadderState.fock(n, n_max).populations, (done_a * a).ravel(), (done_b * a + b).ravel()
    )
    ladder = np.concatenate([[1.0], populations[_SEGMENT_ROWS - 1::_SEGMENT_ROWS, n]])

    trace = LadderTrace(
        times=(tau * np.arange(n_measurements)[:, None] + table.times).ravel(),
        populations=populations,
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
