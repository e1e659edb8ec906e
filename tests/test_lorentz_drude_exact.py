"""The closed-form Lorentz-Drude path against an mpmath oracle and the quadrature.

``OhmicLorentzDrude`` itself takes the Matsubara evaluator; any other
model, subclasses included, takes the quadrature.  The oracle below
evaluates the same time-domain decomposition in mpmath at 34 working
digits, with its own summation (direct terms, then Euler-Maclaurin with
numerical derivatives; a tanh-sinh integral at theta = 0) and in
absolute units (no omega0 scaling).
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbmzeno import coefficients
from qbmzeno.coefficients import _pairs, coefficient_pair, integrated_pair
from qbmzeno.spectral import OhmicLorentzDrude, ReservoirParams
from qbmzeno.zeno import effective_decay_rate, effective_decay_rate_fd, markovian_decay_rate

ORACLE_DPS = 34
REL_TOL = 1e-11
# Euler-Maclaurin: (derivative order j, Bernoulli number B_{j+1}).
_EULER_MACLAURIN = ((1, mp.mpf(1) / 6), (3, mp.mpf(-1) / 30), (5, mp.mpf(1) / 42))


def _time_kernel(z, t, power):
    """Int_0^t (t - s)^(power-1) e^{-z s} ds."""
    e = mp.exp(-z * t)
    return (1 - e) / z if power == 1 else (z * t + e - 1) / z**2


def oracle_pair(r, theta, t, power, alpha=0.1, omega0=1.0):
    """(Delta, gamma) (power 1) or (IDelta, Igamma) (power 2) in mpmath.

    nu(s) = wc^2 T [e^{-wc s}/wc + 2 Sum_k (nu_k e^{-nu_k s} - wc e^{-wc s})
    / (nu_k^2 - wc^2)] and eta(s) = (wc^2/2) e^{-wc s}, with wc = r omega0,
    T = theta omega0, nu_k = 2 pi k T; each exponential is integrated
    against cos(omega0 s) resp. sin(omega0 s) in closed form.
    """
    with mp.workdps(ORACLE_DPS):
        w0 = mp.mpf(omega0)
        wc, t = mp.mpf(r) * w0, mp.mpf(t)
        k_c = _time_kernel(mp.mpc(wc, -w0), t, power)
        gamma = wc**2 / 2 * mp.im(k_c)
        h_c = wc * mp.re(k_c)

        def summand(nu):
            return (nu * mp.re(_time_kernel(mp.mpc(nu, -w0), t, power)) - h_c) / (nu**2 - wc**2)

        if theta == 0:
            # Never a node at the removable point nu = wc.
            cuts = sorted({mp.mpf(0), wc * mp.mpf("0.61"), wc * mp.mpf("1.73"), 1 / t, 10 / t, w0})
            delta = wc**2 / mp.pi * mp.quad(summand, cuts + [mp.inf])
        else:
            temp = mp.mpf(theta) * w0
            step = 2 * mp.pi * temp

            def term(k):
                return summand(step * k)

            first = max(300, int(2 * wc / step) + 16)
            head = mp.fsum(term(k) for k in range(1, first))
            decay = step * t
            cuts = sorted({mp.mpf(first), first + 1 / decay, first + 10 / decay,
                           first + 100 / decay})
            tail = mp.quad(term, cuts + [mp.inf]) + term(first) / 2
            tail -= mp.fsum(b / mp.factorial(j + 1) * mp.diff(term, first, j)
                            for j, b in _EULER_MACLAURIN)
            delta = temp * (h_c + 2 * wc**2 * (head + tail))
        return mp.mpf(alpha) ** 2 * delta, mp.mpf(alpha) ** 2 * gamma


def _assert_close(got, want, what):
    for name, g, w in zip(("Delta-type", "gamma-type"), got, want):
        w = float(w)
        assert abs(g - w) <= REL_TOL * abs(w), f"{what} {name}: {g!r} vs oracle {w!r}"


@pytest.mark.slow
class TestMpmathOracle:
    @pytest.mark.parametrize("theta", [0.0, 0.2, 1.0, 100.0])
    @pytest.mark.parametrize("r", [0.1, 1.0, 10.0])
    def test_grid(self, r, theta):
        params = ReservoirParams(r=r, theta=theta, alpha=0.1)
        model = params.spectral_model()
        taus = (1e-4, 1e-2, 1.0, 1e2, 1e4)
        # The same corners through the grid route, all five times in one pass.
        grid = {kernel: _pairs(params, model, np.array(taus), kernel, None)
                for kernel in ("sinc", "sinc2")}
        for i, tau in enumerate(taus):
            for kernel, pair, power in (("sinc", coefficient_pair, 1),
                                        ("sinc2", integrated_pair, 2)):
                want = oracle_pair(r, theta, tau, power)
                _assert_close(pair(params, model, tau), want, f"{kernel} t={tau}")
                _assert_close(tuple(float(v[i]) for v in grid[kernel]), want,
                              f"{kernel} grid t={tau}")

    @pytest.mark.parametrize("theta, r", [(1.0, 2.0 * math.pi)]
                             + [(0.2, 0.4 * math.pi * k) for k in (1, 2, 3)])
    def test_resonant_cutoffs(self, theta, r):
        # r = 2 pi k theta puts the cutoff pole on a Matsubara pole, where
        # cot(wc / 2T) diverges; the combined sum stays finite.
        params = ReservoirParams(r=r, theta=theta, alpha=0.1)
        model = params.spectral_model()
        for tau in (1e-3, 0.7, 50.0):
            pairs = coefficient_pair(params, model, tau) + integrated_pair(params, model, tau)
            assert all(math.isfinite(v) for v in pairs)
            _assert_close(pairs[:2], oracle_pair(r, theta, tau, 1), f"t={tau}")
            _assert_close(pairs[2:], oracle_pair(r, theta, tau, 2), f"tau={tau}")

    @pytest.mark.parametrize("theta", [0.0, 1.0])
    def test_other_system_frequency(self, theta):
        params = ReservoirParams(r=0.5, theta=theta, alpha=0.1, omega0=2.0)
        model = params.spectral_model()
        for tau in (3e-3, 2.0, 400.0):
            _assert_close(coefficient_pair(params, model, tau),
                          oracle_pair(0.5, theta, tau, 1, omega0=2.0), f"t={tau}")
            _assert_close(integrated_pair(params, model, tau),
                          oracle_pair(0.5, theta, tau, 2, omega0=2.0), f"tau={tau}")

    @pytest.mark.filterwarnings("ignore:escape probability")
    @pytest.mark.parametrize("r, theta, n", [(0.5, 1.0, 1), (0.22, 0.0, 0)])
    def test_long_interval_rates(self, r, theta, n):
        # The quadrature misses these by 2.1e-7 and 1.4e-2; at theta = 0,
        # n = 0 the rate is the small difference of IDelta and Igamma.
        tau = 1e4
        params = ReservoirParams(r=r, theta=theta, alpha=0.1)
        i_delta, i_gamma = oracle_pair(r, theta, tau, 2)
        with mp.workdps(ORACLE_DPS):
            want = float(((2 * n + 1) * i_delta - i_gamma) / tau)
        got = effective_decay_rate(params, params.spectral_model(), n, tau)
        assert abs(got - want) <= REL_TOL * abs(want)


class QuadratureLorentzDrude(OhmicLorentzDrude):
    """The paper's bath as a subclass: it takes the quadrature route."""


class TestQuadratureAgreement:
    @pytest.mark.filterwarnings("ignore:escape probability")
    @pytest.mark.parametrize("theta", [0.0, 0.2, 100.0])
    @pytest.mark.parametrize("r", [0.1, 1.0, 10.0])
    def test_corners(self, r, theta):
        params = ReservoirParams(r=r, theta=theta, alpha=0.1)
        exact, quad = params.spectral_model(), QuadratureLorentzDrude(params.omega_c)
        for t in (1e-3, 30.0, 1e3, 1e4):
            for pair in (coefficient_pair, integrated_pair):
                want = pair(params, exact, t)
                got = pair(params, quad, t)
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-9 * abs(w), (pair.__name__, t, g, w)
            # The frequency route groups the weights inside the integrand.
            # At theta = 0, n = 0 only its counter-rotating half is left,
            # a value near the engine's abs_tol, hence the wider bound.
            for n in (0, 1):
                want = effective_decay_rate(params, exact, n, t)
                got = effective_decay_rate_fd(params, quad, n, t)
                assert abs(got - want) <= 1e-8 * abs(want), (n, t, got, want)

    def test_only_the_exact_type_skips_quadrature(self, monkeypatch):
        calls = []
        semi_infinite = coefficients.integrate_semi_infinite

        def counted(*args, **kwargs):
            calls.append(1)
            return semi_infinite(*args, **kwargs)

        monkeypatch.setattr(coefficients, "integrate_semi_infinite", counted)
        params = ReservoirParams(r=0.5, theta=1.0, alpha=0.1)
        integrated_pair(params, params.spectral_model(), 2.0)
        assert not calls
        integrated_pair(params, QuadratureLorentzDrude(0.5), 2.0)
        assert len(calls) == 2


# Property tests on the exact path: fixed examples (derandomized), no database.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
cutoffs = st.floats(0.1, 10.0)
temperatures = st.one_of(st.just(0.0), st.floats(0.2, 100.0))
intervals = st.floats(-4.0, 4.0).map(lambda x: 10.0**x)


class TestProperties:
    @PROPERTY
    @given(r=cutoffs, theta=temperatures, tau=intervals, alpha=st.floats(0.01, 2.0))
    def test_alpha_squared_scaling_is_exact(self, r, theta, tau, alpha):
        unit = ReservoirParams(r=r, theta=theta, alpha=1.0)
        params = ReservoirParams(r=r, theta=theta, alpha=alpha)
        model = unit.spectral_model()
        for pair in (coefficient_pair, integrated_pair):
            base = pair(unit, model, tau)
            assert pair(params, model, tau) == tuple(alpha**2 * v for v in base)

    @PROPERTY
    @given(r=cutoffs, theta=temperatures, tau=intervals)
    def test_gamma_is_temperature_free(self, r, theta, tau):
        cold = ReservoirParams(r=r, theta=0.0, alpha=0.1)
        hot = ReservoirParams(r=r, theta=theta, alpha=0.1)
        model = cold.spectral_model()
        assert coefficient_pair(hot, model, tau)[1] == coefficient_pair(cold, model, tau)[1]
        assert integrated_pair(hot, model, tau)[1] == integrated_pair(cold, model, tau)[1]

    @PROPERTY
    @given(r=cutoffs, theta=temperatures, n=st.integers(0, 50))
    def test_rate_tends_to_markov_rate(self, r, theta, n):
        assume(theta > 0.0 or n > 0)
        params = ReservoirParams(r=r, theta=theta, alpha=0.1)
        model = params.spectral_model()
        tau = 1e8
        i_delta, i_gamma = integrated_pair(params, model, tau)
        rate = ((2 * n + 1) * i_delta - i_gamma) / tau
        assert rate / markovian_decay_rate(params, model, n) == pytest.approx(1.0, abs=1e-2)

    @PROPERTY
    @given(r=cutoffs, theta=temperatures, tau=intervals, n=st.integers(0, 50),
           alpha=st.floats(0.01, 0.3))
    def test_transition_probabilities_nonnegative(self, r, theta, tau, n, alpha):
        params = ReservoirParams(r=r, theta=theta, alpha=alpha)
        i_delta, i_gamma = integrated_pair(params, params.spectral_model(), tau)
        p_up, p_down = (n + 1) * (i_delta - i_gamma), n * (i_delta + i_gamma)
        assume(p_up + p_down <= 0.5)
        assert p_up >= 0.0
        assert p_down >= 0.0


# Grids mixing Gregory-range times (theta = 0.2, t < 8e-3), direct-sum
# times below t = 1 and Markov-split times from t = 1 on.
gregory_times = st.lists(st.floats(1e-4, 7.9e-3), min_size=1, max_size=3)
short_times = st.lists(st.floats(8e-3, 0.999), min_size=1, max_size=3)
long_times = st.lists(st.floats(1.0, 1e4), min_size=1, max_size=3)


class TestGridRoute:
    """A time's value does not depend on the grid it is evaluated in."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(r=st.sampled_from([0.1, 1.0, 10.0]), theta=st.sampled_from([0.0, 0.2, 1.0, 100.0]),
           times=st.tuples(gregory_times, short_times, long_times),
           cuts=st.lists(st.integers(1, 8), max_size=3))
    def test_batch_matches_points_and_chunks(self, r, theta, times, cuts):
        params = ReservoirParams(r=r, theta=theta, alpha=0.1)
        model = params.spectral_model()
        grid = np.unique(np.concatenate([np.array(part) for part in times]))
        chunks = np.split(grid, sorted({c for c in cuts if c < len(grid)}))
        for kernel, pair in (("sinc", coefficient_pair), ("sinc2", integrated_pair)):
            delta, gamma = _pairs(params, model, grid, kernel, None)
            points = np.array([pair(params, model, float(t)) for t in grid])
            assert np.array_equal(delta, points[:, 0])
            assert np.array_equal(gamma, points[:, 1])
            pieces = [_pairs(params, model, chunk, kernel, None) for chunk in chunks]
            assert np.array_equal(np.concatenate([p[0] for p in pieces]), delta)
            assert np.array_equal(np.concatenate([p[1] for p in pieces]), gamma)
