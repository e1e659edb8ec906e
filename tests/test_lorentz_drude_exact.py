"""The closed-form Lorentz-Drude path against an mpmath oracle and the quadrature.

``OhmicLorentzDrude`` itself takes the Matsubara evaluator; any other
model, subclasses included, takes the quadrature.  The oracle below
evaluates the same time-domain decomposition in mpmath at 34 working
digits, with its own summation (direct terms, then Euler-Maclaurin with
numerical derivatives; a tanh-sinh integral at theta = 0) and in
absolute units (no omega0 scaling).
"""

import cmath
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from qbmzeno import _matsubara, coefficients, numerics
from qbmzeno.coefficients import _pairs, coefficient_pair, integrated_pair
from qbmzeno.spectral import OhmicLorentzDrude, ReservoirParams
from qbmzeno.zeno import (
    effective_decay_rate,
    effective_decay_rate_fd,
    find_crossover_time,
    high_t_ratio,
    markovian_decay_rate,
)

ORACLE_DPS = 34
REL_TOL = 1e-11
# Euler-Maclaurin: (derivative order j, Bernoulli number B_{j+1}).
_EULER_MACLAURIN = ((1, mp.mpf(1) / 6), (3, mp.mpf(-1) / 30), (5, mp.mpf(1) / 42))


def _time_kernel(z, t, power):
    """Int_0^t (t - s)^(power-1) e^{-z s} ds.

    At |z t| << 1 the numerator cancels like (z t)^power, so it is formed
    with that many more bits.
    """
    with mp.extraprec(max(0, -power * mp.mag(z * t))):
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
            if nu == wc:  # a node rounded onto the removable point: step off it
                nu = wc * (1 + mp.sqrt(mp.eps))
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
        grid = {kernel: _pairs(params, model, np.array(taus), kernel)
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

    @pytest.mark.parametrize("r, theta, t, power", [
        (0.5, 1.0, 1e-13, 1), (0.5, 1e-3, 1e-10, 2), (0.01, 1e-5, 1e-15, 1), (0.01, 1e-5, 1e-15, 2),
    ])
    def test_gregory_corners(self, r, theta, t, power):
        # theta t << 1: the Matsubara sum ends in Gregory's formula around
        # Int_a^inf G, a = K 2 pi theta far above max(1, r).
        params = ReservoirParams(r=r, theta=theta, alpha=0.1)
        pair = coefficient_pair if power == 1 else integrated_pair
        _assert_close(pair(params, params.spectral_model(), t),
                      oracle_pair(r, theta, t, power), f"t={t}")

    @pytest.mark.parametrize("r, theta, t, power", [
        (0.1, 1.0, 3.2e-3, 1), (1.0, 1.0, 2e-3, 2), (10.0, 0.2, 0.021, 1), (10.0, 0.2, 0.0106, 2),
        (0.1, 10.0, 5.8e-4, 2), (1.0, 10.0, 2e-4, 1), (10.0, 0.005, 3.0, 1), (10.0, 0.01, 1.5, 2),
    ])
    def test_rows_past_the_direct_cap(self, r, theta, t, power):
        # Bounds K in (_MAX_TERMS, 4096]: rows that Gregory's formula completes from
        # k = 64, on both sides of t = 1 (the last two: K from the series bound).
        bound = max(math.ceil(40.0 / (2.0 * math.pi * theta * t)),
                    math.ceil(8.0 * max(1.0, r) / (2.0 * math.pi * theta)))
        assert _matsubara._MAX_TERMS < bound <= 4096
        params = ReservoirParams(r=r, theta=theta, alpha=0.1)
        pair = coefficient_pair if power == 1 else integrated_pair
        _assert_close(pair(params, params.spectral_model(), t),
                      oracle_pair(r, theta, t, power), f"t={t}")

    @pytest.mark.parametrize("r", [0.05, 0.3, 1.0, 3.0, 20.0])
    def test_theta0_branch_seams(self, r):
        # Both sides of the switch to the small-t series and of the
        # Markov split at t = 1.
        params = ReservoirParams(r=r, theta=0.0, alpha=0.1)
        model = params.spectral_model()
        for seam in (0.1 / max(1.0, r), 1.0):
            for t in (seam * (1.0 - 1e-9), seam * (1.0 + 1e-9)):
                _assert_close(coefficient_pair(params, model, t),
                              oracle_pair(r, 0.0, t, 1), f"t={t}")
                _assert_close(integrated_pair(params, model, t),
                              oracle_pair(r, 0.0, t, 2), f"tau={t}")


def oracle_markov_rate(r, theta, n, alpha=0.1):
    """(2n+1) Delta_M - gamma_M in mpmath (omega0 = 1): the Fermi golden rule.

    gamma_M = alpha^2 wc^2 / (2 (wc^2 + 1)), the t -> infinity limit of
    the oracle's gamma, and Delta_M = gamma_M coth(1 / 2 theta).
    """
    with mp.workdps(ORACLE_DPS):
        wc = mp.mpf(r)
        gamma_m = mp.mpf(alpha) ** 2 * wc**2 / (2 * (wc**2 + 1))
        delta_m = gamma_m if theta == 0 else gamma_m / mp.tanh(1 / (2 * mp.mpf(theta)))
        return (2 * n + 1) * delta_m - gamma_m


@pytest.mark.slow
class TestCrossoverOracle:
    # Cells of the README crossover map, at its tau range and grid.
    @pytest.mark.parametrize("r, theta, n", [(0.5, 100.0, 0), (0.1, 1.0, 0),
                                             (10.0, 0.0, 50), (1.0, 100.0, 50)])
    def test_roots_hold_to_1e_10(self, r, theta, n):
        # Every tau* is a sign change of the oracle's escape excess
        # (2n+1) IDelta - Igamma - tau R_M (the numerator of ratio - 1)
        # between tau* (1 - 1e-10) and tau* (1 + 1e-10).
        params = ReservoirParams(r=r, theta=theta, alpha=0.1)
        stars = find_crossover_time(params, params.spectral_model(), n, (1e-3, 1e2), 24)
        assert stars
        if (r, theta, n) == (0.5, 100.0, 0):
            assert stars == [pytest.approx(1.00806, rel=1e-5)]
        markov = oracle_markov_rate(r, theta, n)
        for star in stars:
            signs = []
            for tau in (star * (1.0 - 1e-10), star * (1.0 + 1e-10)):
                i_delta, i_gamma = oracle_pair(r, theta, tau, 2)
                with mp.workdps(ORACLE_DPS):
                    signs.append(mp.sign((2 * n + 1) * i_delta - i_gamma - tau * markov))
            assert signs[0] * signs[1] < 0, (star, signs)


def high_temperature_excess(tau, r):
    """Int_0^tau e^{-rs} (cos s - sin s / r) ds: Delta(t) / Delta_M - 1 integrated, theta -> inf."""
    kernel = (1.0 - cmath.exp(-complex(r, -1.0) * tau)) / complex(r, -1.0)
    return kernel.real - kernel.imag / r


def high_temperature_root(r, tau_range):
    """The first tau in ``tau_range`` where high_temperature_excess changes sign, or None."""
    grid = np.geomspace(*tau_range, 2001)
    values = [high_temperature_excess(tau, r) for tau in grid]
    for lo, hi, f_lo, f_hi in zip(grid, grid[1:], values, values[1:]):
        if f_lo * f_hi < 0.0:
            return brentq(high_temperature_excess, lo, hi, args=(r,), xtol=1e-15, rtol=1e-15)
    return None


class TestHighTemperatureLimit:
    # For theta -> inf, Delta(t) -> Delta_M (1 - e^{-rt} (cos t - sin t / r)):
    # tau* solves a closed-form equation in r alone, for every n.
    TAUS = (1e-3, 1e2)
    THETAS = (1e2, 1e3, 1e4)

    @pytest.mark.parametrize("r, want", [(0.1, 0.2000044), (0.5, 1.0141057), (1.0, math.pi)])
    def test_smallest_root_extrapolates_to_the_limit(self, r, want):
        limit = high_temperature_root(r, self.TAUS)
        assert limit == pytest.approx(want, abs=5e-8)  # want rounded to 7 decimals
        # tau*(theta) = a0 + a1 / theta + a2 / theta^2 + O(theta^-3).
        fit = np.array([[1.0, 1.0 / theta, theta**-2.0] for theta in self.THETAS])
        for n in (0, 1, 50):
            stars = []
            for theta in self.THETAS:
                params = ReservoirParams(r=r, theta=theta, alpha=0.1)
                stars.append(min(find_crossover_time(
                    params, params.spectral_model(), n, self.TAUS, 24)))
            a0 = np.linalg.solve(fit, np.array(stars))[0]
            assert abs(a0 - limit) <= 2e-6 * limit, (n, stars, a0, limit)

    @pytest.mark.parametrize("r", [2.0, 10.0])
    def test_no_root_where_the_limit_has_none(self, r):
        assert high_temperature_root(r, self.TAUS) is None
        for theta in self.THETAS:
            params = ReservoirParams(r=r, theta=theta, alpha=0.1)
            for n in (0, 1, 50):
                assert find_crossover_time(params, params.spectral_model(), n, self.TAUS, 24) == []

    @pytest.mark.xfail(strict=True, reason="a root pair inside one grid cell is not bracketed")
    @pytest.mark.parametrize("r, roots", [(1.008, (3.394, 4.797)), (1.012, (3.653, 4.279))])
    def test_root_pair_inside_one_grid_cell(self, r, roots):
        # Just above r = 1 the limit has two roots a short window apart;
        # both fall between two of the 24 grid points, so the grid sees no
        # sign change and find_crossover_time returns [] (96 points find
        # them).  The known defect: this passes once the extrema of the
        # sampled ratio are checked between its grid points.
        params = ReservoirParams(r=r, theta=1e4, alpha=0.1)
        stars = find_crossover_time(params, params.spectral_model(), 0, self.TAUS, 24)
        assert stars == [pytest.approx(root, rel=1e-3) for root in roots]

    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 10.0])
    def test_high_t_ratio_converges_like_inverse_theta_squared(self, r):
        # IDelta(tau) / (tau Delta_M) -> 1 - excess(tau) / tau; the
        # difference falls as 1/theta^2 (7.0e-4, 7.9e-6, 8.0e-8 at r = 10,
        # tau = 0.01), at most 0.4 of this bound everywhere here.
        for tau in (1e-2, 0.7, 3.0, 50.0):
            limit = 1.0 - high_temperature_excess(tau, r) / tau
            for theta in self.THETAS:
                params = ReservoirParams(r=r, theta=theta, alpha=0.1)
                ratio = high_t_ratio(params, params.spectral_model(), tau)
                assert abs(ratio - limit) <= 2e-3 * (100.0 / theta) ** 2, (tau, theta, ratio, limit)


class TestZeroTemperatureClosedForm:
    @pytest.mark.parametrize("x", [1e-3, 1.0, 39.9, 40.1, 700.0, 710.0, 1e4, 1e6])
    def test_scaled_exponential_integrals(self, x):
        with mp.workdps(ORACLE_DPS):
            want_ei = float(mp.exp(-x) * mp.ei(x))
            want_e1 = float(mp.exp(x) * mp.e1(x))
        (got_ei,), (got_e1,), _ = _matsubara._exponential_integrals(np.array([x]), np.array([x]))
        assert abs(got_ei - want_ei) <= 1e-14 * abs(want_ei)
        assert abs(got_e1 - want_e1) <= 1e-14 * abs(want_e1)

    def test_large_wc_t_is_finite_without_warnings(self):
        # wc t = 1e5: Ei(wc t) itself overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for power in (1, 2):
                values = _matsubara.pair(10.0, 0.0, np.array([1e4]), power)
                assert all(np.isfinite(v).all() for v in values)

    def test_no_adaptive_integral(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("integrate_adaptive called on the closed-form path")

        monkeypatch.setattr(numerics, "integrate_adaptive", refuse)
        # theta = 0: small-t series, closed form below t = 1 and Markov
        # split above it; theta > 0: Gregory tails at small theta t, zeta
        # tails elsewhere.
        grid = np.array([1e-15, 1e-9, 1e-4, 3e-3, 0.05, 0.4, 1.0, 7.0, 1e4])
        for theta in (0.0, 1e-5, 0.2, 10.0):
            for wc in (0.1, 1.0, 10.0):
                for power in (1, 2):
                    delta, _ = _matsubara.pair(wc, theta, grid, power)
                    assert np.isfinite(delta).all()
                    single, _ = _matsubara.pair(wc, theta, grid[5:6], power)
                    assert single[0] == delta[5]


def tail_oracle(wc, t, power, split, lower):
    """Int_lower^inf G(nu) dnu in mpmath, G as in ``oracle_pair`` (omega0 = 1).

    ``split`` takes the Markovian part t^(power-1)/z out of the kernel,
    as ``_matsubara`` does from t = 1 on.
    """
    with mp.workdps(ORACLE_DPS):
        wc, t, lower = mp.mpf(wc), mp.mpf(t), mp.mpf(lower)

        def kernel(nu):
            z = mp.mpc(nu, -1)
            value = _time_kernel(z, t, power)
            return value - t ** (power - 1) / z if split else value

        h_c = wc * mp.re(kernel(wc))

        def summand(nu):
            if nu == wc:  # a node rounded onto the removable point: step off it
                nu = wc * (1 + mp.sqrt(mp.eps))
            return (nu * mp.re(kernel(nu)) - h_c) / (nu**2 - wc**2)

        # Cuts a decade apart over G's scales, from 1e-3 min(1, wc) to 100/t.
        first = int(mp.floor(mp.log10(min(1, wc)))) - 3
        cuts = [lower + mp.mpf(10) ** k for k in range(first, int(mp.ceil(mp.log10(100 / t))) + 1)]
        # Past the last cut in u = cut / nu: mp.quad's own map of [cut, inf]
        # misses 1 % of this tail at cut = 1e17.
        far = mp.quad(lambda u: summand(cuts[-1] / u) * cuts[-1] / u**2, [0, 1])
        return mp.quad(summand, [lower] + cuts) + far


class TestGregoryTail:
    # t from 1e-15 to 300, both kernels and powers, the tail starting far
    # above the cutoff (a = 64 * 2 pi theta), at it and just past it.
    @pytest.mark.parametrize("wc, t, power, split, lower", [
        (0.5, 1e-13, 1, False, 128 * math.pi),
        (0.01, 1e-15, 2, False, 128 * math.pi * 1e-5),
        (0.5, 1e-9, 1, False, 128 * math.pi * 1e-3),
        (0.5, 1e-10, 2, False, 128 * math.pi * 1e-3),
        (20.0, 1e-6, 1, False, 20.0),
        (0.1, 1e-4, 2, False, 0.1 * (1.0 + 1e-7)),
        (0.3, 0.5, 1, False, 0.3),
        (2.0, 3.0, 1, True, 2.0 * (1.0 + 1e-7)),
        (10.0, 3.0, 2, True, 10.0 * (1.0 + 1e-7)),
        (2.0, 300.0, 2, True, 2.0),
    ])
    def test_trapezoid_matches_mpmath(self, wc, t, power, split, lower):
        kernel = _matsubara._Kernel(wc, np.array([t]), power, split)
        (got,) = _matsubara._tail_integrals(kernel, np.array([0]), np.array([lower]))
        want = float(tail_oracle(wc, t, power, split, lower))
        assert abs(got - want) <= 1e-13 * abs(want), (got, want)


def _direct_rows(wc, theta, power):
    """Kernels of the (wc, theta) cell whose rows' own bounds K lie in
    [_GREGORY_START, _MAX_TERMS]: times below t = 1 at K near 64, 256 and
    1024, and t = 1 and 3 where the cell's series bound reaches 64."""
    step, k_series, scale, _ = _matsubara._thermal(wc, theta)
    times = [40.0 / (step * (k - 0.5)) for k in (64, 256, 1024)] + [1.0, 3.0]
    for late in (False, True):
        t = np.array([v for v in times if (v >= 1.0) == late])
        bound = np.maximum(np.ceil(_matsubara._EXP_CUT / (step * t)), k_series).astype(np.int64)
        keep = (bound >= _matsubara._GREGORY_START) & (bound <= _matsubara._MAX_TERMS)
        if np.count_nonzero(keep):
            kernel = _matsubara._Kernel(wc, t[keep], power, late, theta)
            yield kernel, np.arange(np.count_nonzero(keep)), bound[keep], step, scale


# The corners of the completion-boundary tests: (theta, r, power).
BOUNDARY_CORNERS = [(theta, r, power) for theta in (0.2, 1.0, 10.0) for r in (0.1, 1.0, 10.0)
                    for power in (1, 2)]


class TestCompletionBoundary:
    """Rows past _MAX_TERMS take Gregory's completion from k = 64; on rows
    that stay direct the two completions, and the trapezoid at two steps, agree."""

    def test_both_sides_of_t_1_are_covered(self):
        late = [kernel.c == 0.0 for theta, r, power in BOUNDARY_CORNERS
                for kernel, *_ in _direct_rows(r, theta, power)]
        assert any(late) and not all(late)

    @pytest.mark.parametrize("theta, r, power", BOUNDARY_CORNERS)
    def test_gregory_from_64_matches_the_zeta_tail(self, theta, r, power):
        for kernel, rows, bound, step, scale in _direct_rows(r, theta, power):
            direct = (_matsubara._direct_sums(kernel, rows, bound, step)
                      + _matsubara._zeta_tails(kernel, rows, bound, scale))
            start = np.full(len(rows), _matsubara._GREGORY_START)
            head, correction = _matsubara._gregory(kernel, rows, start, step)
            gregory = head + _matsubara._tail_integrals(kernel, rows, start * step) / step
            gregory += correction
            assert np.all(np.abs(gregory - direct) <= 1e-14 * np.abs(direct)), (
                kernel.t, bound, gregory, direct)

    @pytest.mark.parametrize("theta, r, power", BOUNDARY_CORNERS)
    def test_halving_the_tail_step_moves_nothing(self, theta, r, power, monkeypatch):
        # The trapezoid's error is about exp(-pi^2 / _TAIL_STEP) of the integral.
        for kernel, rows, _, step, _ in _direct_rows(r, theta, power):
            lower = np.full(len(rows), _matsubara._GREGORY_START * step)
            coarse = _matsubara._tail_integrals(kernel, rows, lower)
            monkeypatch.setattr(_matsubara, "_TAIL_STEP", _matsubara._TAIL_STEP / 2)
            fine = _matsubara._tail_integrals(kernel, rows, lower)
            monkeypatch.undo()
            assert np.all(np.abs(coarse - fine) <= 1e-15 * np.abs(fine)), (kernel.t, coarse, fine)


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
        assert len(calls) == 1  # both kernel terms in one pass

    def test_far_left_head_node_budget(self, monkeypatch):
        # At tau = 1e4 the head of the pass, in u = (omega - omega0) tau/2,
        # reaches u = -5000; its Filon panels left of u = -96, which serve
        # both kernels, take 39,059 nodes (quarter-period GK15 panels took
        # 94,270).
        far_left = []
        semi_infinite = coefficients.integrate_semi_infinite

        def counted(f, *args, **kwargs):
            def envelope(u):
                far_left.append(np.count_nonzero(u < -96.0))
                return f(u)

            return semi_infinite(envelope, *args, **kwargs)

        monkeypatch.setattr(coefficients, "integrate_semi_infinite", counted)
        params = ReservoirParams(r=0.5, theta=1.0, alpha=0.1)
        got = integrated_pair(params, QuadratureLorentzDrude(0.5), 1e4)
        assert sum(far_left) <= 50_000
        monkeypatch.undo()
        want = integrated_pair(params, params.spectral_model(), 1e4)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-9 * abs(w)


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
# times below t = 1 and Markov-split times from t = 1 on; at theta = 0,
# small-t series times (t <= 0.1 / max(1, r)) and closed-form times.
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
            delta, gamma = _pairs(params, model, grid, kernel)
            points = np.array([pair(params, model, float(t)) for t in grid])
            assert np.array_equal(delta, points[:, 0])
            assert np.array_equal(gamma, points[:, 1])
            pieces = [_pairs(params, model, chunk, kernel) for chunk in chunks]
            assert np.array_equal(np.concatenate([p[0] for p in pieces]), delta)
            assert np.array_equal(np.concatenate([p[1] for p in pieces]), gamma)
