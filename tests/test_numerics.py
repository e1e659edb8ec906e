import math
import warnings

import numpy as np
import pytest

from qbmzeno import _matsubara
from qbmzeno.numerics import (
    InvalidBracketError,
    NonConvergenceError,
    NonFiniteError,
    QuadratureSpec,
    RootBracket,
    bisect,
    integrate_adaptive,
    integrate_semi_infinite,
    ordered_map,
    scan_for_bracket,
)


def lorentzian(u):
    return 1.0 / (1.0 + u * u)


class TestSpecValidation:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.abs_tol == 1e-10
        assert spec.rel_tol == 1e-8
        assert spec.max_subdivisions == 2000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"abs_tol": -1e-10},
            {"rel_tol": 0.0},
            {"max_subdivisions": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)


def _exp_sinc2(a):
    return math.atan(2.0 / a) - 0.25 * a * math.log1p(4.0 / (a * a))


class TestSemiInfinite:
    def test_exponential(self):
        # Int_0^inf e^{-a u} sinc u du = arctan(1/a).
        for a in (0.5, 1e-4):
            value, err = integrate_semi_infinite(
                lambda u, a=a: np.exp(-a * u), QuadratureSpec(), kernel="sinc"
            )
            assert abs(value - math.atan(1.0 / a)) < 1e-10
            assert err < 1e-6

    @pytest.mark.parametrize("a", [0.5, 1e-4])
    def test_exponential_sinc_squared(self, a):
        # a = 1e-4 is a wide envelope, far from any power law at the cut.
        value, err = integrate_semi_infinite(
            lambda u: np.exp(-a * u), QuadratureSpec(), kernel="sinc2"
        )
        assert abs(value - _exp_sinc2(a)) < 1e-10
        assert err < 1e-6

    def test_lorentz_drude_normalization(self):
        # A Lorentzian envelope 1/(1 + u^2) against both kernels.
        value, _ = integrate_semi_infinite(lorentzian, QuadratureSpec(), kernel="sinc")
        assert abs(value - 0.5 * np.pi * (1.0 - math.exp(-1.0))) < 1e-10
        value, _ = integrate_semi_infinite(lorentzian, QuadratureSpec(), kernel="sinc2")
        assert abs(value - 0.25 * np.pi * (1.0 + math.exp(-2.0))) < 1e-10

    def test_sinc_squared(self):
        # Int_0^inf sinc^2 u du = pi/2.
        value, _ = integrate_semi_infinite(np.ones_like, QuadratureSpec(), kernel="sinc2")
        assert abs(value - 0.5 * np.pi) < 1e-10

    def test_zero_tail_costs_little(self):
        # An envelope that is exactly zero past the cut (a narrow bath at
        # short times): the tail evaluates at most 2000 nodes.
        far = []

        def envelope(u):
            far.append(np.count_nonzero(u >= 96.0))
            return np.where(u < 20.0, np.exp(-u), 0.0)

        value, _ = integrate_semi_infinite(envelope, QuadratureSpec(), kernel="sinc2")
        assert value == pytest.approx(_exp_sinc2(1.0), abs=1e-10)
        assert sum(far) <= 2000

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            integrate_semi_infinite(np.exp, QuadratureSpec(), kernel="cos")
        with pytest.raises(ValueError, match="finite"):
            integrate_semi_infinite(np.exp, QuadratureSpec(), lower=-math.inf, kernel="sinc")

    def test_scalar_only_integrand_raises_its_own_error(self):
        # The engine calls an integrand with arrays only, so math.exp's
        # own TypeError reaches the caller.
        with pytest.raises(TypeError):
            integrate_adaptive(math.exp, 0.0, 1.0, QuadratureSpec())
        with pytest.raises(TypeError):
            integrate_semi_infinite(math.exp, QuadratureSpec(), kernel="sinc2")

    @pytest.mark.parametrize(
        "wrong",
        [lambda x: 1.0, lambda x: x[:-1], lambda x: np.ones((2, 3, x.size))],
        ids=["scalar", "short", "three-dim"],
    )
    def test_wrong_shape_raises(self, wrong):
        with pytest.raises(ValueError, match="integrand returned shape"):
            integrate_adaptive(wrong, 0.0, 1.0, QuadratureSpec())

    def test_integrand_warning_reaches_caller(self):
        def noisy(u):
            warnings.warn("bath model overflow", RuntimeWarning)
            return np.exp(-u)

        with pytest.warns(RuntimeWarning, match="bath model overflow"):
            integrate_semi_infinite(noisy, QuadratureSpec(), kernel="sinc2")

    def test_non_finite(self):
        # In the head, and in the tail where only the structure probe
        # looks past the first cycle batch for sinc.
        for kernel in ("sinc", "sinc2"):
            for where in (5.0, 200.0, 1000.0):
                def bad(u, where=where):
                    return np.where(u > where, np.nan, np.exp(-u))

                with pytest.raises(NonFiniteError):
                    integrate_semi_infinite(bad, QuadratureSpec(), kernel=kernel)

    @pytest.mark.parametrize("kernel", ["sinc", "sinc2"])
    @pytest.mark.parametrize("center", [200.0, 250.0, 1000.0])
    @pytest.mark.parametrize("background", [0.0, 1.0])
    def test_narrow_peak_in_the_tail(self, kernel, center, background):
        # A line of width 0.5 in u past the cut, after an exactly zero or
        # a decaying stretch (a user bath with a narrow resonance at long
        # times): extrapolating from the first half periods would miss it.
        # Reference: quarter-period panels over a range holding all of it.
        def envelope(u):
            return np.exp(-0.5 * ((u - center) / 0.5) ** 2) + background * np.exp(-0.1 * u)

        def kernel_value(u):
            k = np.sinc(u / np.pi)
            return k if kernel == "sinc" else k * k

        ref, _ = integrate_adaptive(
            lambda u: envelope(u) * kernel_value(u), 0.0, center + 200.0,
            QuadratureSpec(abs_tol=1e-15, rel_tol=1e-13, max_subdivisions=100000),
            max_panel_width=0.25 * np.pi,
        )
        value, _ = integrate_semi_infinite(envelope, QuadratureSpec(), kernel=kernel)
        assert abs(value - ref) < 1e-10

    def test_non_convergence(self):
        # Integrable but endpoint-singular: the subdivision budget runs out.
        spec = QuadratureSpec(max_subdivisions=8)
        with pytest.raises(NonConvergenceError):
            integrate_adaptive(lambda x: 1.0 / np.sqrt(x), 1e-300, 1.0, spec)

    def test_deterministic(self):
        a, _ = integrate_semi_infinite(lorentzian, QuadratureSpec(), kernel="sinc2")
        b, _ = integrate_semi_infinite(lorentzian, QuadratureSpec(), kernel="sinc2")
        assert a == b

    def test_integrand_exception_propagates(self):
        def broken(u):
            raise ValueError("bad bath model")

        with pytest.raises(ValueError, match="bad bath model"):
            integrate_adaptive(broken, 0.0, 1.0, QuadratureSpec())
        with pytest.raises(ValueError, match="bad bath model"):
            integrate_semi_infinite(broken, QuadratureSpec(), kernel="sinc2")


def two_component(u):
    out = np.empty((2, u.size))
    out[0] = 1.0
    out[1] = np.exp(-0.1 * u) * np.cos(u) ** 2
    return out


class TestVectorIntegrand:
    def test_oscillatory_matches_scalar_calls(self):
        spec = QuadratureSpec()
        for kernel in ("sinc", "sinc2"):
            value, err = integrate_semi_infinite(two_component, spec, kernel=kernel)
            assert value.shape == err.shape == (2,)
            for c in range(2):
                alone = integrate_semi_infinite(
                    lambda u, c=c: two_component(u)[c], spec, kernel=kernel
                )
                # Components keep their own panels, tail latch and structure
                # extension (under sinc^2 the samples of cos^2 u alternate
                # between 1 and 0, so the second one takes it): bit-identical.
                assert (value[c], err[c]) == alone
            assert abs(value[0] - 0.5 * np.pi) < 1e-10

    @pytest.mark.parametrize("failing", [0, 1])
    def test_either_component_failing_raises(self, failing):
        def pair(x):
            out = np.empty((2, x.size))
            out[failing] = 1.0 / np.sqrt(x)  # endpoint-singular
            out[1 - failing] = np.exp(-x)
            return out

        spec = QuadratureSpec(max_subdivisions=8)
        integrate_semi_infinite(lambda x: np.exp(-x), spec, kernel="sinc2")
        with pytest.raises(NonConvergenceError, match=f"component {failing}"):
            integrate_semi_infinite(pair, spec, kernel="sinc2")

    def test_adaptive_vector_and_scalar_results(self):
        value, err = integrate_adaptive(lambda x: np.stack([x, x**2]), 0.0, 1.0)
        np.testing.assert_allclose(value, [0.5, 1.0 / 3.0], rtol=1e-13)
        assert err.shape == (2,)
        scalar, _ = integrate_adaptive(lambda x: x**2, 0.0, 1.0)
        assert isinstance(scalar, float)

    def test_origin_breakpoints_resolve_a_sliver(self):
        # All weight within 1e-6 of the lower end of the first quarter
        # period: the geometric head breakpoints must find it.
        width = 1e-6
        value, _ = integrate_semi_infinite(
            lambda u: np.exp(-(u - 0.3) / width) / width,
            QuadratureSpec(), lower=0.3, kernel="sinc2",
        )
        assert value == pytest.approx(np.sinc(0.3 / np.pi) ** 2, rel=1e-5)


class TestAdaptive:
    def test_polynomial_exact(self):
        value, _ = integrate_adaptive(lambda x: x**2, 0.0, 1.0, QuadratureSpec())
        assert abs(value - 1.0 / 3.0) < 1e-13

    def test_empty_interval(self):
        assert integrate_adaptive(np.exp, 2.0, 2.0, QuadratureSpec()) == (0.0, 0.0)

    def test_noise_floor_stops_refinement(self, monkeypatch):
        # The theta = 0 Lorentz-Drude integral at r = 0.324, tau = 7.54 asked
        # for 1e-15 of its largest value: |K15 - G7| sits at its rounding
        # floor above that, so refinement stops there instead of running
        # out the subdivision budget.
        tau = np.array([7.54])
        want = _matsubara.pair(0.324, 0.0, tau, 2)
        monkeypatch.setattr(_matsubara, "_INTEGRAL_ABS_TOL", 1e-15)
        got = _matsubara.pair(0.324, 0.0, tau, 2)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    def test_panel_presplit(self):
        # 25 oscillations: quarter-period panels keep the estimate honest.
        value, _ = integrate_adaptive(
            lambda x: np.sin(x), 0.0, 50.0 * np.pi, QuadratureSpec(),
            max_panel_width=np.pi / 2.0,
        )
        assert abs(value) < 1e-9


def _square(x):
    return x * x


class TestOrderedMap:
    def test_in_process_keeps_task_order(self):
        assert ordered_map(_square, [3, 1, 2], jobs=1) == [9, 1, 4]
        assert ordered_map(_square, [3, 1, 2], jobs=0) == [9, 1, 4]
        assert ordered_map(_square, [], jobs=1) == []

    def test_workers_match_in_process(self):
        tasks = [0.5 * k for k in range(7)]
        assert ordered_map(_square, tasks, jobs=2) == ordered_map(_square, tasks, jobs=1)


class TestRootFinding:
    def test_bracket_validation(self):
        with pytest.raises(InvalidBracketError):
            RootBracket(2.0, 1.0, -1.0, 1.0)
        with pytest.raises(InvalidBracketError):
            RootBracket(0.0, 1.0, 1.0, 2.0)

    def test_bisect_linear(self):
        bracket = RootBracket(0.0, 2.0, -1.0, 1.0)
        root = bisect(lambda x: x - 1.0, bracket, tol=1e-10)
        assert abs(root - 1.0) < 1e-10

    def test_bisect_cosine(self):
        bracket = RootBracket(1.0, 2.0, np.cos(1.0), np.cos(2.0))
        root = bisect(np.cos, bracket, tol=1e-10)
        assert abs(root - np.pi / 2.0) < 1e-9

    def test_scan_quadratic(self):
        brackets = scan_for_bracket(lambda x: x**2 - 1.0, [0.0, 0.5, 1.5, 2.0])
        assert len(brackets) == 1
        assert (brackets[0].lo, brackets[0].hi) == (0.5, 1.5)

    def test_scan_constant(self):
        assert scan_for_bracket(lambda x: np.ones_like(x), [0.0, 1.0, 2.0]) == []

    def test_scan_sine(self):
        brackets = scan_for_bracket(
            lambda x: np.sin(2.0 * np.pi * x), [0.1, 0.4, 0.6, 0.9, 1.1]
        )
        assert len(brackets) == 2

    def test_scan_validation(self):
        with pytest.raises(ValueError):
            scan_for_bracket(np.sin, [1.0])
        with pytest.raises(ValueError):
            scan_for_bracket(np.sin, [1.0, 0.5])

    def test_scan_calls_f_once_per_grid_point_with_floats(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 0.7

        grid = [0.0, 0.5, 1.0, 1.5]
        brackets = scan_for_bracket(f, grid)
        assert calls == grid
        assert all(type(x) is float for x in calls)
        assert [(b.lo, b.hi) for b in brackets] == [(0.5, 1.0)]

    def test_scan_then_bisect_polynomial(self):
        # Simple roots placed between grid points are all recovered.
        roots = (0.9, 2.1, 3.3)

        def poly(x):
            return (x - roots[0]) * (x - roots[1]) * (x - roots[2])

        grid = np.linspace(0.0, 4.0, 17)
        brackets = scan_for_bracket(poly, grid)
        assert len(brackets) == len(roots)
        found = [bisect(poly, b, tol=1e-12) for b in brackets]
        assert np.allclose(found, roots, atol=1e-10)

    def test_bisect_non_finite(self):
        bracket = RootBracket(0.0, 2.0, -1.0, 1.0)
        with pytest.raises(NonFiniteError):
            bisect(lambda x: float("nan"), bracket, tol=1e-10)
