import numpy as np
import pytest

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


def lorentzian(w):
    return 1.0 / (np.pi * (w**2 + 1.0))


def sinc_squared_half(w):
    s = np.sinc(w / (2.0 * np.pi))
    return s * s


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
            {"tail_cut_omega": -1.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)


class TestSemiInfinite:
    def test_exponential(self):
        value, err = integrate_semi_infinite(lambda w: np.exp(-w), QuadratureSpec())
        assert abs(value - 1.0) < 1e-8
        assert err < 1e-6

    def test_lorentz_drude_normalization(self):
        # omega_c^2 / (pi (omega^2 + omega_c^2)) with omega_c = 1 -> 1/2
        value, _ = integrate_semi_infinite(lorentzian, QuadratureSpec())
        assert abs(value - 0.5) < 1e-8

    def test_sinc_squared(self):
        # Int_0^inf sinc^2(a w) dw = pi/(2a); a = 1/2 gives pi.
        value, _ = integrate_semi_infinite(
            sinc_squared_half, QuadratureSpec(), oscillation_period=2.0 * np.pi
        )
        assert abs(value - np.pi) < 1e-6

    @pytest.mark.parametrize("cut", [4.0, 16.0, 64.0])
    def test_split_independence_smooth(self, cut):
        # The head/tail split point must not move the result.
        spec = QuadratureSpec(tail_cut_omega=cut)
        ref = QuadratureSpec()
        for f, expected in ((lambda w: np.exp(-w), 1.0), (lorentzian, 0.5)):
            forced, _ = integrate_semi_infinite(f, spec)
            default, _ = integrate_semi_infinite(f, ref)
            assert abs(forced - default) < 10.0 * ref.rel_tol * abs(expected)

    @pytest.mark.parametrize("cut", [40.0, 80.0, 160.0])
    def test_split_independence_oscillatory(self, cut):
        spec = QuadratureSpec(tail_cut_omega=cut)
        value, _ = integrate_semi_infinite(
            sinc_squared_half, spec, oscillation_period=2.0 * np.pi
        )
        assert abs(value - np.pi) < 10.0 * spec.rel_tol * np.pi + 1e-8

    def test_scalar_only_integrand(self):
        import math

        value, _ = integrate_semi_infinite(lambda w: math.exp(-w), QuadratureSpec())
        assert abs(value - 1.0) < 1e-8

    def test_non_finite(self):
        def bad(w):
            return np.where(w > 5.0, np.nan, np.exp(-w))

        with pytest.raises(NonFiniteError):
            integrate_semi_infinite(bad, QuadratureSpec())

    def test_non_convergence(self):
        # Integrable but endpoint-singular: the subdivision budget runs out.
        spec = QuadratureSpec(max_subdivisions=8)
        with pytest.raises(NonConvergenceError):
            integrate_adaptive(lambda x: 1.0 / np.sqrt(x), 1e-300, 1.0, spec)

    def test_deterministic(self):
        a, _ = integrate_semi_infinite(lorentzian, QuadratureSpec())
        b, _ = integrate_semi_infinite(lorentzian, QuadratureSpec())
        assert a == b

    def test_integrand_exception_propagates(self):
        def broken(w):
            raise ValueError("bad bath model")

        with pytest.raises(ValueError, match="bad bath model"):
            integrate_semi_infinite(broken, QuadratureSpec())
        with pytest.raises(ValueError, match="bad bath model"):
            integrate_semi_infinite(broken, QuadratureSpec(), oscillation_period=np.pi)

    def test_scalar_call_is_probed_once(self):
        # A scalar-only integrand costs one failed array call, then each
        # node once: the probe's value is kept.
        import math

        calls = []

        def scalar_only(w):
            calls.append(w)
            return math.exp(-w)

        integrate_adaptive(scalar_only, 0.0, 1.0, QuadratureSpec())
        assert len(calls) % 15 == 1  # the failed array call plus whole panels


def two_component(w):
    out = np.empty((2, w.size))
    out[0] = sinc_squared_half(w)
    out[1] = np.exp(-0.1 * w) * np.cos(w) ** 2
    return out


class TestVectorIntegrand:
    def test_oscillatory_matches_scalar_calls(self):
        spec = QuadratureSpec()
        value, err = integrate_semi_infinite(two_component, spec, oscillation_period=2.0 * np.pi)
        assert value.shape == err.shape == (2,)
        for c in range(2):
            alone = integrate_semi_infinite(
                lambda w, c=c: two_component(w)[c], spec, oscillation_period=2.0 * np.pi
            )
            # Components keep their own panels and tail latch: bit-identical.
            assert (value[c], err[c]) == alone
        assert abs(value[0] - np.pi) < 1e-6

    def test_decaying_matches_scalar_calls(self):
        # The decaying path shares one head/tail cut, placed for the
        # slowest component, so the match is to tolerance.
        def pair(w):
            return np.stack([np.exp(-w), lorentzian(w)])

        spec = QuadratureSpec()
        value, _ = integrate_semi_infinite(pair, spec)
        assert value[0] == pytest.approx(1.0, rel=1e-8)
        assert value[1] == pytest.approx(0.5, rel=1e-8)
        for c, f in enumerate((lambda w: np.exp(-w), lorentzian)):
            alone, _ = integrate_semi_infinite(f, spec)
            assert value[c] == pytest.approx(alone, rel=10.0 * spec.rel_tol)

    @pytest.mark.parametrize("failing", [0, 1])
    def test_either_component_failing_raises(self, failing):
        def pair(x):
            out = np.empty((2, x.size))
            out[failing] = 1.0 / np.sqrt(x)  # endpoint-singular
            out[1 - failing] = np.exp(-x)
            return out

        spec = QuadratureSpec(max_subdivisions=8)
        period = 2.0 * np.pi
        integrate_semi_infinite(lambda x: np.exp(-x), spec, oscillation_period=period)
        with pytest.raises(NonConvergenceError, match=f"component {failing}"):
            integrate_semi_infinite(pair, spec, oscillation_period=period)

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
            lambda u: np.exp(-(u - 0.3) / width) * np.cos(u) ** 2 / width,
            QuadratureSpec(), lower=0.3, oscillation_period=np.pi,
        )
        assert value == pytest.approx(np.cos(0.3) ** 2, rel=1e-5)


class TestAdaptive:
    def test_polynomial_exact(self):
        value, _ = integrate_adaptive(lambda x: x**2, 0.0, 1.0, QuadratureSpec())
        assert abs(value - 1.0 / 3.0) < 1e-13

    def test_empty_interval(self):
        assert integrate_adaptive(np.exp, 2.0, 2.0, QuadratureSpec()) == (0.0, 0.0)

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
