import math
import warnings

import numpy as np
import pytest

from qbmzeno import numerics
from qbmzeno.numerics import (
    InvalidBracketError,
    NonConvergenceError,
    NonFiniteError,
    QuadratureSpec,
    RootBracket,
    bisect,
    integrate_adaptive,
    integrate_semi_infinite,
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


# Left of resonance a narrow feature's whole value is far below the default
# abs_tol (a line of width 0.05 at u = -2000 is worth about 1e-9 under
# sinc^2), so these tests ask for the relative tolerance alone.
LEFT_SPEC = QuadratureSpec(abs_tol=1e-16)
REFERENCE_SPEC = QuadratureSpec(abs_tol=1e-17, rel_tol=1e-12, max_subdivisions=100000)


def _kernel_value(kernel, u):
    k = np.sinc(u / np.pi)
    return k if kernel == "sinc" else k * k


def _quarter_period_reference(envelope, kernel, a, b, breakpoints=None):
    value, _ = integrate_adaptive(
        lambda u: envelope(u) * _kernel_value(kernel, u), a, b, REFERENCE_SPEC,
        max_panel_width=0.25 * np.pi, breakpoints=breakpoints,
    )
    return value


def _bar(ref):
    """The final check's bound: four times the tolerance max(abs_tol, rel_tol |ref|)."""
    return 4.0 * max(LEFT_SPEC.abs_tol, LEFT_SPEC.rel_tol * abs(ref))


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

    @pytest.mark.parametrize("kernel", ["sinc", "sinc2"])
    @pytest.mark.parametrize("width", [0.5, 0.1, 0.05])
    def test_narrow_line_left_of_resonance(self, kernel, width):
        # A Gaussian line anywhere in [-4900, -200], where the head takes
        # pi-wide Filon panels (a user bath with a narrow resonance below
        # omega0 at long times).  Reference: quarter-period panels over
        # the line.
        for center in np.random.default_rng(20240613).uniform(-4900.0, -200.0, 40):
            def envelope(u, center=center):
                return np.exp(-0.5 * ((u - center) / width) ** 2)

            ref = _quarter_period_reference(envelope, kernel, center - 40.0 * width,
                                            center + 40.0 * width)
            value, _ = integrate_semi_infinite(envelope, LEFT_SPEC, lower=-5000.0, kernel=kernel)
            assert abs(value - ref) <= _bar(ref), (center, value, ref)

    @pytest.mark.parametrize("kernel", ["sinc", "sinc2"])
    @pytest.mark.parametrize("lower", [-5000.0, -300.0])
    @pytest.mark.parametrize("width", [0.3, 3e-2, 3e-3, 3e-4])
    def test_sliver_at_a_far_lower_end(self, kernel, lower, width):
        # All weight within a few widths of lower, the first Filon panel's
        # left edge (a narrow bath at omega -> 0 seen at long times).
        def envelope(u):
            return np.exp(-(u - lower) / width) / width

        end = lower + 60.0 * width
        ref = _quarter_period_reference(envelope, kernel, lower, end,
                                        breakpoints=lower + (end - lower) * 2.0 ** -np.arange(1, 40))
        value, _ = integrate_semi_infinite(envelope, LEFT_SPEC, lower=lower, kernel=kernel)
        assert abs(value - ref) <= _bar(ref), (value, ref)

    @pytest.mark.parametrize("kernel", ["sinc", "sinc2"])
    def test_step_left_of_resonance(self, kernel):
        # The envelope switches off at u = -1234.5, inside a Filon panel.
        from scipy.special import sici

        def antiderivative(u):  # of sinc, resp. sinc^2 = sin^2 u / u^2
            return sici(u)[0] if kernel == "sinc" else sici(2.0 * u)[0] - np.sin(u) ** 2 / u

        ref = antiderivative(-1234.5) - antiderivative(-5000.0)
        value, _ = integrate_semi_infinite(
            lambda u: np.where(u < -1234.5, 1.0, 0.0), LEFT_SPEC, lower=-5000.0, kernel=kernel
        )
        assert abs(value - ref) <= _bar(ref), (value, ref)

    def test_non_convergence(self):
        # Integrable but endpoint-singular: the subdivision budget runs out.
        spec = QuadratureSpec(max_subdivisions=8)
        with pytest.raises(NonConvergenceError):
            integrate_adaptive(lambda x: 1.0 / np.sqrt(x), 1e-300, 1.0, spec)

    def test_tail_above_tolerance_fails_the_final_check(self):
        # The kinks of |sin(u/1.5)| beat with sin u, so the extrapolated
        # half periods of the tail miss the tolerance: the final check,
        # the tail's one guard, refuses the result.
        with pytest.raises(NonConvergenceError, match=(
            r"^semi-infinite integral error estimate 3\.514e-08 above tolerance 4\.576e-09$"
        )):
            integrate_semi_infinite(lambda u: np.abs(np.sin(u / 1.5)) / (1.0 + u), kernel="sinc")

    @pytest.mark.parametrize("failing", [0, 1])
    def test_tail_above_tolerance_names_its_component(self, failing):
        def pair(u):
            out = np.empty((2, u.size))
            out[failing] = np.abs(np.sin(u / 1.5)) / (1.0 + u)
            out[1 - failing] = lorentzian(u)
            return out

        with pytest.raises(NonConvergenceError, match=(
            r"^semi-infinite integral error estimate 3\.514e-08 above tolerance 4\.576e-09 "
            f"in component {failing}$"
        )):
            integrate_semi_infinite(pair, kernel="sinc")

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


def _matches_scalar_run(value, err, alone, spec):
    """A joint component meets its own tolerance and is within max(err, tol) of its scalar run."""
    tol = max(spec.abs_tol, spec.rel_tol * abs(value))
    return err <= tol and abs(value - alone) <= max(err, tol)


class TestVectorIntegrand:
    def test_oscillatory_matches_scalar_calls(self):
        # The components share one partition and one cut (under sinc^2 the
        # samples of cos^2 u alternate between 1 and 0, so the structure
        # probe moves the cut for both), so each may end on finer panels
        # than it would alone.
        spec = QuadratureSpec()
        for kernel in ("sinc", "sinc2"):
            value, err = integrate_semi_infinite(two_component, spec, kernel=kernel)
            assert value.shape == err.shape == (2,)
            for c in range(2):
                alone, _ = integrate_semi_infinite(
                    lambda u, c=c: two_component(u)[c], spec, kernel=kernel
                )
                assert _matches_scalar_run(value[c], err[c], alone, spec), (kernel, c)
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


def _lagrange_moments(n, kappa):
    """mpmath: Int_{-1}^{1} l_j(x) {1, cos kappa x, sin kappa x} dx, l_j the Lagrange basis of cos(j pi/n).

    The monomial moments come from their Taylor series in kappa; the
    basis from the inverse Vandermonde matrix, at 40 digits.
    """
    import mpmath as mp

    with mp.workdps(40):
        k = mp.mpf(kappa)
        one, cos, sin = ([mp.mpf(0)] * (n + 1) for _ in range(3))
        for m in range(n + 1):
            for q in range(60):
                if m % 2 == 0:
                    cos[m] += (-1) ** q * k ** (2 * q) / mp.factorial(2 * q) * 2 / (m + 2 * q + 1)
                else:
                    sin[m] += (-1) ** q * k ** (2 * q + 1) / mp.factorial(2 * q + 1) * 2 / (m + 2 * q + 2)
            one[m] = mp.mpf(2) / (m + 1) if m % 2 == 0 else mp.mpf(0)
        nodes = [mp.cos(mp.pi * j / n) for j in range(n + 1)]
        inverse = mp.inverse(mp.matrix([[x**m for m in range(n + 1)] for x in nodes]))
        return np.array([
            [float(sum(inverse[m, j] * mu[m] for m in range(n + 1))) for j in range(n + 1)]
            for mu in (one, cos, sin)
        ])


class TestFilonRule:
    @pytest.mark.parametrize("kernel", ["sinc", "sinc2"])
    def test_weights_match_mpmath(self, kernel):
        # At the panel half-width pi/2 and three bisection levels below it.
        omega = numerics._FILON_KERNELS[kernel][1]
        kappa = 0.5 * omega * numerics._FILON_WIDTH
        weights = numerics._filon_weights(kernel)
        for level in range(4):
            want25 = _lagrange_moments(24, kappa * 2.0**-level)
            want13 = _lagrange_moments(12, kappa * 2.0**-level)
            assert np.max(np.abs(weights[level, :, :25] - want25)) <= 1e-14
            assert np.max(np.abs(weights[level, :, 25::2] - want13)) <= 1e-14
            assert not np.any(weights[level, :, 26::2])

    @pytest.mark.parametrize("level", [0, 2])
    def test_degree_24_polynomial_times_cos_2u_is_exact(self, level):
        # A sinc^2 panel integrates g(u) (1 - cos 2u) for g of degree 24
        # to rounding.  g is given at the nodes exactly (g(m + h x) = p(x)),
        # so only the rule is tested.
        import mpmath as mp

        lo = -1000.3
        hi = lo + numerics._FILON_WIDTH * 2.0**-level
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        coef = np.random.default_rng(7).standard_normal(25)
        y = np.polynomial.chebyshev.chebval(numerics._FCC_NODES, coef)[None, None, :]
        (value,), _ = numerics._fcc_rule(y, np.array([lo]), np.array([hi]), "sinc2")

        def p(x):  # Clenshaw's recurrence for sum_j coef_j T_j(x)
            b1 = b2 = mp.mpf(0)
            for c in coef[:0:-1]:
                b1, b2 = mp.mpf(c) + 2 * x * b1 - b2, b1
            return mp.mpf(coef[0]) + x * b1 - b2

        with mp.workdps(30):
            want = half * mp.quad(lambda x: p(x) * (1 - mp.cos(2 * mid + 2 * half * x)), [-1, 0, 1])
            scale = half * mp.quad(lambda x: abs(p(x)), [-1, 0, 1])
        assert abs(value[0] - float(want)) <= 1e-14 * float(scale)

    @pytest.mark.parametrize("kernel", ["sinc", "sinc2"])
    def test_panels_of_two_levels_in_one_call_match_mpmath(self, kernel):
        # One moment product per level: panels of levels 0 and 1, mixed in
        # order, for two components, against the mpmath weights.
        _, omega, c0, cc, cs = numerics._FILON_KERNELS[kernel]
        kappa = 0.5 * omega * numerics._FILON_WIDTH
        width = numerics._FILON_WIDTH * np.array([1.0, 0.5, 0.5, 1.0, 0.5])
        lo = -3000.7 + np.concatenate([[0.0], np.cumsum(width[:-1])])
        hi = lo + width
        g = np.random.default_rng(11).standard_normal((2, lo.size, 25))
        value, err = numerics._fcc_rule(g, lo, hi, kernel)
        assert value.shape == err.shape == (2, lo.size)
        want = {
            level: (_lagrange_moments(24, kappa * 2.0**-level), _lagrange_moments(12, kappa * 2.0**-level))
            for level in (0, 1)
        }
        for p in range(lo.size):
            mid, half = 0.5 * (lo[p] + hi[p]), 0.5 * (hi[p] - lo[p])
            coef = half * np.array([
                c0,
                cc * np.cos(omega * mid) + cs * np.sin(omega * mid),
                cs * np.cos(omega * mid) - cc * np.sin(omega * mid),
            ])
            w25, w13 = want[0 if width[p] == numerics._FILON_WIDTH else 1]
            for c in range(2):
                fcc25 = coef @ (w25 @ g[c, p])
                fcc13 = coef @ (w13 @ g[c, p, ::2])
                scale = half * np.sum(np.abs(g[c, p]))
                assert abs(value[c, p] - fcc25) <= 1e-14 * scale
                assert abs(err[c, p] - abs(fcc25 - fcc13)) <= 1e-14 * scale

    @pytest.mark.parametrize("kernel", ["sinc", "sinc2"])
    def test_components_refining_differently_match_their_scalar_runs(self, kernel):
        # One smooth component and one with a narrow line on the Filon
        # stretch: the second bisects panels the first never needs alone.
        # Jointly they refine one partition, each node evaluated once.
        def pair(u):
            out = np.empty((2, u.size))
            out[0] = np.exp((u + 5000.0) / -3000.0)
            out[1] = out[0] + np.exp(-0.5 * ((u + 2000.3) / 0.05) ** 2)
            return out

        def counted(f, seen):
            def integrand(u):
                seen[0] += u.size
                return f(u)

            return integrand

        joint = [0]
        value, err = integrate_semi_infinite(counted(pair, joint), LEFT_SPEC, lower=-5000.0, kernel=kernel)
        nodes = []
        for c in range(2):
            seen = [0]
            alone, _ = integrate_semi_infinite(
                counted(lambda u, c=c: pair(u)[c], seen), LEFT_SPEC, lower=-5000.0, kernel=kernel
            )
            assert _matches_scalar_run(value[c], err[c], alone, LEFT_SPEC), c
            nodes.append(seen[0])
        assert nodes[1] > nodes[0]
        assert joint[0] <= sum(nodes)


def _wynn_table(sums):
    """_wynn_estimates built column by column for every input, with no shortcut."""
    tips = sums[:, -4:].copy()
    prev, cur = np.zeros((sums.shape[0], sums.shape[1] + 1)), sums
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for column in range(1, sums.shape[1]):
            prev, cur = cur, prev[:, 1:-1] + 1.0 / (cur[:, 1:] - cur[:, :-1])
            if column % 2 == 0:
                last = cur[:, -4:]
                tips[:, 4 - last.shape[1]:] = np.where(np.isfinite(last), last, tips[:, 4 - last.shape[1]:])
    return tips


class TestTailShortcuts:
    """Work the tail skips where its result is fixed gives the same result."""

    @pytest.mark.parametrize("rows", [
        [np.zeros(16)],
        [np.full(16, -2.5e-7)],
        [np.zeros(32), np.full(32, 3.0)],
        [np.zeros(16), np.cumsum((-0.5) ** np.arange(16))],
        [np.cumsum(1.0 / (1.0 + np.arange(16)) ** 2), np.cumsum((-0.5) ** np.arange(16))],
    ], ids=["zeros", "constant", "two-constant-rows", "constant-and-alternating", "converging"])
    def test_wynn_estimates_equal_the_full_table(self, rows):
        sums = np.array(rows)
        got = numerics._wynn_estimates(sums)
        want = _wynn_table(sums)
        assert np.array_equal(got, want)
        if np.all(sums == sums[:, :1]):
            assert np.array_equal(got, sums[:, -4:])

    @pytest.mark.parametrize("kernel", ["sinc", "sinc2"])
    def test_structure_probe_below_tolerance_returns_the_cut(self, kernel):
        # A narrow line past the cut that no sample can make worth its
        # tolerance moves nothing; the samples are still evaluated, once.
        period, phase, _, part, _ = numerics._KERNELS[kernel]
        cut = phase + 96.0 * period  # a zero of part, so the samples sit on its crests
        line = cut + 200.3
        seen = []

        def envelope(u):
            seen.append(u.size)
            return np.stack([1e-30 * np.exp(-0.5 * ((u - line) / 0.5) ** 2), np.zeros_like(u)])

        end = numerics._structure_end(numerics._Evaluator(envelope), part, cut, 0.5 * period,
                                      np.array([1e-12, 1e-12]))
        assert end == cut
        assert seen == [numerics._PROBE_HALF_PERIODS]
        # The same line, worth its tolerance, moves the cut past it.
        assert numerics._structure_end(numerics._Evaluator(lambda u: 1e30 * envelope(u)), part, cut,
                                       0.5 * period, np.array([1e-12, 1e-12])) > line


class TestAdaptive:
    def test_polynomial_exact(self):
        value, _ = integrate_adaptive(lambda x: x**2, 0.0, 1.0, QuadratureSpec())
        assert abs(value - 1.0 / 3.0) < 1e-13

    def test_empty_interval(self):
        assert integrate_adaptive(np.exp, 2.0, 2.0, QuadratureSpec()) == (0.0, 0.0)

    def test_noise_floor_stops_refinement(self):
        # Asked for 1e-18 of the value, below what double precision can
        # hold: |K15 - G7| sits at its rounding floor 50 eps sum|K15| above
        # that, so refinement stops there and returns the floor as the
        # error, instead of running out the subdivision budget.
        value, err = integrate_adaptive(
            lambda x: np.exp(-x) * np.cos(3.0 * x), 0.0, 5.0,
            QuadratureSpec(abs_tol=1e-300, rel_tol=1e-18),
        )
        want = ((np.exp(complex(-5.0, 15.0)) - 1.0) / complex(-1.0, 3.0)).real
        assert abs(value - want) <= 1e-14 * abs(want)
        # sum|K15| lies between |value| and Int |f| <= Int_0^5 e^-x.
        floor = 50.0 * np.finfo(float).eps
        assert floor * abs(want) <= err <= floor * (1.0 - np.exp(-5.0))

    def test_panel_presplit(self):
        # 25 oscillations: quarter-period panels keep the estimate honest.
        value, _ = integrate_adaptive(
            lambda x: np.sin(x), 0.0, 50.0 * np.pi, QuadratureSpec(),
            max_panel_width=np.pi / 2.0,
        )
        assert abs(value) < 1e-9


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

    def test_scan_zero_inside_the_grid_ends_one_bracket(self):
        samples = {0.0: -1.0, 1.0: 0.0, 2.0: 1.0, 3.0: 2.0}
        assert scan_for_bracket(samples.__getitem__, list(samples)) == [
            RootBracket(0.0, 1.0, -1.0, 0.0)
        ]

    def test_scan_zero_at_the_first_point_starts_one_bracket(self):
        samples = {0.0: 0.0, 1.0: 1.0, 2.0: 2.0}
        assert scan_for_bracket(samples.__getitem__, list(samples)) == [
            RootBracket(0.0, 1.0, 0.0, 1.0)
        ]

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


def _refine(f, lo, hi, tol):
    """(root, the points bisect evaluated) on [lo, hi]; the ends are not counted."""
    points = []

    def counted(x):
        points.append(x)
        if len(points) > 10_000:
            raise RuntimeError("root finder does not terminate")
        return f(x)

    return bisect(counted, RootBracket(lo, hi, f(lo), f(hi)), tol), points


def _bisections(lo, hi, tol):
    return math.ceil(math.log2((hi - lo) / tol))


def _step(x):
    return -1.0 if x < 1.3 else 1.0


def _ninth_power(x):
    return (x - 1.3) ** 9


SMOOTH = [
    (math.cos, 1.0, 2.0),
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.exp(x) - 1e3, 0.0, 20.0),
    (lambda x: (x - 0.9) * (x - 2.1) * (x - 3.3), 1.8, 2.9),
]
# Brent's hard cases, with where f changes sign: a jump, a flat ninth-
# power root and tan across its pole.
ROUGH = [
    (_step, 0.0, 2.0, 1.3),
    (_ninth_power, 0.0, 2.0, 1.3),
    (math.tan, 1.0, 2.0, math.pi / 2.0),
]
BRACKETS = SMOOTH + [case[:3] for case in ROUGH]


class TestBrentDekker:
    def test_smooth_root_in_a_handful_of_calls(self):
        root, points = _refine(math.cos, 1.0, 2.0, 1e-12)
        assert len(points) <= 8
        assert abs(root - math.pi / 2.0) <= 1e-12

    @pytest.mark.parametrize("f, lo, hi, where", ROUGH)
    def test_worst_cases_within_three_bisections(self, f, lo, hi, where):
        tol = 1e-12
        root, points = _refine(f, lo, hi, tol)
        assert len(points) <= 3 * _bisections(lo, hi, tol) + 3
        assert abs(root - where) <= tol

    @pytest.mark.parametrize("f, lo, hi", BRACKETS)
    def test_same_steps_as_scipy_brentq(self, f, lo, hi):
        # scipy's brentq is the reference: the same number of calls and a
        # root within tol (its floor 4 eps|x| differs a little from ours).
        from scipy.optimize import brentq

        tol = 1e-12
        root, points = _refine(f, lo, hi, tol)
        want, info = brentq(f, lo, hi, xtol=tol, maxiter=1000, full_output=True)
        assert len(points) == info.function_calls - 2  # brentq also evaluates both ends
        assert abs(root - want) <= tol

    def test_tolerance_below_double_spacing_ends_at_resolution(self):
        root, points = _refine(math.cos, 1.0, 2.0, 1e-300)
        assert len(points) <= 8
        assert abs(root - math.pi / 2.0) <= 4.0 * math.ulp(math.pi / 2.0)
        # A root at 0: f underflows on the way, and the interpolation with it.
        root, _ = _refine(lambda x: x**3, -1.0, 2.0, 1e-300)
        assert abs(root) < 1e-100

    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    @pytest.mark.parametrize("f, lo, hi", SMOOTH)
    def test_sign_change_within_tol_of_the_root(self, f, lo, hi, tol):
        root, _ = _refine(f, lo, hi, tol)
        assert lo <= root <= hi
        here, left, right = f(root), f(max(lo, root - tol)), f(min(hi, root + tol))
        assert here == 0.0 or (here > 0.0) != (left > 0.0) or (here > 0.0) != (right > 0.0)

    def test_deterministic(self):
        for f, lo, hi in BRACKETS:
            assert _refine(f, lo, hi, 1e-12) == _refine(f, lo, hi, 1e-12)

    def test_zero_endpoint_is_returned_without_a_call(self):
        def never(x):
            raise AssertionError("no evaluation expected")

        assert bisect(never, RootBracket(1.0, 2.0, 0.0, 3.0), tol=1e-12) == 1.0
        assert bisect(never, RootBracket(1.0, 2.0, -3.0, 0.0), tol=1e-12) == 2.0
