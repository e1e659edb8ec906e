import math
from pathlib import Path

import numpy as np
import pytest

from qbmzeno.coefficients import (
    CoefficientSeries,
    coefficient_pair,
    damping_coefficient,
    diffusion_coefficient,
    integrated_damping,
    integrated_diffusion,
    integrated_pair,
    markovian_limits,
    markovian_limits_numerical,
    tabulate_coefficients,
)
from qbmzeno.spectral import BaseSpectralDensity, OhmicLorentzDrude, ReservoirParams

GOLDEN = Path(__file__).parent / "data" / "golden_coefficients_theta100_r05.csv"


class TestPointValues:
    def test_vanish_at_zero(self, params_hot, model_hot):
        assert diffusion_coefficient(params_hot, model_hot, 0.0) == 0.0
        assert damping_coefficient(params_hot, model_hot, 0.0) == 0.0
        assert integrated_diffusion(params_hot, model_hot, 0.0) == 0.0
        assert integrated_damping(params_hot, model_hot, 0.0) == 0.0

    def test_damping_is_temperature_free(self):
        model = OhmicLorentzDrude(0.5)
        cold = ReservoirParams(r=0.5, theta=0.0, alpha=0.1)
        hot = ReservoirParams(r=0.5, theta=100.0, alpha=0.1)
        for t in (0.3, 1.7, 12.0):
            assert damping_coefficient(cold, model, t) == damping_coefficient(hot, model, t)

    def test_initial_jolt_cold_wide_bath(self, params_cold, model_cold):
        # theta=0, r=10: Delta(t) overshoots its Markovian value early.
        delta_m = markovian_limits(params_cold, model_cold).delta_m
        ts = np.linspace(0.01, 5.0 / params_cold.omega_c, 40)
        peak = max(diffusion_coefficient(params_cold, model_cold, float(t)) for t in ts)
        assert peak > delta_m

    def test_markovian_convergence_hot(self, params_hot, model_hot):
        lim = markovian_limits(params_hot, model_hot)
        assert diffusion_coefficient(params_hot, model_hot, 50.0) == pytest.approx(
            lim.delta_m, rel=0.01
        )
        assert damping_coefficient(params_hot, model_hot, 50.0) == pytest.approx(
            lim.gamma_m, rel=0.01
        )

    def test_markovian_convergence_envelope(self, params_hot, model_hot):
        # |Delta(t)/Delta_M - 1| <= 5% everywhere past the bath memory.
        delta_m = markovian_limits(params_hot, model_hot).delta_m
        for t in np.arange(30.0, 61.0, 5.0):
            value = diffusion_coefficient(params_hot, model_hot, float(t))
            assert abs(value / delta_m - 1.0) <= 0.05

    def test_alpha_squared_scaling(self):
        model = OhmicLorentzDrude(0.5)
        base = ReservoirParams(r=0.5, theta=100.0, alpha=0.1)
        double = ReservoirParams(r=0.5, theta=100.0, alpha=0.2)
        for t in (0.5, 3.0):
            d1 = diffusion_coefficient(base, model, t)
            d2 = diffusion_coefficient(double, model, t)
            assert abs(d2 - 4.0 * d1) <= 1e-12 * abs(d2)
            g1 = damping_coefficient(base, model, t)
            g2 = damping_coefficient(double, model, t)
            assert abs(g2 - 4.0 * g1) <= 1e-12 * abs(g2)


class TestMarkovianLimits:
    def test_closed_form_gamma(self, params_hot, model_hot):
        # (pi/2) * 0.01 * J(1) with J(1) = 0.2/pi: exactly 0.001.
        lim = markovian_limits(params_hot, model_hot)
        assert lim.gamma_m == pytest.approx(0.001, rel=1e-12)

    def test_zero_temperature_equality(self):
        params = ReservoirParams(r=0.5, theta=0.0, alpha=0.1)
        lim = markovian_limits(params, params.spectral_model())
        assert lim.delta_m == lim.gamma_m

    def test_hot_diffusion_value(self, params_hot, model_hot):
        lim = markovian_limits(params_hot, model_hot)
        assert lim.delta_m == pytest.approx(0.001 / math.tanh(1.0 / 200.0), rel=1e-12)
        assert lim.delta_m == pytest.approx(0.2000017, abs=1e-6)

    def test_ordering(self):
        for theta in (0.0, 1.0, 100.0):
            params = ReservoirParams(r=2.0, theta=theta, alpha=0.1)
            lim = markovian_limits(params, params.spectral_model())
            assert lim.gamma_m >= 0.0
            assert lim.delta_m >= lim.gamma_m

    def test_numerical_cross_check(self, params_hot, model_hot):
        closed = markovian_limits(params_hot, model_hot)
        numeric = markovian_limits_numerical(params_hot, model_hot, t=200.0)
        assert numeric.delta_m == pytest.approx(closed.delta_m, rel=0.01)
        assert numeric.gamma_m == pytest.approx(closed.gamma_m, rel=0.01)


class TestIntegratedCoefficients:
    def test_gauss_legendre_cross_check(self, params_hot, model_hot):
        # Independent route: quadrature of the tabulated-coefficient
        # integrand instead of the closed sinc^2 kernel.
        tau = 1.0
        x, w = np.polynomial.legendre.leggauss(48)
        ts = 0.5 * tau * (x + 1.0)
        ws = 0.5 * tau * w
        ref_d = sum(
            wi * diffusion_coefficient(params_hot, model_hot, float(ti))
            for ti, wi in zip(ts, ws)
        )
        ref_g = sum(
            wi * damping_coefficient(params_hot, model_hot, float(ti))
            for ti, wi in zip(ts, ws)
        )
        assert integrated_diffusion(params_hot, model_hot, tau) == pytest.approx(ref_d, rel=1e-8)
        assert integrated_damping(params_hot, model_hot, tau) == pytest.approx(ref_g, rel=1e-8)

    def test_markovian_asymptote(self, params_hot, model_hot):
        # IDelta(tau) -> tau * Delta_M with a ~1.2/tau approach; 2.4% at tau=50.
        lim = markovian_limits(params_hot, model_hot)
        tau = 50.0
        assert integrated_diffusion(params_hot, model_hot, tau) == pytest.approx(
            tau * lim.delta_m, rel=0.03
        )
        assert integrated_damping(params_hot, model_hot, tau) == pytest.approx(
            tau * lim.gamma_m, rel=0.03
        )

    def test_escape_positivity_zero_temperature(self):
        # IDelta >= Igamma at theta = 0 (total escape probability >= 0).
        params = ReservoirParams(r=0.5, theta=0.0, alpha=0.1)
        model = params.spectral_model()
        for tau in np.geomspace(0.01, 20.0, 8):
            i_d = integrated_diffusion(params, model, float(tau))
            i_g = integrated_damping(params, model, float(tau))
            assert i_d >= i_g


class ExponentialCutoff(BaseSpectralDensity):
    """User bath J = omega exp(-omega/omega_cut) / pi (density only)."""

    tail_exponent = 2.0

    def __init__(self, omega_cut):
        self.omega_cut = omega_cut

    def density(self, omega):
        omega = np.asarray(omega, dtype=float)
        return omega * np.exp(-omega / self.omega_cut) / np.pi


class TestPairPasses:
    def test_growing_density_refused(self):
        # Both quadrature routes take the model through its consistency
        # check, which refuses a J declared to grow.
        from qbmzeno.zeno import effective_decay_rate_fd

        class Growing(ExponentialCutoff):
            tail_exponent = -1.0

        params = ReservoirParams(r=1.0, theta=0.0, alpha=0.1)
        with pytest.raises(ValueError, match="does not grow"):
            coefficient_pair(params, Growing(1.0), 1.0)
        with pytest.raises(ValueError, match="does not grow"):
            effective_decay_rate_fd(params, Growing(1.0), 0, 1.0)

    @pytest.mark.parametrize("r, theta", [(0.5, 100.0), (0.5, 0.0), (10.0, 1.0), (0.1, 0.2)])
    def test_pairs_match_single_coefficients(self, r, theta):
        # Each pair component refines its own panels, so it reproduces the
        # single-coefficient pass bit for bit.
        params = ReservoirParams(r=r, theta=theta, alpha=0.1)
        model = params.spectral_model()
        for t in (1e-3, 0.37, 5.0, 300.0):
            assert coefficient_pair(params, model, t) == (
                diffusion_coefficient(params, model, t),
                damping_coefficient(params, model, t),
            )
            assert integrated_pair(params, model, t) == (
                integrated_diffusion(params, model, t),
                integrated_damping(params, model, t),
            )

    def test_pair_gamma_is_temperature_free(self):
        model = OhmicLorentzDrude(0.5)
        cold = ReservoirParams(r=0.5, theta=0.0, alpha=0.1)
        hot = ReservoirParams(r=0.5, theta=100.0, alpha=0.1)
        for t in (0.3, 12.0):
            assert coefficient_pair(cold, model, t)[1] == coefficient_pair(hot, model, t)[1]
            assert integrated_pair(cold, model, t)[1] == integrated_pair(hot, model, t)[1]

    def test_pairs_vanish_at_zero(self, params_hot, model_hot):
        assert coefficient_pair(params_hot, model_hot, 0.0) == (0.0, 0.0)
        assert integrated_pair(params_hot, model_hot, 0.0) == (0.0, 0.0)
        with pytest.raises(ValueError):
            integrated_pair(params_hot, model_hot, -1.0)

    def test_narrow_user_bath_zeno_limit(self):
        # omega_c * tau = 1e-5: the bath is a sliver of the first head panel
        # in oscillation coordinates.  IDelta -> alpha^2 tau^2 omega_c^2 / (2 pi).
        params = ReservoirParams(r=1.0, theta=0.0, alpha=0.1)
        omega_c, tau = 1.0, 1e-5
        model = ExponentialCutoff(omega_c)
        expected = params.alpha**2 * tau**2 * omega_c**2 / (2.0 * np.pi)
        i_delta, _ = integrated_pair(params, model, tau)
        assert i_delta == pytest.approx(expected, rel=1e-6)
        assert integrated_diffusion(params, model, tau) == i_delta


class TestTabulation:
    def test_first_row_zeros(self, params_hot, model_hot):
        series = tabulate_coefficients(params_hot, model_hot, 2.0, 2)
        assert series.times[0] == 0.0
        assert series.delta[0] == series.gamma[0] == 0.0
        assert series.int_delta[0] == series.int_gamma[0] == 0.0

    def test_running_integral_monotone_when_delta_positive(self, params_hot, model_hot):
        series = tabulate_coefficients(params_hot, model_hot, 8.0, 33)
        if np.all(series.delta >= 0.0):
            assert np.all(np.diff(series.int_delta) >= 0.0)

    def test_csv_format(self, params_hot, model_hot, tmp_path):
        series = tabulate_coefficients(params_hot, model_hot, 1.0, 3)
        path = tmp_path / "series.csv"
        series.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,delta,gamma,int_delta,int_gamma"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert all(float(cell) == 0.0 for cell in first)
        # 17 significant digits: mantissa with 16 decimals.
        assert "." in lines[2].split(",")[1]
        mantissa = lines[2].split(",")[1].split("e")[0]
        assert len(mantissa.split(".")[1]) == 16

    def test_invariant_validation(self, params_hot):
        with pytest.raises(ValueError):
            CoefficientSeries(
                times=np.array([0.0, 1.0]),
                delta=np.array([0.1, 0.2]),  # must vanish at t=0
                gamma=np.zeros(2),
                int_delta=np.zeros(2),
                int_gamma=np.zeros(2),
                params=params_hot,
            )
        with pytest.raises(ValueError):
            CoefficientSeries(
                times=np.array([0.5, 1.0]),  # must start at 0
                delta=np.zeros(2),
                gamma=np.zeros(2),
                int_delta=np.zeros(2),
                int_gamma=np.zeros(2),
                params=params_hot,
            )

    def test_rejects_bad_grid(self, params_hot, model_hot):
        with pytest.raises(ValueError):
            tabulate_coefficients(params_hot, model_hot, 0.0, 10)
        with pytest.raises(ValueError):
            tabulate_coefficients(params_hot, model_hot, 1.0, 1)

    def test_parallel_matches_serial(self, params_hot, model_hot):
        serial = tabulate_coefficients(params_hot, model_hot, 1.0, 6, jobs=1)
        parallel = tabulate_coefficients(params_hot, model_hot, 1.0, 6, jobs=2)
        np.testing.assert_array_equal(serial.delta, parallel.delta)
        np.testing.assert_array_equal(serial.int_gamma, parallel.int_gamma)


@pytest.mark.slow
class TestGoldenTable:
    def test_bit_identical_regeneration(self, params_hot, model_hot, tmp_path):
        """Regenerate the reference table and compare byte-for-byte."""
        assert GOLDEN.exists(), "golden table missing; generate with tools/make_golden.py"
        series = tabulate_coefficients(params_hot, model_hot, 30.0, 300)
        fresh = tmp_path / "regenerated.csv"
        series.to_csv(fresh)
        # Row by row, so a mismatch reports its first row, not a diff of the file.
        got, want = fresh.read_text().split("\n"), GOLDEN.read_text().split("\n")
        for i, (row, golden) in enumerate(zip(got, want)):
            assert row == golden, f"line {i + 1} differs: {row!r} != {golden!r}"
        assert len(got) == len(want), f"{len(got)} lines, golden has {len(want)}"
