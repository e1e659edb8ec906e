import math

import numpy as np
import pytest

from qbmzeno.errors import IndeterminateAtZeroError, NegativeFrequencyError
from qbmzeno.spectral import (
    BaseSpectralDensity,
    OhmicLorentzDrude,
    ReservoirParams,
    check_model_consistency,
    spectral_density,
    thermal_factor,
    weighted_spectral_density,
)


class TestSpectralDensity:
    def test_zero_frequency(self):
        assert spectral_density(OhmicLorentzDrude(1.0), 0.0) == 0.0

    def test_at_resonance(self):
        # omega = omega_c = 1: J = (1/pi) * 1/2
        assert spectral_density(OhmicLorentzDrude(1.0), 1.0) == pytest.approx(
            1.0 / (2.0 * np.pi), rel=1e-12
        )

    def test_small_cutoff(self):
        # omega_c = 0.5, omega = 1: (1/pi) * 0.25/1.25 = 0.2/pi
        assert spectral_density(OhmicLorentzDrude(0.5), 1.0) == pytest.approx(
            0.2 / np.pi, rel=1e-12
        )

    def test_negative_frequency(self):
        with pytest.raises(NegativeFrequencyError):
            spectral_density(OhmicLorentzDrude(1.0), -0.1)

    def test_vectorized(self):
        out = spectral_density(OhmicLorentzDrude(2.0), np.array([0.0, 1.0, 5.0]))
        assert out.shape == (3,)
        assert np.all(out >= 0.0)

    def test_invalid_cutoff(self):
        with pytest.raises(ValueError):
            OhmicLorentzDrude(0.0)


class TestThermalFactor:
    def test_unit_argument(self):
        # omega = 2 theta omega0 makes the argument exactly 1.
        assert thermal_factor(2.0, theta=1.0) == pytest.approx(1.0 / math.tanh(1.0), rel=1e-12)

    def test_zero_temperature(self):
        assert thermal_factor(0.37, theta=0.0) == 1.0

    def test_high_temperature(self):
        # coth(1/200) = 200 + 1/600 + O(1e-8)
        assert thermal_factor(1.0, theta=100.0) == pytest.approx(200.0 + 1.0 / 600.0, abs=1e-6)

    def test_pole_at_zero(self):
        with pytest.raises(IndeterminateAtZeroError):
            thermal_factor(0.0, theta=1.0)

    def test_at_least_one(self):
        omegas = np.geomspace(1e-3, 1e3, 20)
        for theta in (0.0, 0.01, 1.0, 100.0):
            vals = np.atleast_1d(thermal_factor(omegas, theta=theta))
            if theta == 0.0:
                assert np.all(vals == 1.0)
            else:
                # coth(x) > 1 for finite x; it rounds to exactly 1.0 once
                # x is large enough, so strictness is only checkable where
                # the excess 2 exp(-x) is representable.
                assert np.all(vals >= 1.0)
                assert thermal_factor(theta, theta=theta) > 1.0


class TestWeightedSpectralDensity:
    def test_zero_frequency_limit(self):
        # OhmicLD limit: 2 theta omega0 / pi.
        params = ReservoirParams(r=1.0, theta=1.0, alpha=0.1)
        model = params.spectral_model()
        assert weighted_spectral_density(model, params, 0.0) == pytest.approx(
            2.0 / np.pi, rel=1e-12
        )

    def test_continuous_at_zero(self):
        params = ReservoirParams(r=1.0, theta=1.0, alpha=0.1)
        model = params.spectral_model()
        at_zero = weighted_spectral_density(model, params, 0.0)
        near_zero = weighted_spectral_density(model, params, 1e-6)
        assert abs(near_zero - at_zero) / at_zero < 1e-4

    def test_zero_temperature_is_plain_density(self):
        params = ReservoirParams(r=1.0, theta=0.0, alpha=0.1)
        model = params.spectral_model()
        assert weighted_spectral_density(model, params, 1.0) == pytest.approx(
            1.0 / (2.0 * np.pi), rel=1e-12
        )

    def test_high_temperature_product(self):
        params = ReservoirParams(r=1.0, theta=100.0, alpha=0.1)
        model = params.spectral_model()
        expected = (1.0 / (2.0 * np.pi)) / math.tanh(1.0 / 200.0)
        assert weighted_spectral_density(model, params, 1.0) == pytest.approx(
            expected, rel=1e-12
        )

    def test_monotone_in_temperature(self):
        model = OhmicLorentzDrude(0.5)
        thetas = [0.0, 0.1, 1.0, 10.0, 100.0]
        for omega in (0.2, 1.0, 4.0):
            vals = [
                weighted_spectral_density(
                    model, ReservoirParams(r=0.5, theta=th, alpha=0.1), omega
                )
                for th in thetas
            ]
            assert np.all(np.diff(vals) >= 0.0)


class TestReservoirParams:
    def test_omega_c(self):
        assert ReservoirParams(r=0.5, theta=1.0, alpha=0.1).omega_c == 0.5
        assert ReservoirParams(r=2.0, theta=1.0, alpha=0.1, omega0=3.0).omega_c == 6.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"r": 0.0, "theta": 1.0, "alpha": 0.1},
            {"r": 1.0, "theta": -1.0, "alpha": 0.1},
            {"r": 1.0, "theta": 1.0, "alpha": 0.0},
            {"r": 1.0, "theta": 1.0, "alpha": 0.1, "omega0": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ReservoirParams(**kwargs)

    def test_model_consistency(self):
        params = ReservoirParams(r=0.5, theta=1.0, alpha=0.1)
        check_model_consistency(params, params.spectral_model())
        with pytest.raises(ValueError):
            check_model_consistency(params, OhmicLorentzDrude(0.7))

        # A negative tail_exponent declares a growing J, whose kernel
        # integrals the quadrature cannot complete.
        class Growing(ExponentialOhmic):
            tail_exponent = -1.0

        check_model_consistency(params, ExponentialOhmic(2.0))
        with pytest.raises(ValueError, match="does not grow"):
            check_model_consistency(params, Growing(2.0))


class ExponentialOhmic(BaseSpectralDensity):
    """User-model extension point: J = omega * exp(-omega/omega_cut)."""

    name = "exponential-ohmic"
    tail_exponent = 2.0

    def __init__(self, omega_cut):
        self.omega_cut = omega_cut

    def density(self, omega):
        omega = np.asarray(omega, dtype=float)
        return omega * np.exp(-omega / self.omega_cut)


class TestExtensionPoint:
    def test_density_over_omega_fallback(self):
        model = ExponentialOhmic(2.0)
        assert model.density_over_omega(1.0) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_weighted_with_user_model(self):
        params = ReservoirParams(r=2.0, theta=1.0, alpha=0.1)
        model = ExponentialOhmic(2.0)
        value = weighted_spectral_density(model, params, 1.0)
        expected = math.exp(-0.5) / math.tanh(0.5)
        assert value == pytest.approx(expected, rel=1e-10)
