import warnings

import numpy as np
import pytest

from qbmzeno import coefficients, zeno
from qbmzeno.errors import DegenerateDenominatorError
from qbmzeno.numerics import bisect, brackets_from_samples
from qbmzeno.spectral import OhmicLorentzDrude, ReservoirParams
from qbmzeno.zeno import (
    RATIO_TOL,
    Regime,
    ZenoScan,
    classify_regime,
    effective_decay_rate,
    effective_decay_rate_fd,
    find_crossover_time,
    high_t_ratio,
    markovian_decay_rate,
    zeno_ratio,
    zeno_scan,
)

pytestmark = pytest.mark.filterwarnings("ignore:escape probability")


class TestMarkovianDecayRate:
    def test_degenerate_at_zero_temperature_ground_state(self):
        params = ReservoirParams(r=0.5, theta=0.0, alpha=0.1)
        assert markovian_decay_rate(params, params.spectral_model(), 0) == 0.0

    def test_hot_ground_state(self, params_hot, model_hot):
        assert markovian_decay_rate(params_hot, model_hot, 0) == pytest.approx(0.1990, abs=2e-4)

    def test_fock_scaling(self, params_hot, model_hot):
        r5 = markovian_decay_rate(params_hot, model_hot, 5)
        r0 = markovian_decay_rate(params_hot, model_hot, 0)
        assert r5 / r0 == pytest.approx(11.0, rel=5e-3)


class TestOverflow:
    # Values that would not fit in a double raise OverflowError, warnings
    # as errors or not; none comes back as inf or nan.
    @pytest.mark.parametrize("strict", [True, False], ids=["W-error", "W-default"])
    def test_markovian_limits_overflow(self, strict):
        from qbmzeno.coefficients import markovian_limits

        params = ReservoirParams(r=0.5, theta=10.0, alpha=1e154)
        model = params.spectral_model()
        with warnings.catch_warnings():
            warnings.simplefilter("error" if strict else "default")
            with pytest.raises(OverflowError, match="Markovian limits"):
                markovian_limits(params, model)
            # Once reported as degenerate: the cancellation test passes for inf.
            with pytest.raises(OverflowError):
                zeno_scan(params, model, 0, np.geomspace(1e-3, 1e2, 8))
            with pytest.raises(OverflowError):
                find_crossover_time(params, model, 0, (1e-3, 1e2), 24)

    @pytest.mark.parametrize("strict", [True, False], ids=["W-error", "W-default"])
    def test_rates_and_coefficients_overflow(self, strict):
        from qbmzeno.coefficients import integrated_pair, tabulate_coefficients

        params = ReservoirParams(r=0.5, theta=10.0, alpha=1e153)
        model = params.spectral_model()
        with warnings.catch_warnings():
            warnings.simplefilter("error" if strict else "default")
            with pytest.raises(OverflowError, match="coefficients at some tau"):
                integrated_pair(params, model, 100.0)
            with pytest.raises(OverflowError):
                effective_decay_rate(params, model, 0, 100.0)
            with pytest.raises(OverflowError, match="coefficients at some t"):
                tabulate_coefficients(params, model, 100.0, 8)
            big = ReservoirParams(r=0.5, theta=10.0, alpha=1.3e154)
            with pytest.raises(OverflowError, match="rate at tau"):
                effective_decay_rate_fd(big, big.spectral_model(), 0, 8.0)
            # (2n+1) Delta_M itself overflows, though Delta_M fits.
            with pytest.raises(OverflowError, match="Markovian rate"):
                markovian_decay_rate(params, model, 10**160)
            # (2n+1) IDelta(tau) overflows, though (2n+1) Delta_M fits.
            cold = ReservoirParams(r=1.0, theta=0.0, alpha=1e145)
            with pytest.raises(OverflowError, match="rates of n"):
                zeno_scan(cold, cold.spectral_model(), 5 * 10**9, [1e9, 1e10])

    def test_largest_fitting_inputs_are_finite(self):
        params = ReservoirParams(r=0.5, theta=10.0, alpha=1e152)
        model = params.spectral_model()
        scan = zeno_scan(params, model, 0, np.geomspace(1e-3, 1e2, 8))
        assert np.isfinite(scan.rate_z).all() and not scan.degenerate


class TestEffectiveDecayRate:
    def test_zeno_limit(self, params_hot, model_hot):
        rate = effective_decay_rate(params_hot, model_hot, 0, 1e-3)
        markov = markovian_decay_rate(params_hot, model_hot, 0)
        assert rate < 1e-2 * markov

    def test_markov_limit(self, params_hot, model_hot):
        rate = effective_decay_rate(params_hot, model_hot, 0, 50.0)
        assert rate == pytest.approx(0.1990, rel=0.05)

    def test_fock_scaling_high_temperature(self, params_hot, model_hot):
        r10 = effective_decay_rate(params_hot, model_hot, 10, 50.0)
        r0 = effective_decay_rate(params_hot, model_hot, 0, 50.0)
        assert r10 / r0 == pytest.approx(21.0, rel=0.01)

    def test_breakdown_escape_warns(self, params_hot, model_hot):
        with pytest.warns(UserWarning, match="formal"):
            effective_decay_rate(params_hot, model_hot, 0, 50.0)

    def test_marginal_escape_warns(self, params_hot, model_hot):
        with pytest.warns(UserWarning, match="escape probability"):
            effective_decay_rate(params_hot, model_hot, 0, 1.0)

    def test_validation(self, params_hot, model_hot):
        with pytest.raises(ValueError):
            effective_decay_rate(params_hot, model_hot, 0, 0.0)
        with pytest.raises(ValueError):
            effective_decay_rate(params_hot, model_hot, -1, 1.0)


class TestFrequencyDomainRoute:
    @pytest.mark.parametrize("theta,r,n", [(0.0, 0.5, 0), (1.0, 1.0, 1), (100.0, 0.5, 0),
                                           (100.0, 10.0, 50), (0.0, 10.0, 50)])
    def test_dual_route_agreement(self, theta, r, n):
        params = ReservoirParams(r=r, theta=theta, alpha=0.1)
        model = params.spectral_model()
        for tau in (0.01, 0.7, 23.0):
            a = effective_decay_rate(params, model, n, tau)
            b = effective_decay_rate_fd(params, model, n, tau)
            floor = params.alpha**2 * params.omega0 * 1e-6
            assert abs(a - b) <= 1e-6 * max(abs(a), floor)

    def test_zeno_limit(self, params_hot, model_hot):
        markov = markovian_decay_rate(params_hot, model_hot, 0)
        assert effective_decay_rate_fd(params_hot, model_hot, 0, 1e-3) < 1e-2 * markov

    def test_positive_at_zero_temperature_ground_state(self):
        # Only the counter-rotating sinc^2 term survives; rate stays > 0.
        params = ReservoirParams(r=0.5, theta=0.0, alpha=0.1)
        assert effective_decay_rate_fd(params, params.spectral_model(), 0, 2.0) > 0.0


class TestZenoRatio:
    def test_markov_limit(self, params_hot, model_hot):
        assert zeno_ratio(params_hot, model_hot, 0, 50.0) == pytest.approx(1.0, rel=0.05)

    def test_degenerate(self):
        params = ReservoirParams(r=0.5, theta=0.0, alpha=0.1)
        with pytest.raises(DegenerateDenominatorError):
            zeno_ratio(params, params.spectral_model(), 0, 1.0)

    def test_alpha_invariance(self):
        lo = ReservoirParams(r=0.5, theta=100.0, alpha=0.05)
        hi = ReservoirParams(r=0.5, theta=100.0, alpha=0.2)
        for tau in (0.1, 1.0, 10.0):
            a = zeno_ratio(lo, lo.spectral_model(), 1, tau)
            b = zeno_ratio(hi, hi.spectral_model(), 1, tau)
            assert abs(a - b) <= 1e-10 * abs(a)

    def test_zeno_limit_small_interval(self):
        for r in (0.1, 0.5, 1.0, 10.0):
            params = ReservoirParams(r=r, theta=100.0, alpha=0.1)
            assert zeno_ratio(params, params.spectral_model(), 0, 1e-3) < 0.1


class TestHighTemperatureRatio:
    def test_markov_limit(self, params_hot, model_hot):
        assert high_t_ratio(params_hot, model_hot, 50.0) == pytest.approx(1.0, rel=0.05)

    def test_markov_limit_slow_convergence(self):
        # r = 0.1 approaches the Markovian limit like ~10/tau; 10% at 200.
        params = ReservoirParams(r=0.1, theta=100.0, alpha=0.1)
        model = params.spectral_model()
        assert zeno_ratio(params, model, 0, 200.0) == pytest.approx(1.0, rel=0.10)

    def test_zeno_limit(self, params_hot, model_hot):
        assert high_t_ratio(params_hot, model_hot, 1e-3) < 0.01

    def test_matches_highly_excited_states(self, params_hot, model_hot):
        for tau in np.geomspace(0.01, 50.0, 8):
            a = zeno_ratio(params_hot, model_hot, 50, float(tau))
            b = high_t_ratio(params_hot, model_hot, float(tau))
            assert a == pytest.approx(b, rel=0.02)

    def test_state_independence_at_extreme_temperature(self):
        params = ReservoirParams(r=0.5, theta=1e4, alpha=0.1)
        model = params.spectral_model()
        for n in (0, 1, 5):
            for tau in (0.1, 1.0, 10.0):
                assert zeno_ratio(params, model, n, tau) == pytest.approx(
                    high_t_ratio(params, model, tau), rel=5e-3
                )

    def test_alpha_invariance(self):
        lo = ReservoirParams(r=0.5, theta=100.0, alpha=0.05)
        hi = ReservoirParams(r=0.5, theta=100.0, alpha=0.2)
        for tau in (0.1, 1.0):
            a = high_t_ratio(lo, lo.spectral_model(), tau)
            b = high_t_ratio(hi, hi.spectral_model(), tau)
            assert abs(a - b) <= 1e-10 * abs(a)


class TestCrossover:
    def test_exists_for_narrow_bath_high_temperature(self, params_hot, model_hot):
        stars = find_crossover_time(params_hot, model_hot, 0, (1e-3, 1e2), 64)
        assert stars
        assert all(1e-3 < s < 1e2 for s in stars)
        for s in stars:
            assert abs(zeno_ratio(params_hot, model_hot, 0, s) - 1.0) <= RATIO_TOL

    def test_dense_scan_oracle(self, params_hot, model_hot):
        # The refined tau* must fall inside the sign-change interval of a
        # 10x finer ratio scan.
        stars = find_crossover_time(params_hot, model_hot, 0, (0.5, 2.0), 16)
        assert len(stars) == 1
        dense = np.geomspace(0.5, 2.0, 160)
        values = np.array(
            [zeno_ratio(params_hot, model_hot, 0, float(t)) - 1.0 for t in dense]
        )
        signs = np.sign(values)
        (idx,) = np.nonzero(signs[:-1] * signs[1:] < 0.0)
        assert len(idx) == 1
        assert dense[idx[0]] <= stars[0] <= dense[idx[0] + 1]

    def test_absent_for_wide_bath_high_temperature(self):
        params = ReservoirParams(r=10.0, theta=100.0, alpha=0.1)
        model = params.spectral_model()
        assert find_crossover_time(params, model, 0, (1e-3, 1e2), 48) == []
        for tau in np.geomspace(1e-3, 1e2, 12):
            assert zeno_ratio(params, model, 0, float(tau)) < 1.0

    def test_exists_for_wide_bath_zero_temperature_excited(self):
        params = ReservoirParams(r=10.0, theta=0.0, alpha=0.1)
        assert find_crossover_time(params, params.spectral_model(), 50, (1e-3, 1e2), 48)

    def test_degenerate_case(self):
        params = ReservoirParams(r=0.5, theta=0.0, alpha=0.1)
        with pytest.raises(DegenerateDenominatorError):
            find_crossover_time(params, params.spectral_model(), 0, (1e-3, 1e2), 32)

    def test_validation(self, params_hot, model_hot):
        with pytest.raises(ValueError):
            find_crossover_time(params_hot, model_hot, 0, (1.0, 0.5), 32)
        with pytest.raises(ValueError):
            find_crossover_time(params_hot, model_hot, 0, (0.5, 1.0), 8)


class QuadratureLorentzDrude(OhmicLorentzDrude):
    """The Lorentz-Drude bath as a subclass: it takes the quadrature route."""


class TestLockStepMap:
    # The README map's r and theta at the benchmark's grid of 24 points.
    R = (0.1, 0.5, 1.0, 2.0, 10.0)
    THETAS = (0.0, 1.0, 10.0, 100.0)
    TAUS = (1e-3, 1e2)

    def _one_by_one(self, params, n):
        """The cell's crossovers with every Brent-Dekker step a single-tau rate of its own."""
        model = params.spectral_model()
        denominator = markovian_decay_rate(params, model, n)
        taus = np.geomspace(*self.TAUS, 24)
        point = [(params, model)]
        excess = zeno._rates(point, n, taus, np.zeros(taus.size, np.intp)) / denominator - 1.0

        def single(tau):
            rate = zeno._rates(point, n, np.array([tau]), np.zeros(1, np.intp))[0]
            return float(rate) / denominator - 1.0

        return [bisect(single, b, tol=1e-12 * b.hi) for b in brackets_from_samples(taus, excess)]

    @pytest.mark.parametrize("n", [0, 1, 50, 2**62, 10**20])
    def test_map_is_find_crossover_time_per_cell(self, n):
        # 2n+1 is formed per cell from the Python int: at n = 2**62 an
        # int64 2n+1 would wrap negative, and n = 10**20 fits no int64.
        points = [ReservoirParams(r=r, theta=theta, alpha=0.1)
                  for r in self.R for theta in self.THETAS]
        found = zeno._crossover_map([(p, p.spectral_model()) for p in points], n, self.TAUS, 24)
        assert len(found) == len(points)
        for params, stars in zip(points, found):
            try:
                want = find_crossover_time(params, params.spectral_model(), n, self.TAUS, 24)
            except DegenerateDenominatorError:
                assert stars is None and n == 0 and params.theta == 0.0
                continue
            assert stars == want == self._one_by_one(params, n), params
        assert sum(len(stars) for stars in found if stars) >= 11

    def test_other_baths_go_cell_by_cell(self, monkeypatch):
        # A quadrature bath among closed-form cells: the cells go one by
        # one through coefficients._pairs, and every row is still its own
        # cell's single-tau rate.
        params = ReservoirParams(r=0.5, theta=100.0, alpha=0.1)
        cold = ReservoirParams(r=10.0, theta=0.0, alpha=0.1)
        points = [(params, params.spectral_model()), (params, QuadratureLorentzDrude(0.5)),
                  (cold, cold.spectral_model())]
        denominators = np.array([1.0, 1.0, 2.0])
        taus = np.array([0.3, 2.0, 0.3, 2.0, 0.7])
        index = np.array([0, 1, 1, 0, 2])
        pairs, grids = coefficients._pairs, []

        def counted_pairs(params, model, times, kernel):
            grids.append((model, times.tolist()))
            return pairs(params, model, times, kernel)

        monkeypatch.setattr(coefficients, "_pairs", counted_pairs)
        got = zeno._excess(points, denominators, 0, taus, index)
        assert grids == [(points[0][1], [0.3, 2.0]), (points[1][1], [2.0, 0.3]),
                         (points[2][1], [0.7])]
        monkeypatch.undo()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # escape warnings at large tau
            rates = [zeno.effective_decay_rate(*points[c], 0, float(tau))
                     for tau, c in zip(taus, index)]
        for i, (rate, c) in enumerate(zip(rates, index)):
            assert got[i] == rate / denominators[c] - 1.0


class TestClassification:
    def test_below_crossover_is_zeno(self, params_hot, model_hot):
        assert classify_regime(params_hot, model_hot, 0, 0.3) is Regime.QZE

    def test_above_crossover_is_anti_zeno(self, params_hot, model_hot):
        # tau* ~ 1.008; slightly above it the decay is enhanced.
        assert classify_regime(params_hot, model_hot, 0, 1.3) is Regime.AZE

    def test_degenerate_maps_to_anti_zeno(self):
        params = ReservoirParams(r=0.5, theta=0.0, alpha=0.1)
        model = params.spectral_model()
        for tau in (0.01, 1.0, 30.0):
            assert classify_regime(params, model, 0, tau) is Regime.AZE


    @pytest.mark.parametrize("ratio, regime", [
        (1.0 - 2 * RATIO_TOL, Regime.QZE),
        (1.0 - RATIO_TOL, Regime.MARGINAL),
        (1.0 + RATIO_TOL, Regime.MARGINAL),
        (1.0 + 2 * RATIO_TOL, Regime.AZE),
        (np.inf, Regime.AZE),
        (-np.inf, Regime.QZE),
        (np.nan, Regime.MARGINAL),
    ])
    def test_scan_regimes_band_like_classify_regime(self, params_hot, model_hot, monkeypatch,
                                                     ratio, regime):
        monkeypatch.setattr(zeno, "zeno_ratio", lambda *args: ratio)
        scan = ZenoScan(n=0, taus=np.array([1.0]), rate_z=np.array([ratio]),
                        ratio=np.array([ratio]), markov_rate=1.0, crossovers=[],
                        params=params_hot)
        assert classify_regime(params_hot, model_hot, 0, 1.0) is regime
        assert scan.regimes() == [regime]


class TestScan:
    def test_scan_contents(self, params_hot, model_hot):
        taus = np.geomspace(0.01, 30.0, 24)
        scan = zeno_scan(params_hot, model_hot, 0, taus)
        assert len(scan.rate_z) == len(taus)
        assert scan.markov_rate == pytest.approx(0.1990, abs=2e-4)
        assert scan.crossovers
        np.testing.assert_allclose(scan.ratio, scan.rate_z / scan.markov_rate, rtol=1e-12)

    def test_regime_changes_only_at_crossovers(self, params_hot, model_hot):
        taus = np.geomspace(0.01, 30.0, 24)
        scan = zeno_scan(params_hot, model_hot, 0, taus)
        regimes = scan.regimes()
        for i in range(len(taus) - 1):
            a, b = regimes[i], regimes[i + 1]
            if Regime.MARGINAL in (a, b) or a == b:
                continue
            assert any(taus[i] <= s <= taus[i + 1] for s in scan.crossovers)

    def test_degenerate_scan(self):
        params = ReservoirParams(r=0.5, theta=0.0, alpha=0.1)
        scan = zeno_scan(params, params.spectral_model(), 0, np.geomspace(0.1, 10.0, 6))
        assert scan.degenerate
        assert np.all(np.isinf(scan.ratio))
        assert scan.crossovers == []
        assert scan.metadata()["regime"] == "AZE-divergent"
        assert all(reg is Regime.AZE for reg in scan.regimes())
        model = params.spectral_model()
        assert scan.regimes() == [classify_regime(params, model, 0, tau) for tau in scan.taus]

    def test_serialization(self, params_hot, model_hot, tmp_path):
        scan = zeno_scan(params_hot, model_hot, 0, np.geomspace(0.1, 5.0, 5))
        csv_path = tmp_path / "scan.csv"
        scan.to_csv(csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "tau,rate_z,ratio,regime"
        assert len(lines) == 6
        assert lines[1].endswith(("QZE", "AZE", "Marginal"))
        json_path = tmp_path / "scan.json"
        scan.to_json(json_path)
        import json

        meta = json.loads(json_path.read_text())
        assert set(meta) == {"n", "params", "markov_rate", "crossovers", "regime"}

    @pytest.mark.parametrize("taus", [
        [3.0, 0.01, 10.0],
        [[0.1, 1.0], [2.0, 3.0]],
        [0.1, np.nan, 1.0],
        [0.1, 1.0, np.inf],
        [0.0, 1.0],
        [0.1, 0.1, 1.0],
    ])
    def test_rejects_bad_taus_before_any_rate(self, params_hot, model_hot, monkeypatch, taus):
        def no_rates(*args):
            raise AssertionError("a rate was computed before taus were checked")

        monkeypatch.setattr(zeno, "_cell_pairs", no_rates)
        with pytest.raises(ValueError, match="taus must be a 1-D grid"):
            zeno_scan(params_hot, model_hot, 0, taus)
