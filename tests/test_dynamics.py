import math

import numpy as np
import pytest

from qbmzeno import coefficients, dynamics
from qbmzeno.dynamics import (
    LadderState,
    MeasurementMode,
    MeasurementSchedule,
    eid_attenuation,
    evolve_ladder,
    shuttered_comparison,
    survival_after_measurements,
    survival_probability,
    transition_probabilities,
    unshuttered_survival,
)
from qbmzeno.errors import (
    NegativeProbabilityError,
    PerturbativeBreakdownError,
    TruncationLeakageError,
)
from qbmzeno.spectral import ReservoirParams
from qbmzeno.zeno import Regime, effective_decay_rate


def _ladder_rhs(p, delta, gamma):
    levels = np.arange(len(p), dtype=float)
    up = (levels + 1.0) * (delta - gamma)
    down = levels * (delta + gamma)
    flow = -(up + down) * p
    flow[1:] += up[:-1] * p[:-1]
    flow[:-1] += down[1:] * p[1:]
    return flow


def _rk4(p, delta, gamma, h):
    """Oracle: classical RK4 on the truncated rate equation (top-level up-flow is lost).

    ``delta`` and ``gamma`` hold the rates at every half step h/2 of the
    run, 2 * steps + 1 values each.
    """
    for i in range(0, len(delta) - 1, 2):
        k1 = _ladder_rhs(p, delta[i], gamma[i])
        k2 = _ladder_rhs(p + 0.5 * h * k1, delta[i + 1], gamma[i + 1])
        k3 = _ladder_rhs(p + 0.5 * h * k2, delta[i + 1], gamma[i + 1])
        k4 = _ladder_rhs(p + h * k3, delta[i + 2], gamma[i + 2])
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return p


class TestTransitionProbabilities:
    def test_ground_state_cannot_decay_downward(self, params_hot, model_hot):
        _, p_down = transition_probabilities(params_hot, model_hot, 0, 0.3)
        assert p_down == 0.0

    def test_zero_temperature_upward_channel(self):
        # Spontaneous-emission-like escape (n+1)(Delta - gamma) at theta=0.
        params = ReservoirParams(r=0.5, theta=0.0, alpha=0.1)
        p_up, p_down = transition_probabilities(params, params.spectral_model(), 0, 0.2)
        assert p_up > 0.0
        assert p_down == 0.0

    def test_nested_quadrature_oracle(self, params_hot, model_hot):
        # Independent route: Gauss-Legendre over the tabulated
        # coefficients instead of the closed time kernels.  (The escape
        # cap keeps tau at 0.5 here; tau = 1 breaches it for n = 1.)
        tau = 0.5
        x, w = np.polynomial.legendre.leggauss(48)
        ts, ws = 0.5 * tau * (x + 1.0), 0.5 * tau * w
        i_d = sum(
            wi * coefficients.diffusion_coefficient(params_hot, model_hot, float(ti))
            for ti, wi in zip(ts, ws)
        )
        i_g = sum(
            wi * coefficients.damping_coefficient(params_hot, model_hot, float(ti))
            for ti, wi in zip(ts, ws)
        )
        p_up, p_down = transition_probabilities(params_hot, model_hot, 1, tau)
        assert p_up == pytest.approx(2.0 * (i_d - i_g), rel=1e-6)
        assert p_down == pytest.approx(i_d + i_g, rel=1e-6)

    def test_breakdown_guard(self, params_hot, model_hot):
        with pytest.raises(PerturbativeBreakdownError):
            transition_probabilities(params_hot, model_hot, 1, 2.0)

    def test_negative_probability_guard(self, params_hot, model_hot, monkeypatch):
        # (IDelta, Igamma) = (-1e-6, 0): both come from one pair pass.
        monkeypatch.setattr(dynamics, "integrated_pair", lambda *a, **k: (-1e-6, 0.0))
        with pytest.raises(NegativeProbabilityError):
            transition_probabilities(params_hot, model_hot, 0, 0.1)


class TestSurvival:
    def test_short_interval_limit(self, params_hot, model_hot):
        assert survival_probability(params_hot, model_hot, 0, 1e-4) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_ground_state_is_upward_only(self):
        params = ReservoirParams(r=0.5, theta=0.0, alpha=0.1)
        model = params.spectral_model()
        p_up, _ = transition_probabilities(params, model, 0, 0.4)
        assert survival_probability(params, model, 0, 0.4) == pytest.approx(
            1.0 - p_up, rel=1e-12
        )

    def test_exponential_consistency(self, params_hot, model_hot):
        tau = 0.5
        survival = survival_probability(params_hot, model_hot, 0, tau)
        rate = effective_decay_rate(params_hot, model_hot, 0, tau)
        escape = rate * tau
        assert abs(survival - math.exp(-escape)) <= escape**2 / 2.0


class TestMeasurementTrains:
    def test_power_law_value(self):
        # 0.99^10: forced by the factorization of the survival probability.
        assert 0.99**10 == pytest.approx(0.904382, abs=1e-6)

    def test_single_measurement_reduces_to_survival(self, params_hot, model_hot):
        schedule = MeasurementSchedule(tau=0.3, n_measurements=1)
        assert survival_after_measurements(params_hot, model_hot, 0, schedule) == (
            survival_probability(params_hot, model_hot, 0, 0.3)
        )

    def test_composition_is_exact(self, params_hot, model_hot):
        p8 = survival_after_measurements(
            params_hot, model_hot, 0, MeasurementSchedule(tau=0.25, n_measurements=8)
        )
        p3 = survival_after_measurements(
            params_hot, model_hot, 0, MeasurementSchedule(tau=0.25, n_measurements=3)
        )
        p5 = survival_after_measurements(
            params_hot, model_hot, 0, MeasurementSchedule(tau=0.25, n_measurements=5)
        )
        assert abs(p8 - p3 * p5) <= 1e-12

    def test_zeno_hardening_at_fixed_duration(self, params_hot, model_hot):
        # Fixed t = N tau in the QZE window: more frequent measurements
        # mean higher survival.  (tau = 2 would breach the escape cap, so
        # the chain starts at tau = 1.)
        total = 2.0
        taus = [1.0, 0.5, 0.25, 0.125]
        survivals = [
            survival_after_measurements(
                params_hot, model_hot, 0,
                MeasurementSchedule(tau=tau, n_measurements=int(total / tau)),
            )
            for tau in taus
        ]
        assert np.all(np.diff(survivals) > 0.0)

    def test_rate_consistency(self, params_hot, model_hot):
        # -ln P^(N) / (N tau) equals the effective rate up to the
        # second-order remainder of the exponential expansion.
        tau, n_meas = 0.25, 8
        p = survival_after_measurements(
            params_hot, model_hot, 0, MeasurementSchedule(tau=tau, n_measurements=n_meas)
        )
        rate = effective_decay_rate(params_hot, model_hot, 0, tau)
        escape = rate * tau
        assert escape <= 0.05
        bound = escape**2 / (2.0 * tau * (1.0 - escape))
        assert abs(-math.log(p) / (n_meas * tau) - rate) <= bound

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            MeasurementSchedule(tau=0.0, n_measurements=1)
        with pytest.raises(ValueError):
            MeasurementSchedule(tau=1.0, n_measurements=0)


class TestUnshuttered:
    def test_short_time_limit(self, params_hot, model_hot):
        result = unshuttered_survival(params_hot, model_hot, 0, 1e-4)
        assert result.probability == pytest.approx(1.0, abs=1e-6)
        assert not result.extrapolated

    def test_extrapolation_branch(self, params_hot, model_hot):
        result = unshuttered_survival(params_hot, model_hot, 0, 40.0)
        assert result.extrapolated
        assert result.perturbative is None
        assert result.probability == result.markovian

    def test_matches_single_interval_survival(self, params_hot, model_hot):
        direct = survival_probability(params_hot, model_hot, 1, 0.4)
        free = unshuttered_survival(params_hot, model_hot, 1, 0.4)
        assert abs(direct - free.probability) <= 1e-12

    def test_zeno_inequality(self, params_hot, model_hot):
        # QZE interval: repeated shuttering preserves more population.
        tau, n_meas = 0.25, 6
        shuttered = survival_after_measurements(
            params_hot, model_hot, 0, MeasurementSchedule(tau=tau, n_measurements=n_meas)
        )
        free = unshuttered_survival(params_hot, model_hot, 0, tau * n_meas)
        assert shuttered > free.probability

    def test_anti_zeno_inequality(self, params_hot, model_hot):
        # Interval just above tau* ~ 1.008: shuttering accelerates decay.
        tau, n_meas = 1.5, 2
        shuttered = survival_after_measurements(
            params_hot, model_hot, 0, MeasurementSchedule(tau=tau, n_measurements=n_meas)
        )
        free = unshuttered_survival(params_hot, model_hot, 0, tau * n_meas)
        assert shuttered < free.probability


class TestLadder:
    def test_state_validation(self):
        with pytest.raises(ValueError):
            LadderState(populations=np.array([0.5, 0.7]), time=0.0, n_max=1)
        with pytest.raises(ValueError):
            LadderState(populations=np.array([1.0]), time=0.0, n_max=1)
        with pytest.raises(ValueError):
            LadderState.fock(3, n_max=6)

    def test_zero_rates_leave_state_unchanged(self):
        state = LadderState.fock(2)
        out = evolve_ladder(state, 1.0, (lambda t: 0.0, lambda t: 0.0), 0.05)
        np.testing.assert_array_equal(out.populations, state.populations)
        assert out.time == 1.0

    def test_two_state_decay_closed_form(self):
        # Delta = gamma switches the upward channel off exactly, leaving a
        # clean two-state decay |1> -> |0> with rate Delta + gamma.
        c = 0.03
        t_end = 2.0
        state = LadderState.fock(1, n_max=6)
        out = evolve_ladder(state, t_end, (lambda t: c, lambda t: c), 0.01)
        p1 = math.exp(-2.0 * c * t_end)
        expected = np.zeros(7)
        expected[1] = p1
        expected[0] = 1.0 - p1
        np.testing.assert_allclose(out.populations, expected, atol=1e-6)

    def test_two_state_eigen_oracle(self):
        # Full 2x2 generator (up, down and top leakage) against its
        # closed eigenvalue solution, on the oracle integrator.
        delta_c, gamma_c = 0.04, 0.01
        up0 = delta_c - gamma_c          # 0 -> 1
        down1 = delta_c + gamma_c        # 1 -> 0
        up1 = 2.0 * (delta_c - gamma_c)  # leakage out of the top level
        t_end, steps = 2.0, 200
        final = _rk4(
            np.array([1.0, 0.0]),
            np.full(2 * steps + 1, delta_c), np.full(2 * steps + 1, gamma_c), t_end / steps,
        )
        gen = np.array([[-up0, down1], [up0, -(down1 + up1)]])
        eigvals, eigvecs = np.linalg.eig(gen)
        coeffs = np.linalg.solve(eigvecs, np.array([1.0, 0.0]))
        expected = eigvecs @ (coeffs * np.exp(eigvals * t_end))
        np.testing.assert_allclose(final, expected, atol=1e-6)

    def test_probability_conservation(self, params_hot, model_hot):
        table = coefficients.tabulate_coefficients(params_hot, model_hot, 2.0, 120)
        state = LadderState.fock(0, n_max=25)
        out = evolve_ladder(state, 2.0, table)
        assert abs(out.total() - 1.0) <= 1e-8 * 2.0

    def test_short_time_matches_survival(self, params_hot, model_hot):
        tau = 0.4
        table = coefficients.tabulate_coefficients(params_hot, model_hot, tau, 100)
        state = LadderState.fock(0, n_max=20)
        out = evolve_ladder(state, tau, table)
        survival = survival_probability(params_hot, model_hot, 0, tau)
        escape = 1.0 - survival
        assert abs(out.populations[0] - survival) <= escape**2

    def test_fourth_order_step_contract(self):
        rates = (lambda t: 0.05 * (1.0 + 0.5 * math.sin(3.0 * t)), lambda t: 0.01)
        state = LadderState.fock(0, n_max=8)
        coarse = evolve_ladder(state, 1.0, rates, 0.02)
        halved = evolve_ladder(state, 1.0, rates, 0.01)
        fine = evolve_ladder(state, 1.0, rates, 0.0025)
        err_coarse = np.max(np.abs(coarse.populations - fine.populations))
        err_halved = np.max(np.abs(halved.populations - fine.populations))
        assert err_halved <= err_coarse / 12.0  # ~16x for a 4th-order step

    def test_truncation_leakage(self):
        state = LadderState.fock(0, n_max=5)
        with pytest.raises(TruncationLeakageError):
            evolve_ladder(state, 8.0, (lambda t: 0.2, lambda t: 0.0), 0.01)

    def test_step_goes_with_callables_only(self, params_hot, model_hot):
        # A table is used on its own grid and refuses a dt; callables need one.
        table = coefficients.tabulate_coefficients(params_hot, model_hot, 1.0, 40)
        state = LadderState.fock(0, n_max=8)
        with pytest.raises(ValueError, match="own grid"):
            evolve_ladder(state, 1.0, table, 0.01)
        for dt in (None, 0.0, -0.01):
            with pytest.raises(ValueError, match="sampling step"):
                evolve_ladder(state, 1.0, (lambda t: 0.01, lambda t: 0.0), dt)


class TestEidAttenuation:
    def test_diagonal_unaffected(self, params_hot, model_hot):
        assert eid_attenuation(params_hot, model_hot, 0.0, 1.0) == 1.0

    def test_no_time_no_decoherence(self, params_hot, model_hot):
        assert eid_attenuation(params_hot, model_hot, 3.0, 0.0) == 1.0

    def test_quadratic_exponent(self, params_hot, model_hot):
        a1 = eid_attenuation(params_hot, model_hot, 1.0, 1.0)
        a2 = eid_attenuation(params_hot, model_hot, 2.0, 1.0)
        assert a2 == pytest.approx(a1**4, abs=1e-15)

    def test_monotone_in_separation(self, params_hot, model_hot):
        vals = [eid_attenuation(params_hot, model_hot, dx, 1.0) for dx in (0.0, 0.5, 1.0, 2.0)]
        assert np.all(np.diff(vals) < 0.0)


class TestShutteredComparison:
    def test_zeno_side(self, params_hot, model_hot):
        comp = shuttered_comparison(params_hot, model_hot, 0, 0.25, 6)
        assert comp.verdict is Regime.QZE
        assert comp.shuttered[-1] > comp.unshuttered[-1]
        # Ladder route stays within the second-order remainder of the
        # analytic power law.
        assert comp.shuttered_ladder[-1] == pytest.approx(comp.shuttered[-1], abs=0.02)

    def test_anti_zeno_side(self, params_hot, model_hot):
        comp = shuttered_comparison(params_hot, model_hot, 0, 1.5, 3)
        assert comp.verdict is Regime.AZE
        assert comp.shuttered[-1] < comp.unshuttered[-1]

    def test_one_integrated_pair_per_measurement_time(self, params_hot, model_hot, monkeypatch):
        # The ladder's 201-row coefficient table is one grid pass, and the
        # free decay at every k tau is another; its first entry, at tau,
        # also serves P(tau), so no integrated pair is taken point by point.
        calls, grids, tables = [], [], []
        original = coefficients.integrated_pair
        pairs = dynamics._pairs
        tabulate = coefficients.tabulate_coefficients

        def counting(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        def counting_pairs(*args, **kwargs):
            grids.append((args[2].tolist(), args[3]))
            return pairs(*args, **kwargs)

        def counting_table(*args, **kwargs):
            tables.append(args[2:4])
            return tabulate(*args, **kwargs)

        monkeypatch.setattr(dynamics, "integrated_pair", counting)
        monkeypatch.setattr(coefficients, "integrated_pair", counting)
        monkeypatch.setattr(dynamics, "_pairs", counting_pairs)
        monkeypatch.setattr(dynamics, "tabulate_coefficients", counting_table)
        comp = shuttered_comparison(params_hot, model_hot, 0, 0.25, 4)
        assert calls == []
        assert grids == [([0.25, 0.5, 0.75, 1.0], "sinc2")]
        assert tables == [(0.25, 201)]
        # The grid's entries are the per-point values, bit for bit.
        monkeypatch.undo()
        assert comp.shuttered[1] == survival_probability(params_hot, model_hot, 0, 0.25)
        for k in range(1, 5):
            free = unshuttered_survival(params_hot, model_hot, 0, 0.25 * k)
            assert comp.unshuttered[k] == free.probability

    @pytest.mark.parametrize("n_measurements", [1, 60])
    def test_one_markov_rate_per_comparison(self, params_hot, model_hot, monkeypatch,
                                            n_measurements):
        # Every free-decay time shares one Markov rate.
        calls = []
        markov = dynamics.markovian_decay_rate

        def counting(*args, **kwargs):
            calls.append(args[2])
            return markov(*args, **kwargs)

        monkeypatch.setattr(dynamics, "markovian_decay_rate", counting)
        comp = shuttered_comparison(params_hot, model_hot, 0, 0.25, n_measurements)
        assert calls == [0]
        calls.clear()
        free = unshuttered_survival(params_hot, model_hot, 0, 0.25 * n_measurements)
        assert calls == [0]
        assert free.probability == comp.unshuttered[-1]

    @pytest.mark.parametrize(
        "r, theta, n, tau", [(0.5, 100.0, 0, 0.25), (0.5, 100.0, 3, 0.25), (10.0, 100.0, 2, 0.1)]
    )
    def test_closed_form_matches_rk4_on_exact_rates(self, r, theta, n, tau):
        # The exact ladder map against RK4 at tau/1600 on coefficient_pair
        # rates, segment by segment, restarting the clock at each one.
        params = ReservoirParams(r=r, theta=theta, alpha=0.1)
        model = params.spectral_model()
        n_measurements, steps = 3, 1600
        comp = shuttered_comparison(params, model, n, tau, n_measurements)
        pops = comp.trace.populations
        assert np.all(pops >= 0.0)
        ts = np.linspace(0.0, tau, 2 * steps + 1)
        delta, gamma = np.array(
            [(0.0, 0.0)] + [coefficients.coefficient_pair(params, model, float(t)) for t in ts[1:]]
        ).T
        rows = 201
        assert len(pops) == rows * n_measurements
        p = np.zeros(pops.shape[1])
        p[n] = 1.0
        for k in range(n_measurements):
            p = _rk4(p, delta, gamma, tau / steps)
            assert np.max(np.abs(pops[(k + 1) * rows - 1] - p)) <= 1e-9
            assert comp.shuttered_ladder[k + 1] == pops[(k + 1) * rows - 1, n]

    def test_trace_serialization(self, params_hot, model_hot, tmp_path):
        comp = shuttered_comparison(params_hot, model_hot, 0, 0.25, 2)
        csv_path = tmp_path / "comparison.csv"
        comp.to_csv(csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,shuttered,unshuttered"
        assert len(lines) == 4

        trace_path = tmp_path / "trace.csv"
        comp.trace.to_csv(trace_path)
        header = trace_path.read_text().splitlines()[0].split(",")
        assert header[0] == "t"
        assert header[1] == "p0"
        assert header[-1] == f"p{comp.trace.populations.shape[1] - 1}"

        summary = comp.trace.summary("QZE")
        assert set(summary) == {"mode", "tau", "N", "survival_final", "regime"}
        assert summary["mode"] == MeasurementMode.SHUTTERED.value
