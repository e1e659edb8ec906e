"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (visible with `pytest -s`)
and asserts the criterion.  Rate evaluations beyond the perturbative
window only warn, so the whole module runs with those warnings silenced.
"""

import json
import math
import time

import numpy as np
import pytest

from qbmzeno.cli import main as cli_main
from qbmzeno.coefficients import (
    damping_coefficient,
    diffusion_coefficient,
    integrated_damping,
    integrated_diffusion,
    markovian_limits,
    markovian_limits_numerical,
)
from qbmzeno.dynamics import (
    LadderState,
    MeasurementSchedule,
    evolve_ladder,
    survival_after_measurements,
)
from qbmzeno.numerics import QuadratureSpec, integrate_semi_infinite
from qbmzeno.spectral import ReservoirParams
from qbmzeno.zeno import (
    effective_decay_rate,
    effective_decay_rate_fd,
    find_crossover_time,
    high_t_ratio,
    markovian_decay_rate,
    zeno_ratio,
)

pytestmark = [
    pytest.mark.filterwarnings("ignore:escape probability"),
    pytest.mark.slow,
]

ALPHA = 0.1
TAU_RANGE = (1e-3, 1e2)


def _report(number: int, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number:2d}: {detail}")
    assert passed, detail


def _params(r, theta, alpha=ALPHA):
    return ReservoirParams(r=r, theta=theta, alpha=alpha)


def test_criterion_01_dual_route_agreement():
    taus = np.geomspace(*TAU_RANGE, 10)
    worst = 0.0
    start = time.monotonic()
    for theta in (0.0, 1.0, 100.0):
        for r in (0.1, 0.5, 1.0, 10.0):
            params = _params(r, theta)
            model = params.spectral_model()
            for n in (0, 1, 50):
                for tau in taus:
                    a = effective_decay_rate(params, model, n, float(tau))
                    b = effective_decay_rate_fd(params, model, n, float(tau))
                    floor = params.alpha**2 * params.omega0 * 1e-6
                    worst = max(worst, abs(a - b) / max(abs(a), floor))
    elapsed = time.monotonic() - start
    _report(
        1,
        worst <= 1e-6 and elapsed < 60.0,
        f"dual-route worst rel diff {worst:.2e} (<=1e-6) on 360 points in {elapsed:.1f}s (<60s)",
    )


def test_criterion_02_markovian_limit():
    params = _params(0.5, 100.0)
    model = params.spectral_model()
    ratio = effective_decay_rate(params, model, 0, 50.0) / markovian_decay_rate(params, model, 0)
    gamma_m = markovian_limits(params, model).gamma_m
    gamma_m_err = abs(gamma_m - 0.001) / 0.001
    numeric = markovian_limits_numerical(params, model, t=50.0)
    cross_err = abs(numeric.gamma_m - gamma_m) / gamma_m
    ok = 0.95 <= ratio <= 1.05 and gamma_m_err <= 1e-6 and cross_err <= 0.01
    _report(
        2,
        ok,
        f"rate(50)/markov = {ratio:.4f} in [0.95,1.05]; gamma_M off closed form by "
        f"{gamma_m_err:.1e} (<=1e-6); large-t quadrature off by {cross_err:.2%} (<=1%)",
    )


def test_criterion_03_zeno_limit():
    worst = 0.0
    for r in (0.1, 0.5, 1.0, 10.0):
        params = _params(r, 100.0)
        model = params.spectral_model()
        for n in (0, 1, 50):
            worst = max(worst, zeno_ratio(params, model, n, 1e-3))
    _report(3, worst < 0.1, f"max ratio at tau=1e-3 over high-T sets: {worst:.3e} (<0.1)")


def test_criterion_04_high_temperature_regime_structure():
    narrow = _params(0.5, 100.0)
    wide = _params(10.0, 100.0)
    stars_narrow = find_crossover_time(narrow, narrow.spectral_model(), 0, TAU_RANGE, 64)
    stars_wide = find_crossover_time(wide, wide.spectral_model(), 0, TAU_RANGE, 64)
    wide_model = wide.spectral_model()
    below_one = all(
        zeno_ratio(wide, wide_model, 0, float(t)) < 1.0
        for t in np.geomspace(*TAU_RANGE, 30)
    )
    ok = bool(stars_narrow) and not stars_wide and below_one
    _report(
        4,
        ok,
        f"theta=100: r=0.5 crossover at {stars_narrow[0]:.4f}; "
        f"r=10 has none and stays below 1: {below_one}",
    )


def test_criterion_05_zero_temperature_excited_crossover():
    params = _params(10.0, 0.0)
    stars = find_crossover_time(params, params.spectral_model(), 50, TAU_RANGE, 64)
    _report(5, bool(stars), f"theta=0, n=50, r=10 crossover at {stars[0] if stars else None}")


def test_criterion_06_ground_state_divergence(tmp_path):
    params = _params(0.5, 0.0)
    lim = markovian_limits(params, params.spectral_model())
    code = cli_main([
        "scan", "--n", "0", "--theta", "0", "--r", "0.5", "--alpha", str(ALPHA),
        "--tau-points", "12", "--out", str(tmp_path),
    ])
    meta = json.loads((tmp_path / "zeno_scan.json").read_text())
    ok = lim.delta_m == lim.gamma_m and code == 4 and meta["regime"] == "AZE-divergent"
    _report(
        6,
        ok,
        f"theta=0, n=0: Delta_M = gamma_M = {lim.gamma_m:.3e}, a zero Markovian rate; "
        "scan exits 4 with AZE-divergent",
    )


def test_criterion_07_initial_jolt():
    cold = _params(10.0, 0.0)
    cold_model = cold.spectral_model()
    lim_cold = markovian_limits(cold, cold_model).delta_m
    ts = np.linspace(0.01, 5.0 / cold.omega_c, 40)
    jolt = max(diffusion_coefficient(cold, cold_model, float(t)) for t in ts) / lim_cold

    hot = _params(10.0, 100.0)
    hot_model = hot.spectral_model()
    lim_hot = markovian_limits(hot, hot_model).delta_m
    grid = np.concatenate([np.linspace(0.01, 1.0, 30), np.linspace(1.2, 30.0, 30)])
    flat = max(diffusion_coefficient(hot, hot_model, float(t)) for t in grid) / lim_hot

    ok = jolt > 1.0 and flat <= 1.02
    _report(
        7,
        ok,
        f"theta=0, r=10 jolt peak {jolt:.3f} (>1); theta=100, r=10 peak {flat:.5f} (<=1.02)",
    )


def test_criterion_08_eid_zeno_identity():
    taus = np.geomspace(*TAU_RANGE, 25)
    sign_ok = True
    worst_n50 = 0.0
    for r in (0.5, 10.0):
        params = _params(r, 100.0)
        model = params.spectral_model()
        for tau in taus:
            eid = high_t_ratio(params, model, float(tau))
            for n in (0, 50):
                ratio = zeno_ratio(params, model, n, float(tau))
                # Grid points inside the marginal band carry no regime sign.
                if abs(ratio - 1.0) > 1e-3 and abs(eid - 1.0) > 1e-3:
                    sign_ok = sign_ok and (np.sign(ratio - 1.0) == np.sign(eid - 1.0))
                if n == 50:
                    worst_n50 = max(worst_n50, abs(ratio - eid) / abs(eid))
    ok = sign_ok and worst_n50 <= 0.02
    _report(
        8,
        ok,
        f"sign(zeno-1) == sign(eid-1) at every non-marginal grid tau: {sign_ok}; "
        f"n=50 worst deviation {worst_n50:.2e} (<=2%)",
    )


def test_criterion_09_measurement_composition():
    params = _params(0.5, 100.0)
    model = params.spectral_model()
    tau = 0.25
    p3 = survival_after_measurements(params, model, 0, MeasurementSchedule(tau, 3))
    p5 = survival_after_measurements(params, model, 0, MeasurementSchedule(tau, 5))
    p8 = survival_after_measurements(params, model, 0, MeasurementSchedule(tau, 8))
    power_err = abs(p8 - p3 * p5)

    rate = effective_decay_rate(params, model, 0, tau)
    escape = rate * tau
    bound = escape**2 / (2.0 * tau * (1.0 - escape))
    log_err = abs(-math.log(p8) / (8 * tau) - rate)
    ok = power_err <= 1e-12 and escape <= 0.05 and log_err <= bound
    _report(
        9,
        ok,
        f"power law exact to {power_err:.1e} (<=1e-12); -lnP/(N tau) off rate by "
        f"{log_err:.2e} <= remainder bound {bound:.2e} at escape {escape:.3f}",
    )


def test_criterion_10_shuttered_noise_verdicts(tmp_path):
    base = [
        "ion", "--n", "0", "--theta", "100", "--r", "0.5", "--alpha", str(ALPHA),
    ]
    code_z = cli_main(base + ["--tau", "0.25", "--N", "6", "--out", str(tmp_path / "qze")])
    verdict_z = json.loads((tmp_path / "qze" / "ion_verdict.json").read_text())
    code_a = cli_main(base + ["--tau", "1.5", "--N", "3", "--out", str(tmp_path / "aze")])
    verdict_a = json.loads((tmp_path / "aze" / "ion_verdict.json").read_text())
    ok = (
        code_z == 0 and verdict_z["verdict"] == "QZE"
        and code_a == 0 and verdict_a["verdict"] == "AZE"
    )
    _report(
        10,
        ok,
        f"ion verdicts: tau=0.25 (below tau*) -> {verdict_z['verdict']}, "
        f"tau=1.5 (above tau*) -> {verdict_a['verdict']}",
    )


def test_criterion_11_oracle_checks():
    params = _params(0.5, 100.0)
    model = params.spectral_model()

    # Trapezoid of the tabulated coefficient at step tau/2000.
    tau = 1.0
    ts = np.linspace(0.0, tau, 2001)
    deltas = np.array([diffusion_coefficient(params, model, float(t)) for t in ts])
    gammas = np.array([damping_coefficient(params, model, float(t)) for t in ts])
    h = ts[1] - ts[0]
    trap_d = h * (0.5 * deltas[0] + deltas[1:-1].sum() + 0.5 * deltas[-1])
    trap_g = h * (0.5 * gammas[0] + gammas[1:-1].sum() + 0.5 * gammas[-1])
    err_d = abs(integrated_diffusion(params, model, tau) - trap_d) / abs(trap_d)
    err_g = abs(integrated_damping(params, model, tau) - trap_g) / abs(trap_g)

    # Ladder versus the closed-form two-state decay (Delta = gamma).
    c, t_end = 0.03, 2.0
    out = evolve_ladder(LadderState.fock(1, n_max=6), t_end, (lambda t: c, lambda t: c), 0.01)
    p1 = math.exp(-2.0 * c * t_end)
    ladder_err = max(abs(out.populations[1] - p1), abs(out.populations[0] - (1.0 - p1)))

    # Quadrature-engine examples at their stated tolerances.
    spec = QuadratureSpec()
    q1, _ = integrate_semi_infinite(lambda u: np.exp(-u), spec, kernel="sinc")
    q2, _ = integrate_semi_infinite(lambda u: 1.0 / (1.0 + u * u), spec, kernel="sinc")
    q3, _ = integrate_semi_infinite(np.ones_like, spec, kernel="sinc2")
    quad_ok = (
        abs(q1 - 0.25 * np.pi) < 1e-8
        and abs(q2 - 0.5 * np.pi * (1.0 - math.exp(-1.0))) < 1e-8
        and abs(q3 - 0.5 * np.pi) < 1e-6
    )

    ok = err_d <= 1e-5 and err_g <= 1e-5 and ladder_err <= 1e-6 and quad_ok
    _report(
        11,
        ok,
        f"trapezoid oracle rel errs {err_d:.1e}/{err_g:.1e} (<=1e-5); two-state ladder err "
        f"{ladder_err:.1e} (<=1e-6); quadrature examples in tolerance: {quad_ok}",
    )


def test_criterion_12_alpha_invariance(tmp_path):
    worst_ratio = 0.0
    for r, theta, n in ((0.5, 100.0, 0), (10.0, 100.0, 1)):
        lo = _params(r, theta, alpha=ALPHA)
        hi = _params(r, theta, alpha=4.0 * ALPHA)
        lo_model, hi_model = lo.spectral_model(), hi.spectral_model()
        for tau in (0.1, 1.0, 10.0):
            a = zeno_ratio(lo, lo_model, n, tau)
            b = zeno_ratio(hi, hi_model, n, tau)
            worst_ratio = max(worst_ratio, abs(a - b) / abs(a))
            c = high_t_ratio(lo, lo_model, tau)
            d = high_t_ratio(hi, hi_model, tau)
            worst_ratio = max(worst_ratio, abs(c - d) / abs(c))

    map_args = ["crossover-map", "--n", "0", "--map-r", "0.5,10", "--map-theta", "100",
                "--tau-points", "40"]
    cli_main(map_args + ["--alpha", str(ALPHA), "--out", str(tmp_path / "lo")])
    cli_main(map_args + ["--alpha", str(4.0 * ALPHA), "--out", str(tmp_path / "hi")])
    lo_rows = (tmp_path / "lo" / "crossover_map.csv").read_text().splitlines()[1:]
    hi_rows = (tmp_path / "hi" / "crossover_map.csv").read_text().splitlines()[1:]
    map_ok = True
    for row_lo, row_hi in zip(lo_rows, hi_rows):
        for cell_lo, cell_hi in zip(row_lo.split(",")[1:], row_hi.split(",")[1:]):
            try:
                a, b = float(cell_lo), float(cell_hi)
                map_ok = map_ok and abs(a - b) <= 1e-10 * abs(a)
            except ValueError:
                map_ok = map_ok and cell_lo == cell_hi

    ok = worst_ratio <= 1e-10 and map_ok
    _report(
        12,
        ok,
        f"ratios shift by {worst_ratio:.1e} (<=1e-10) under alpha -> 4 alpha; maps identical: {map_ok}",
    )
