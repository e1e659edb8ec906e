import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qbmzeno import _matsubara, cli, coefficients, numerics, zeno
from qbmzeno.cli import main
from qbmzeno.spectral import ReservoirParams

FAST_SCAN = ["--tau-min", "1e-3", "--tau-max", "100", "--tau-points", "36", "--log"]
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HOT = ["--r", "0.5", "--theta", "100", "--alpha", "0.1"]
# The five commands of the README's command-line section, at its sizes.
README_COMMANDS = {
    "coeffs": ["coeffs", *HOT, "--t-max", "30", "--points", "300"],
    "scan": ["scan", "--n", "0", *HOT, "--log"],
    "fig1": ["fig1", "--alpha", "0.1"],
    "ion": ["ion", "--n", "0", *HOT, "--tau", "0.25", "--N", "6"],
    "crossover-map": ["crossover-map", "--n", "0", "--alpha", "0.1",
                      "--map-r", "0.1,0.5,1,2,10", "--map-theta", "0,1,10,100"],
}

# The settings each command does not read, and argv that sets each one.
UNREAD_SETTINGS = {
    "coeffs": ["--n", "--tau-min", "--tau-max", "--tau-points", "--log/--linear"],
    "scan": ["--t-max", "--points"],
    "fig1": ["--r", "--theta", "--n", "--t-max", "--points"],
    "ion": ["--tau-min", "--tau-max", "--tau-points", "--log/--linear", "--t-max", "--points",
            "--format"],
    "crossover-map": ["--r", "--theta", "--log/--linear", "--t-max", "--points"],
}
SETTING_ARGV = {
    "--r": [["--r", "0.5"]],
    "--theta": [["--theta", "1"]],
    "--n": [["--n", "1"]],
    "--tau-min": [["--tau-min", "0.01"]],
    "--tau-max": [["--tau-max", "10"]],
    "--tau-points": [["--tau-points", "8"]],
    "--log/--linear": [["--log"], ["--linear"]],
    "--t-max": [["--t-max", "3"]],
    "--points": [["--points", "5"]],
    "--format": [["--format", "json"]],
}
COMMAND_ARGV = {"ion": ["ion", "--tau", "0.25", "--N", "3"]}
# Each settings flag: its RunConfig section and field, argv text (None for a
# switch) and the value it sets, of the default's type.
FLAG_FIELD = {
    "--r": ("params", "r", "0.5", 0.5),
    "--theta": ("params", "theta", "2", 2.0),
    "--alpha": ("params", "alpha", "0.2", 0.2),
    "--omega0": ("params", "omega0", "2", 2.0),
    "--tau-min": ("grids", "tau_min", "1e-2", 0.01),
    "--tau-max": ("grids", "tau_max", "10", 10.0),
    "--tau-points": ("grids", "tau_points", "8", 8),
    "--log": ("grids", "log_spaced", None, True),
    "--linear": ("grids", "log_spaced", None, False),
    "--t-max": ("grids", "t_max", "3", 3.0),
    "--points": ("grids", "t_points", "5", 5),
    "--map-r": ("grids", "map_r", "0.5,2", [0.5, 2.0]),
    "--map-theta": ("grids", "map_theta", "0,1", [0.0, 1.0]),
    "--format": ("output", "format", "json", "json"),
    "--out": ("output", "directory", "new", "new"),
}
# The flags that are command inputs, not RunConfig fields.
INPUT_FLAGS = {"-h", "--help", "--n", "--tau", "--N"}


def _settings_flags():
    """(command, flag) for every settings flag of every command, from the parser."""
    subparsers = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return [(name, flag) for name, sub in subparsers.choices.items()
            for action in sub._actions for flag in action.option_strings
            if flag not in INPUT_FLAGS]


def run(argv):
    return main(argv)


def test_readme_exit_codes_match_the_cli():
    sentence = (ROOT / "README.md").read_text().split("Exit codes:")[1].split("\n\n")[0]
    documented = {int(code) for code in re.findall(r"`(\d+)`", sentence)}
    assert documented == {v for k, v in vars(cli).items() if k.startswith("EXIT_")}


def test_readme_flag_table_matches_the_parser():
    section = (ROOT / "README.md").read_text().split("## Command-line interface")[1]
    section = section.split("\n## ")[0]
    rows = re.findall(r"^\| `([\w-]+)` \|(.*)\|$", section, flags=re.M)
    table = {command: set(re.findall(r"`(-[\w-]+)`", cells)) for command, cells in rows}
    subparsers = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    parsed = {
        name: {s for action in sub._actions for s in action.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert table == parsed


def test_main_builds_the_parser_once_per_process(tmp_path, monkeypatch, capsys):
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    try:
        # Each run stops at a flag's config error, before any output.
        assert run(["scan", "--r", "-1", "--out", str(tmp_path)]) == 2
        first = len(built)
        assert first and built.count("qbmzeno") == 1
        assert run(["coeffs", "--alpha", "inf", "--out", str(tmp_path)]) == 2
        assert len(built) == first
    finally:
        cli.build_parser.cache_clear()
    assert capsys.readouterr().err.count("config error: ") == 2
    assert not list(tmp_path.iterdir())


def test_a_cached_parser_carries_nothing_from_one_run_to_the_next(tmp_path):
    assert run(["crossover-map", "--n", "3", "--alpha", "0.2", "--map-r", "0.5",
                "--map-theta", "100", "--tau-points", "8", "--out", str(tmp_path / "map")]) == 0
    argv = ["scan", "--out", str(tmp_path)]
    args = cli.build_parser().parse_args(argv)
    # The namespace names exactly what scan reads, every setting unset but --out.
    assert vars(args) == {
        "command": "scan", "n": 0, "directory": str(tmp_path),
        **dict.fromkeys(["r", "theta", "alpha", "omega0", "tau_min", "tau_max",
                         "tau_points", "log_spaced", "format"]),
    }
    assert cli._merge_config(args) == cli.RunConfig(
        output=cli.OutputConfig(directory=str(tmp_path)))
    cli.build_parser.cache_clear()
    assert cli.build_parser().parse_args(argv) == args


@pytest.mark.parametrize("argv", README_COMMANDS.values(), ids=README_COMMANDS.keys())
def test_readme_command_runs_clean_with_warnings_as_errors(argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "qbmzeno.cli", *argv, "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


class TestCoeffs:
    def test_table_shape_and_zero_row(self, tmp_path):
        code = run([
            "coeffs", "--r", "0.5", "--theta", "100", "--alpha", "0.1",
            "--t-max", "3", "--points", "12", "--out", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "coefficients.csv").read_text().splitlines()
        assert lines[0] == "t,delta,gamma,int_delta,int_gamma"
        assert len(lines) == 13
        assert all(float(v) == 0.0 for v in lines[1].split(","))
        limits = json.loads((tmp_path / "markovian_limits.json").read_text())
        assert limits["gamma_m"] == pytest.approx(0.001, rel=1e-9)

    def test_damping_column_is_temperature_free(self, tmp_path):
        args = ["coeffs", "--r", "0.5", "--alpha", "0.1", "--t-max", "2", "--points", "8"]
        run(args + ["--theta", "0", "--out", str(tmp_path / "cold")])
        run(args + ["--theta", "100", "--out", str(tmp_path / "hot")])
        cold = (tmp_path / "cold" / "coefficients.csv").read_text().splitlines()
        hot = (tmp_path / "hot" / "coefficients.csv").read_text().splitlines()
        for row_c, row_h in zip(cold[1:], hot[1:]):
            assert row_c.split(",")[2] == row_h.split(",")[2]


class TestScan:
    def test_crossover_reported(self, tmp_path):
        code = run([
            "scan", "--n", "0", "--theta", "100", "--r", "0.5", "--alpha", "0.1",
            *FAST_SCAN, "--out", str(tmp_path),
        ])
        assert code == 0
        meta = json.loads((tmp_path / "zeno_scan.json").read_text())
        assert meta["crossovers"]
        assert meta["regime"] == "mixed"
        header = (tmp_path / "zeno_scan.csv").read_text().splitlines()[0]
        assert header == "tau,rate_z,ratio,regime"

    def test_degenerate_exit_code(self, tmp_path):
        code = run([
            "scan", "--n", "0", "--theta", "0", "--r", "0.5", "--alpha", "0.1",
            "--tau-points", "12", "--out", str(tmp_path),
        ])
        assert code == 4
        meta = json.loads((tmp_path / "zeno_scan.json").read_text())
        assert meta["regime"] == "AZE-divergent"
        assert (tmp_path / "zeno_scan.csv").exists()

    @pytest.mark.parametrize("bath, code, regime", [
        (["--r", "1e-4", "--theta", "0.1"], 0, "mixed"),
        (["--r", "1e-6", "--theta", "1"], 0, "mixed"),
        (["--theta", "0", "--n", "0"], 4, "AZE-divergent"),
    ], ids=["r-1e-4-theta-0.1", "r-1e-6-theta-1", "theta-0-n-0"])
    def test_degeneracy_is_free_of_the_rate_scale(self, bath, code, regime, tmp_path):
        # The Markovian rate goes like J(omega0) ~ r^2; only a cancellation
        # of its two terms, exact at theta = 0, n = 0, makes it degenerate.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["scan", *bath, "--alpha", "0.1", "--tau-points", "12",
                        "--out", str(tmp_path)]) == code
        assert json.loads((tmp_path / "zeno_scan.json").read_text())["regime"] == regime
        ratio = np.loadtxt(tmp_path / "zeno_scan.csv", delimiter=",", skiprows=1, usecols=2)
        assert np.all(np.isfinite(ratio) if code == 0 else np.isinf(ratio))

    def test_cold_excited_wide_bath_has_crossover(self, tmp_path):
        code = run([
            "scan", "--n", "50", "--theta", "0", "--r", "10", "--alpha", "0.1",
            *FAST_SCAN, "--out", str(tmp_path),
        ])
        assert code == 0
        meta = json.loads((tmp_path / "zeno_scan.json").read_text())
        assert meta["crossovers"]

    def test_linear_grids_are_linspace(self, tmp_path):
        # scan and fig1 tabulate np.linspace(tau_min, tau_max, points) as
        # their tau column, bit for bit (17 significant digits round-trip).
        grid = ["--tau-min", "0.01", "--tau-max", "10", "--tau-points", "7", "--linear"]
        want = np.linspace(0.01, 10.0, 7)
        assert run(["scan", *HOT, *grid, "--format", "csv", "--out", str(tmp_path)]) == 0
        assert run(["fig1", "--alpha", "0.1", *grid, "--format", "csv", "--out", str(tmp_path)]) == 0
        for name in ("zeno_scan", "fig1a", "fig1b", "fig1c", "fig1d"):
            lines = (tmp_path / f"{name}.csv").read_text().splitlines()[1:]
            taus = np.array([float(line.split(",")[0]) for line in lines])
            assert np.array_equal(taus, want), name

    def test_deterministic_output(self, tmp_path):
        args = [
            "scan", "--n", "0", "--theta", "100", "--r", "0.5", "--alpha", "0.1",
            "--tau-min", "0.01", "--tau-max", "10", "--tau-points", "10",
        ]
        run(args + ["--out", str(tmp_path / "a")])
        run(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "zeno_scan.csv").read_bytes() == (
            tmp_path / "b" / "zeno_scan.csv"
        ).read_bytes()


@pytest.fixture(scope="module")
def fig1_run(tmp_path_factory):
    """The fig1 output directory, the calls of batched rates (each a list of
    the tau grid of every cell it holds) and the tau of every per-point rate call."""
    out = tmp_path_factory.mktemp("fig1")
    rates, rate = zeno._rates, zeno.effective_decay_rate
    calls, points = [], []

    def counted_rates(cells, n, taus, index):
        calls.append([taus[index == c].tolist() for c in range(len(cells))])
        return rates(cells, n, taus, index)

    def counted_rate(*args, **kwargs):
        points.append(args[3])
        return rate(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zeno, "_rates", counted_rates)
        mp.setattr(zeno, "effective_decay_rate", counted_rate)
        code = run([
            "fig1", "--alpha", "0.1", "--tau-points", "30", "--out", str(out),
        ])
    assert code == 0
    return out, calls, points


@pytest.fixture(scope="module")
def fig1_dir(fig1_run):
    return fig1_run[0]


class TestFig1:
    @staticmethod
    def _columns(path):
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        return header, data

    def test_a_late_panel_failure_writes_nothing(self, tmp_path, monkeypatch):
        # Every panel is computed before the first is written.
        rate = zeno.markovian_decay_rate

        def cold_overflows(params, model, n):
            if params.theta == 0.0:
                raise OverflowError("the Markovian rate overflows a double")
            return rate(params, model, n)

        monkeypatch.setattr(zeno, "markovian_decay_rate", cold_overflows)
        assert run(["fig1", "--alpha", "0.1", "--tau-points", "16", "--out", str(tmp_path)]) == 2
        assert not list(tmp_path.iterdir())

    def test_ratio_panels_make_one_rate_per_cell(self, fig1_run):
        # Two ratio panels x three r values, one grid of 30 taus each, all
        # in one batched call: 180 rates, and no per-point rate (no
        # crossover refine).
        _, calls, points = fig1_run
        assert len(calls) == 1
        assert [len(grid) for grid in calls[0]] == [30] * 6
        assert sum(len(grid) for grid in calls[0]) == 180
        assert points == []

    def test_manifest_lists_all_panels(self, fig1_dir):
        manifest = json.loads((fig1_dir / "fig1_manifest.json").read_text())
        assert [p["name"] for p in manifest["panels"]] == ["fig1a", "fig1b", "fig1c", "fig1d"]

    def test_panel_a_regime_structure(self, fig1_dir):
        header, data = self._columns(fig1_dir / "fig1a.csv")
        assert header == ["tau", "r=0.5", "r=1", "r=10"]
        assert data[:, 1].max() > 1.0  # narrow bath crosses into AZE
        assert np.all(data[:, 3] <= 1.0)  # wide bath stays QZE

    def test_panel_b_jolt_curves(self, fig1_dir):
        # Narrow bath overshoots its Markovian diffusion value on the way
        # in; the wide bath approaches it from below.
        _, data = self._columns(fig1_dir / "fig1b.csv")
        assert data[:, 1].max() > 1.0
        assert data[:, 3].max() <= 1.02

    def test_panel_c_cold_crossover(self, fig1_dir):
        _, data = self._columns(fig1_dir / "fig1c.csv")
        assert data[:, 3].max() > 1.0  # r=10 crosses at zero temperature

    def test_panel_d_initial_jolt(self, fig1_dir):
        _, data = self._columns(fig1_dir / "fig1d.csv")
        early = data[data[:, 0] <= 0.5]
        assert early[:, 3].max() > 1.0  # jolt in Delta(t)/Delta_M for r=10


class TestIon:
    def test_single_period_matches_free_decay(self, tmp_path):
        code = run([
            "ion", "--n", "0", "--theta", "100", "--r", "0.5", "--alpha", "0.1",
            "--tau", "0.25", "--N", "1", "--out", str(tmp_path),
        ])
        assert code == 0
        verdict = json.loads((tmp_path / "ion_verdict.json").read_text())
        assert abs(verdict["shuttered_final"] - verdict["unshuttered_final"]) <= 1e-12

    def test_zeno_verdict(self, tmp_path):
        run([
            "ion", "--n", "0", "--theta", "100", "--r", "0.5", "--alpha", "0.1",
            "--tau", "0.25", "--N", "6", "--out", str(tmp_path),
        ])
        verdict = json.loads((tmp_path / "ion_verdict.json").read_text())
        assert verdict["verdict"] == "QZE"
        lines = (tmp_path / "ion_comparison.csv").read_text().splitlines()
        assert lines[0] == "t,shuttered,unshuttered"
        assert len(lines) == 8
        summary = json.loads((tmp_path / "ion_trace_summary.json").read_text())
        assert summary["regime"] == "QZE"

    def test_anti_zeno_verdict(self, tmp_path):
        run([
            "ion", "--n", "0", "--theta", "100", "--r", "0.5", "--alpha", "0.1",
            "--tau", "1.5", "--N", "3", "--out", str(tmp_path),
        ])
        verdict = json.loads((tmp_path / "ion_verdict.json").read_text())
        assert verdict["verdict"] == "AZE"

    def test_perturbative_breakdown_exit_code(self, tmp_path):
        code = run([
            "ion", "--n", "0", "--theta", "100", "--r", "0.5", "--alpha", "0.1",
            "--tau", "2.5", "--N", "2", "--out", str(tmp_path),
        ])
        assert code == 5
        assert not list(tmp_path.glob("ion_*"))  # no partial files


class TestCrossoverMap:
    def test_high_temperature_row_structure(self, tmp_path):
        code = run([
            "crossover-map", "--n", "0", "--alpha", "0.1",
            "--map-r", "0.5,10", "--map-theta", "100",
            "--tau-points", "40", "--out", str(tmp_path),
        ])
        assert code == 0
        rows = (tmp_path / "crossover_map.csv").read_text().splitlines()
        assert rows[0] == "r\\theta,100"
        cells = {line.split(",")[0]: line.split(",")[1] for line in rows[1:]}
        assert float(cells["0.5"]) > 0.0
        assert cells["10"] == "none"

    def test_n_beyond_int64_is_find_crossover_time_per_cell(self, tmp_path):
        # 2n+1 of n = 10**20 fits no int64; each cell is still the smallest
        # root that find_crossover_time gives on the same 24-point grid.
        n = 10**20
        assert run([
            "crossover-map", "--n", str(n), "--alpha", "0.1", "--map-r", "0.1,1",
            "--map-theta", "1,100", "--tau-min", "1e-3", "--tau-max", "100",
            "--tau-points", "24", "--out", str(tmp_path),
        ]) == 0
        rows = (tmp_path / "crossover_map.csv").read_text().splitlines()
        cells = [cell for row in rows[1:] for cell in row.split(",")[1:]]
        want = []
        for r in (0.1, 1.0):
            for theta in (1.0, 100.0):
                params = ReservoirParams(r=r, theta=theta, alpha=0.1)
                stars = zeno.find_crossover_time(params, params.spectral_model(), n,
                                                 (1e-3, 100.0), 24)
                want.append(format(min(stars), ".16e") if stars else "none")
        assert cells == want
        assert "none" in cells and len(set(cells)) == 4

    def test_degenerate_cells_flagged(self, tmp_path):
        run([
            "crossover-map", "--n", "0", "--alpha", "0.1",
            "--map-r", "0.5", "--map-theta", "0",
            "--tau-points", "24", "--out", str(tmp_path),
        ])
        rows = (tmp_path / "crossover_map.csv").read_text().splitlines()
        assert rows[1].split(",")[1] == "divergent"

    def test_alpha_invariance(self, tmp_path):
        args = [
            "crossover-map", "--n", "0", "--map-r", "0.5,10", "--map-theta", "100",
            "--tau-points", "40",
        ]
        run(args + ["--alpha", "0.05", "--out", str(tmp_path / "lo")])
        run(args + ["--alpha", "0.2", "--out", str(tmp_path / "hi")])
        lo = (tmp_path / "lo" / "crossover_map.csv").read_text().splitlines()
        hi = (tmp_path / "hi" / "crossover_map.csv").read_text().splitlines()
        for row_lo, row_hi in zip(lo[1:], hi[1:]):
            for cell_lo, cell_hi in zip(row_lo.split(",")[1:], row_hi.split(",")[1:]):
                try:
                    a, b = float(cell_lo), float(cell_hi)
                    assert abs(a - b) <= 1e-10 * abs(a)
                except ValueError:
                    assert cell_lo == cell_hi


    def test_readme_map_refines_roots_in_few_rate_calls(self, tmp_path, monkeypatch):
        # The README grid at benchmark size: the 24 taus of every cell that
        # is not divergent (15 at n = 0, 20 at n = 50) are one closed-form
        # pass, and the Brent-Dekker steps of all their roots (11 and 13)
        # run in lock step, one pass per round with a row per live bracket.
        # No cell goes through coefficients._pairs on its own.
        pair, sizes = _matsubara.pair, []

        def counted_pair(wc, theta, t, power):
            sizes[-1].append(len(t))
            return pair(wc, theta, t, power)

        def refuse(*args, **kwargs):
            raise AssertionError("a map cell took coefficients._pairs on its own")

        monkeypatch.setattr(_matsubara, "pair", counted_pair)
        monkeypatch.setattr(coefficients, "_pairs", refuse)
        for n in ("0", "50"):
            sizes.append([])
            assert run([
                "crossover-map", "--n", n, "--alpha", "0.1", "--map-r", "0.1,0.5,1,2,10",
                "--map-theta", "0,1,10,100", "--tau-min", "1e-3", "--tau-max", "100",
                "--tau-points", "24", "--out", str(tmp_path / n),
            ]) == 0
        (grid0, *rounds0), (grid50, *rounds50) = sizes
        assert (grid0, grid50) == (15 * 24, 20 * 24)
        assert (len(rounds0), len(rounds50)) == (9, 10)
        assert (max(rounds0), max(rounds50)) == (11, 13)
        # One row per Brent-Dekker step: the traced zeno.root_steps.
        assert sum(rounds0) + sum(rounds50) == 151

    def test_readme_map_cells_do_not_depend_on_the_order_of_r_and_theta(self, tmp_path):
        # The benchmark hands --map-r and --map-theta over in an order its
        # seed shuffles.  Under every order below, in one process, the
        # README grid exits 0 at n = 0 and n = 50 and gives each (r, theta)
        # the same cell.
        r_values, theta_values = ["0.1", "0.5", "1", "2", "10"], ["0", "1", "10", "100"]
        orders = [
            (r_values, theta_values),
            (r_values[::-1], theta_values[::-1]),
            ([r_values[i] for i in (2, 0, 4, 1, 3)], [theta_values[i] for i in (3, 1, 0, 2)]),
            ([r_values[i] for i in (4, 2, 3, 0, 1)], [theta_values[i] for i in (1, 3, 2, 0)]),
            ([r_values[i] for i in (1, 3, 0, 2, 4)], [theta_values[i] for i in (2, 0, 3, 1)]),
        ]
        for n in ("0", "50"):
            maps = []
            for i, (rs, thetas) in enumerate(orders):
                out = tmp_path / f"n{n}-{i}"
                assert run([
                    "crossover-map", "--n", n, "--alpha", "0.1", "--map-r", ",".join(rs),
                    "--map-theta", ",".join(thetas), "--tau-min", "1e-3", "--tau-max", "100",
                    "--tau-points", "24", "--out", str(out),
                ]) == 0
                payload = json.loads((out / "crossover_map.json").read_text())
                maps.append({
                    (r, theta): cell
                    for r, row in zip(payload["r"], payload["smallest_crossover"], strict=True)
                    for theta, cell in zip(payload["theta"], row, strict=True)
                })
            assert len(maps[0]) == 20
            assert all(cells == maps[0] for cells in maps[1:]), n

    def test_readme_map_makes_few_adaptive_integrals(self, tmp_path, monkeypatch):
        # Every cell is the Lorentz-Drude bath, closed form at every
        # theta and tau: no adaptive integral at all.
        adaptive, calls = numerics.integrate_adaptive, []

        def counted(*args, **kwargs):
            calls.append(1)
            return adaptive(*args, **kwargs)

        monkeypatch.setattr(numerics, "integrate_adaptive", counted)
        for n in ("0", "50"):
            assert run([
                "crossover-map", "--n", n, "--alpha", "0.1", "--map-r", "0.1,0.5,1,2,10",
                "--map-theta", "0,1,10,100", "--tau-min", "1e-3", "--tau-max", "100",
                "--tau-points", "24", "--out", str(tmp_path / n),
            ]) == 0
        assert len(calls) == 0

    def test_json_cells_are_numbers(self, tmp_path):
        code = run([
            "crossover-map", "--n", "0", "--alpha", "0.1",
            "--map-r", "0.5,10", "--map-theta", "0,100", "--tau-points", "16",
            "--out", str(tmp_path),
        ])
        assert code == 0
        rows = (tmp_path / "crossover_map.csv").read_text().splitlines()
        csv_cells = [line.split(",")[1:] for line in rows[1:]]
        json_cells = json.loads((tmp_path / "crossover_map.json").read_text())[
            "smallest_crossover"
        ]
        kinds = set()
        for csv_row, json_row in zip(csv_cells, json_cells, strict=True):
            for csv_cell, cell in zip(csv_row, json_row, strict=True):
                if isinstance(cell, str):
                    assert cell == csv_cell
                    kinds.add(cell)
                else:
                    assert type(cell) is float and cell == float(csv_cell)
                    kinds.add("number")
        assert kinds == {"number", "divergent", "none"}

    def test_programming_errors_propagate(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("a bug, not an input error")

        monkeypatch.setattr(zeno, "_crossover_map", broken)
        with pytest.raises(TypeError, match="a bug"):
            run([
                "crossover-map", "--n", "0", "--alpha", "0.1",
                "--map-r", "0.5", "--map-theta", "100", "--out", str(tmp_path),
            ])


class TestConfigHandling:
    def test_invalid_params_exit_code(self, tmp_path):
        assert run(["scan", "--r", "-1", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--map-r", "0"), ("--map-r", "-1"), ("--map-r", "nan"), ("--map-r", "0.5,inf"),
        ("--map-theta", "-1"), ("--map-theta", "nan"), ("--map-theta", "1,inf"),
    ])
    def test_bad_map_values_are_config_errors(self, flag, value, tmp_path, capsys):
        assert run(["crossover-map", f"{flag}={value}", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: " + flag[2:].replace("-", "_"))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["coeffs"], ["scan"], ["fig1"], ["ion", "--tau", "0.25", "--N", "3"], ["crossover-map"],
    ], ids=["coeffs", "scan", "fig1", "ion", "crossover-map"])
    def test_no_command_takes_jobs(self, argv, tmp_path):
        # Every command computes in this process.
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--jobs", "2", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, setting", [
        (command, setting) for command, settings in UNREAD_SETTINGS.items() for setting in settings
    ], ids=lambda value: value.replace("--", ""))
    def test_unread_settings_are_refused(self, command, setting, tmp_path, capsys):
        # Each command takes only the flags it reads.
        for argv in SETTING_ARGV[setting]:
            out = tmp_path / "out"
            with pytest.raises(SystemExit) as exc:
                run([*COMMAND_ARGV.get(command, [command]), *argv, "--out", str(out)])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {argv[0]}" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("command, flag", _settings_flags(),
                             ids=lambda value: value.replace("--", ""))
    def test_each_flag_sets_only_its_own_field(self, command, flag, tmp_path, monkeypatch):
        # The run's config is the defaults with this one field replaced,
        # by a value of the default's type (an integer text gives a float).
        monkeypatch.chdir(tmp_path)
        section, name, text, want = FLAG_FIELD[flag]
        argv = [*COMMAND_ARGV.get(command, [command]), flag, *([] if text is None else [text])]
        cfg = cli._merge_config(cli.build_parser().parse_args(argv))
        default = cli.RunConfig()
        assert cfg == dataclasses.replace(default, **{
            section: dataclasses.replace(getattr(default, section), **{name: want})})
        assert repr(getattr(getattr(cfg, section), name)) == repr(want)
        assert [p.name for p in tmp_path.iterdir()] == (["new"] if flag == "--out" else [])

    @pytest.mark.parametrize("command, flag, text", [
        ("scan", "--tau-points", "20.5"),
        ("coeffs", "--points", "20.5"),
        ("scan", "--n", "1.5"),
        ("ion", "--N", "2.5"),
        ("scan", "--r", "one"),
        ("coeffs", "--theta", ""),
        ("fig1", "--alpha", "0.1x"),
        ("ion", "--omega0", "1,2"),
        ("scan", "--tau-min", "1e-3s"),
        ("fig1", "--tau-max", "ten"),
        ("coeffs", "--t-max", "1/2"),
        ("ion", "--tau", "0.25s"),
        ("scan", "--format", "xml"),
        ("crossover-map", "--map-r", "0.5,a"),
        ("crossover-map", "--map-theta", "1;2"),
        ("crossover-map", "--map-r", ""),
    ], ids=lambda value: value.replace("--", "") or "empty")
    def test_flag_values_that_do_not_parse_are_refused(self, command, flag, text, tmp_path,
                                                       capsys):
        # argparse refuses the value (exit 2) before any config is built.
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run([*COMMAND_ARGV.get(command, [command]), flag, text, "--out", str(out)])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["ion", "--tau", "0.25", "--N", "0"],
        ["ion", "--tau", "-1", "--N", "3"],
        ["scan", "--n", "-1"],
        ["ion", "--n", "-1", "--tau", "0.25", "--N", "3"],
        ["scan", "--r=inf"],
        ["scan", "--alpha=inf"],
        ["scan", "--omega0=inf"],
        ["scan", "--theta=nan"],
        ["ion", "--theta=nan", "--tau", "0.25", "--N", "3"],
        ["scan", "--tau-max=inf"],
        ["fig1", "--tau-max=inf"],
        ["crossover-map", "--tau-max=inf"],
        ["coeffs", "--t-max=inf"],
        ["ion", "--tau=inf", "--N", "3"],
    ], ids=["ion-N-0", "ion-tau-negative", "scan-n-negative", "ion-n-negative",
            "scan-r-inf", "scan-alpha-inf", "scan-omega0-inf", "scan-theta-nan", "ion-theta-nan",
            "scan-tau-max-inf", "fig1-tau-max-inf", "map-tau-max-inf", "coeffs-t-max-inf",
            "ion-tau-inf"])
    def test_invalid_command_inputs_are_config_errors(self, argv, tmp_path, capsys):
        assert run([*argv, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag, value, name", [
        ("--alpha", "1e200", "alpha"),
        ("--omega0", "1e-300", "omega0"),
        ("--r", "1e-300", "omega_c"),
        ("--omega0", "1e200", "omega0"),
        ("--alpha", "1e-160", "alpha"),
        ("--omega0", "1e-160", "omega0"),
        ("--r", "1e-155", "omega_c"),
    ])
    def test_out_of_range_squares_are_config_errors(self, flag, value, name, tmp_path, capsys):
        # Once an OverflowError traceback (alpha**2), or exit 0 with a NaN
        # ratio column and a RuntimeWarning (a frequency's square at 0 or
        # subnormal, or a subnormal alpha**2).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["scan", f"{flag}={value}", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {name} must have a finite nonzero square")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("strict", [True, False], ids=["W-error", "W-default"])
    @pytest.mark.parametrize("argv", [
        ["crossover-map", "--n", "0", "--alpha", "1e153", "--map-r", "0.5", "--map-theta", "10",
         "--tau-points", "24"],
        ["crossover-map", "--n", "0", "--alpha", "1e154", "--map-r", "0.5", "--map-theta", "10",
         "--tau-points", "24"],
        ["crossover-map", "--n", "0", "--alpha", "10", "--map-r", "0.5", "--map-theta", "1e306",
         "--tau-points", "24"],
        ["scan", "--n", "0", "--r", "0.5", "--theta", "10", "--alpha", "1e154"],
        ["coeffs", "--r", "0.5", "--theta", "100", "--alpha", "1e154", "--points", "4"],
        ["fig1", "--alpha", "1e154", "--tau-points", "16"],
        ["ion", "--n", "0", "--r", "0.5", "--theta", "100", "--alpha", "1e154", "--tau", "0.25",
         "--N", "3"],
        ["scan", "--n", "1" + "0" * 400],
        ["scan", "--omega0", "1e154", "--r", "1", "--theta", "1", "--tau-points", "4"],
    ], ids=["map-alpha-1e153", "map-alpha-1e154", "map-theta-1e306", "scan-alpha-1e154",
            "coeffs-alpha-1e154", "fig1-alpha-1e154", "ion-alpha-1e154", "scan-n-1e400",
            "scan-omega0-1e154"])
    def test_overflowing_inputs_are_config_errors(self, argv, strict, tmp_path, capsys):
        # Once an error cell (exit 3), a divergent cell or AZE-divergent
        # scan (exit 0 or 4), inf/nan tables (exit 0) or a traceback.
        with warnings.catch_warnings():
            warnings.simplefilter("error" if strict else "default")
            assert run([*argv, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not list(tmp_path.iterdir())

    def test_no_leftover_temp_files(self, tmp_path):
        run([
            "coeffs", "--r", "0.5", "--theta", "0", "--alpha", "0.1",
            "--t-max", "1", "--points", "4", "--out", str(tmp_path),
        ])
        assert not list(tmp_path.glob("*.tmp"))

    def test_format_csv_only(self, tmp_path):
        run([
            "scan", "--n", "0", "--theta", "100", "--r", "0.5", "--alpha", "0.1",
            "--tau-min", "0.1", "--tau-max", "2", "--tau-points", "6",
            "--format", "csv", "--out", str(tmp_path),
        ])
        assert (tmp_path / "zeno_scan.csv").exists()
        assert not (tmp_path / "zeno_scan_table.json").exists()
        assert (tmp_path / "zeno_scan.json").exists()  # metadata sidecar
