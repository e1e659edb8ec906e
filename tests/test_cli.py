import argparse
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
# The config fields each command does not read, and a valid value of each.
UNREAD_FIELDS = {
    "coeffs": ["grids.tau_min", "grids.tau_max", "grids.tau_points", "grids.log_spaced",
               "grids.map_r", "grids.map_theta"],
    "scan": ["grids.t_max", "grids.t_points", "grids.map_r", "grids.map_theta"],
    "fig1": ["params.r", "params.theta", "grids.t_max", "grids.t_points", "grids.map_r",
             "grids.map_theta"],
    "ion": ["grids.tau_min", "grids.tau_max", "grids.tau_points", "grids.log_spaced",
            "grids.t_max", "grids.t_points", "grids.map_r", "grids.map_theta", "output.format"],
    "crossover-map": ["params.r", "params.theta", "grids.log_spaced", "grids.t_max",
                      "grids.t_points"],
}
FIELD_VALUE = {
    "r": 0.5, "theta": 1.0, "tau_min": 0.01, "tau_max": 10.0, "tau_points": 8,
    "log_spaced": False, "t_max": 3.0, "t_points": 5, "map_r": [0.5], "map_theta": [1.0],
    "format": "json",
}
ALL_FIELDS = {
    *(f"params.{f}" for f in ("r", "theta", "alpha", "omega0")),
    *(f"grids.{f}" for f in ("tau_min", "tau_max", "tau_points", "log_spaced", "t_max",
                             "t_points", "map_r", "map_theta")),
    "output.directory", "output.format",
}


# Config values of the wrong type: (command, section, field, value, what the field takes).
WRONG_TYPES = [
    ("scan", "grids", "tau_points", 20.5, "an integer"),
    ("coeffs", "grids", "t_points", True, "an integer"),
    ("scan", "grids", "log_spaced", "no", "true or false"),
    ("fig1", "grids", "log_spaced", 0, "true or false"),
    ("crossover-map", "grids", "map_r", 1.0, "a list of numbers that fit a double"),
    ("crossover-map", "grids", "map_theta", [0, "1"], "a list of numbers that fit a double"),
    ("scan", "params", "r", "1", "a number that fits a double"),
    ("fig1", "params", "alpha", None, "a number that fits a double"),
    ("coeffs", "params", "theta", False, "a number that fits a double"),
    ("scan", "grids", "tau_max", 10**400, "a number that fits a double"),
    ("scan", "output", "format", 3, "a string"),
    ("coeffs", "output", "directory", ["out"], "a string"),
]


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
        assert run(["scan", "--dump-config"]) == 0
        first = len(built)
        assert first and built.count("qbmzeno") == 1
        assert run(["coeffs", "--dump-config", "--out", str(tmp_path)]) == 0
        assert len(built) == first
    finally:
        cli.build_parser.cache_clear()
    capsys.readouterr()


def test_a_cached_parser_carries_nothing_from_one_run_to_the_next(tmp_path, capsys):
    assert run(["crossover-map", "--n", "3", "--alpha", "0.1", "--map-r", "0.5",
                "--map-theta", "100", "--tau-points", "8", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert run(["scan", "--dump-config"]) == 0
    dumped = json.loads(capsys.readouterr().out)
    fields = {f"{section}.{key}" for section, values in dumped.items() for key in values}
    assert fields == ALL_FIELDS - set(UNREAD_FIELDS["scan"])
    assert dumped["grids"]["tau_points"] == cli.RunConfig().grids.tau_points
    cli.build_parser.cache_clear()
    assert run(["scan", "--dump-config"]) == 0
    assert json.loads(capsys.readouterr().out) == dumped


@pytest.mark.parametrize("argv", README_COMMANDS.values(), ids=README_COMMANDS.keys())
def test_readme_command_runs_clean_with_warnings_as_errors(argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("QBMZENO_OUT", None)
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
    @pytest.mark.parametrize("command", README_COMMANDS)
    def test_dump_config_round_trip(self, command, tmp_path, capsys):
        # The dump holds exactly the fields the command reads, and reads back.
        argv = README_COMMANDS[command]
        assert run([*argv, "--out", str(tmp_path), "--dump-config"]) == 0
        dumped = capsys.readouterr().out
        fields = {f"{section}.{key}" for section, values in json.loads(dumped).items()
                  for key in values}
        assert fields == ALL_FIELDS - set(UNREAD_FIELDS[command])
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(dumped)
        assert run([*COMMAND_ARGV.get(command, [command]), "--config", str(cfg_file),
                    "--dump-config"]) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(dumped)

    @pytest.mark.parametrize("command, field", [
        (command, field) for command, fields in UNREAD_FIELDS.items() for field in fields
    ], ids=lambda value: value.split(".")[-1])
    def test_unread_config_fields_are_refused(self, command, field, tmp_path, capsys):
        section, key = field.split(".")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({section: {key: FIELD_VALUE[key]}}))
        out = tmp_path / "out"
        assert run([*COMMAND_ARGV.get(command, [command]), "--config", str(cfg),
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {field} is not read by {command}\n"
        assert not out.exists()

    def test_config_section_overlays_the_defaults_field_by_field(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"params": {"alpha": 0.2}, "grids": {"tau_points": 8}}))
        assert run(["fig1", "--config", str(cfg), "--tau-max", "10", "--dump-config"]) == 0
        dumped = json.loads(capsys.readouterr().out)
        assert dumped["params"] == {"alpha": 0.2, "omega0": 1.0}
        assert dumped["grids"] == {"tau_min": 1e-3, "tau_max": 10.0, "tau_points": 8,
                                   "log_spaced": True}

    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["scan", "--config", str(bad)]) == 2

    def test_removed_quadrature_key_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps({
            "params": {"r": 0.5, "theta": 100.0, "alpha": 0.1},
            "quadrature": {"abs_tol": 1e-14},
        }))
        assert run(["coeffs", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "quadrature" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command, section, key, value, want", WRONG_TYPES, ids=[
        f"{command}-{section}.{key}-{type(value).__name__}"
        for command, section, key, value, _ in WRONG_TYPES])
    def test_config_values_of_the_wrong_type_are_config_errors(
            self, command, section, key, value, want, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        out = tmp_path / "out"
        assert run([*COMMAND_ARGV.get(command, [command]), "--config", str(cfg),
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {section}.{key} must be {want}, got {json.dumps(value)}\n")
        assert not out.exists()

    def test_integer_config_values_of_float_fields_are_floats(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"params": {"r": 2, "theta": 0},
                                   "grids": {"tau_min": 1, "tau_max": 10}}))
        assert run(["scan", "--config", str(cfg), "--dump-config"]) == 0
        dumped = json.loads(capsys.readouterr().out)
        assert [dumped["params"][k] for k in ("r", "theta")] == [2.0, 0.0]
        assert all(isinstance(dumped["grids"][k], float) for k in ("tau_min", "tau_max"))

    def test_empty_map_in_config_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "empty.json"
        cfg.write_text(json.dumps({"grids": {"map_r": []}}))
        assert run(["crossover-map", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: map_r")

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

    @pytest.mark.parametrize("content, message", [
        (["params"], "a config file holds a JSON object, not list"),
        ("params", "a config file holds a JSON object, not str"),
        (None, "a config file holds a JSON object, not NoneType"),
        ({"params": ["x"]}, "config section params must be a JSON object, not list"),
        ({"grids": 1}, "config section grids must be a JSON object, not int"),
        ({"output": None}, "config section output must be a JSON object, not NoneType"),
    ], ids=["list", "string", "null", "params-list", "grids-number", "output-null"])
    def test_config_that_is_not_an_object_is_a_config_error(self, content, message, tmp_path,
                                                            capsys):
        # Once an AttributeError traceback (a list), or "params.x is not
        # read by scan" for a section holding a list.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(content))
        out = tmp_path / "out"
        assert run(["scan", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_jobs_in_config_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "jobs.json"
        cfg.write_text(json.dumps({"jobs": 2}))
        out = tmp_path / "out"
        assert run(["crossover-map", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: unknown config key(s): jobs\n"
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

    def test_environment_output_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QBMZENO_OUT", str(tmp_path / "envdir"))
        code = run([
            "coeffs", "--r", "0.5", "--theta", "0", "--alpha", "0.1",
            "--t-max", "1", "--points", "4",
        ])
        assert code == 0
        assert (tmp_path / "envdir" / "coefficients.csv").exists()

    def test_dump_config_makes_no_output_directory(self, tmp_path, monkeypatch, capsys):
        # Nothing is written, so neither a new --out nor a new QBMZENO_OUT is made.
        out = tmp_path / "new"
        assert run(["scan", "--dump-config", "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["output"]["directory"] == str(out)
        assert not out.exists()
        monkeypatch.setenv("QBMZENO_OUT", str(tmp_path / "envdir"))
        assert run(["scan", "--dump-config"]) == 0
        assert json.loads(capsys.readouterr().out)["output"]["directory"] == str(
            tmp_path / "envdir")
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
