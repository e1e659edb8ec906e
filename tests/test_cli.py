import json

import numpy as np
import pytest

from qbmzeno import cli, zeno
from qbmzeno.cli import main
from qbmzeno.numerics import NonConvergenceError

FAST_SCAN = ["--tau-min", "1e-3", "--tau-max", "100", "--tau-points", "36", "--log"]


def run(argv):
    return main(argv)


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

    def test_cold_excited_wide_bath_has_crossover(self, tmp_path):
        code = run([
            "scan", "--n", "50", "--theta", "0", "--r", "10", "--alpha", "0.1",
            *FAST_SCAN, "--out", str(tmp_path),
        ])
        assert code == 0
        meta = json.loads((tmp_path / "zeno_scan.json").read_text())
        assert meta["crossovers"]

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

    def test_parallel_jobs_match_serial(self, tmp_path):
        args = [
            "scan", "--n", "0", "--theta", "100", "--r", "0.5", "--alpha", "0.1",
            "--tau-min", "0.01", "--tau-max", "10", "--tau-points", "8",
        ]
        run(args + ["--jobs", "1", "--out", str(tmp_path / "serial")])
        run(args + ["--jobs", "2", "--out", str(tmp_path / "parallel")])
        assert (tmp_path / "serial" / "zeno_scan.csv").read_bytes() == (
            tmp_path / "parallel" / "zeno_scan.csv"
        ).read_bytes()


@pytest.fixture(scope="module")
def fig1_run(tmp_path_factory):
    """The fig1 output directory and the tau of every effective-rate call."""
    out = tmp_path_factory.mktemp("fig1")
    rate = zeno.effective_decay_rate
    taus = []

    def counted(*args, **kwargs):
        taus.append(args[3])
        return rate(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zeno, "effective_decay_rate", counted)
        code = run([
            "fig1", "--alpha", "0.1", "--tau-points", "30", "--out", str(out),
        ])
    assert code == 0
    return out, taus


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

    def test_ratio_panels_make_one_rate_per_cell(self, fig1_run):
        # Two ratio panels x three r values x 30 taus, and no crossover refine.
        assert len(fig1_run[1]) == 180

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


    def test_parallel_jobs_match_serial(self, tmp_path):
        args = [
            "crossover-map", "--n", "0", "--alpha", "0.1",
            "--map-r", "0.5,10", "--map-theta", "0,100", "--tau-points", "16",
        ]
        assert run(args + ["--jobs", "1", "--out", str(tmp_path / "serial")]) == 0
        assert run(args + ["--jobs", "2", "--out", str(tmp_path / "parallel")]) == 0
        for name in ("crossover_map.csv", "crossover_map.json"):
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "parallel" / name
            ).read_bytes()

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

    def test_quadrature_failures_are_error_cells(self, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise NonConvergenceError("starved")

        monkeypatch.setattr(zeno, "find_crossover_time", failing)
        code = run([
            "crossover-map", "--n", "0", "--alpha", "0.1",
            "--map-r", "0.5,10", "--map-theta", "1,100", "--jobs", "1", "--out", str(tmp_path),
        ])
        assert code == 3
        rows = (tmp_path / "crossover_map.csv").read_text().splitlines()
        assert rows == ["r\\theta,1,100", "0.5,error,error", "10,error,error"]

    def test_programming_errors_propagate(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("a bug, not a quadrature failure")

        monkeypatch.setattr(zeno, "find_crossover_time", broken)
        with pytest.raises(TypeError, match="a bug"):
            run([
                "crossover-map", "--n", "0", "--alpha", "0.1",
                "--map-r", "0.5", "--map-theta", "100", "--jobs", "1", "--out", str(tmp_path),
            ])


class TestConfigHandling:
    def test_dump_config_round_trip(self, tmp_path, capsys):
        assert run(["scan", "--r", "2", "--theta", "5", "--alpha", "0.2",
                    "--out", str(tmp_path), "--dump-config"]) == 0
        dumped = capsys.readouterr().out
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(dumped)
        assert run(["scan", "--config", str(cfg_file), "--dump-config"]) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(dumped)

    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["scan", "--config", str(bad)]) == 2

    def test_quadrature_failure_exit_code(self, tmp_path, monkeypatch):
        # An exhausted subdivision budget must surface as exit 3.
        def starved(*args, **kwargs):
            raise NonConvergenceError("subdivision budget exhausted")

        monkeypatch.setattr(cli, "tabulate_coefficients", starved)
        code = run([
            "coeffs", "--r", "0.5", "--theta", "100", "--alpha", "0.1",
            "--t-max", "2", "--points", "4", "--out", str(tmp_path),
        ])
        assert code == 3
        assert not (tmp_path / "coefficients.csv").exists()

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

    def test_environment_output_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QBMZENO_OUT", str(tmp_path / "envdir"))
        code = run([
            "coeffs", "--r", "0.5", "--theta", "0", "--alpha", "0.1",
            "--t-max", "1", "--points", "4",
        ])
        assert code == 0
        assert (tmp_path / "envdir" / "coefficients.csv").exists()

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
