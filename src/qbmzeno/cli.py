"""Command-line driver: coefficient tables, Zeno scans, figure data, ion runs.

Subcommands
  coeffs         tabulate Delta(t), gamma(t) and their running integrals
  scan           effective decay rate and QZE/AZE ratio over a tau grid
  fig1           four-panel crossover curve families (ratio and jolt curves
                 at high and zero temperature)
  ion            shuttered versus un-shuttered survival comparison
  crossover-map  smallest crossover time over an (r, theta) grid

Exit codes: 0 ok, 2 config error, 3 quadrature failure, 4 degenerate
Markovian rate (AZE-divergent), 5 perturbative breakdown.  All outputs
are written to a temp file and renamed on success, so failures leave no
partial files.  The QBMZENO_OUT environment variable overrides the
configured output directory (an explicit --out flag wins over both).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dynamics, zeno
from ._table import csv_text, json_columns
from .coefficients import (
    diffusion_coefficient,
    markovian_limits,
    tabulate_coefficients,
)
from .errors import DegenerateDenominatorError, PerturbativeBreakdownError
from .numerics import QuadratureError, ordered_map
from .spectral import ReservoirParams

__all__ = ["GridConfig", "OutputConfig", "RunConfig", "main"]

_ENV_OUT = "QBMZENO_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_QUADRATURE = 3
EXIT_DEGENERATE = 4
EXIT_PERTURBATIVE = 5


@dataclass
class GridConfig:
    tau_min: float = 1e-3
    tau_max: float = 1e2
    tau_points: int = 200
    log_spaced: bool = True
    t_max: float = 30.0
    t_points: int = 300
    map_r: list[float] = field(default_factory=lambda: [0.1, 0.5, 1.0, 2.0, 10.0])
    map_theta: list[float] = field(default_factory=lambda: [0.0, 1.0, 10.0, 100.0])

    def __post_init__(self) -> None:
        if not (0.0 < self.tau_min < self.tau_max):
            raise ValueError("tau grid bounds must be positive and ordered")
        if not (self.t_max > 0.0):
            raise ValueError("t_max must be positive")
        if self.tau_points < 2 or self.t_points < 2:
            raise ValueError("grids need at least 2 points")

    def tau_grid(self) -> np.ndarray:
        if self.log_spaced:
            return np.geomspace(self.tau_min, self.tau_max, self.tau_points)
        return np.linspace(self.tau_min, self.tau_max, self.tau_points)


@dataclass
class OutputConfig:
    directory: str = "."
    format: str = "both"  # csv | json | both

    def __post_init__(self) -> None:
        if self.format not in ("csv", "json", "both"):
            raise ValueError("format must be csv, json or both")


@dataclass
class RunConfig:
    params: ReservoirParams
    grids: GridConfig
    output: OutputConfig
    jobs: int = 1

    def to_dict(self) -> dict:
        return {
            "params": dataclasses.asdict(self.params),
            "grids": dataclasses.asdict(self.grids),
            "output": dataclasses.asdict(self.output),
            "jobs": self.jobs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = sorted(set(data) - {"params", "grids", "output", "jobs"})
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        return cls(
            params=ReservoirParams(**data.get("params", {"r": 1.0, "theta": 0.0, "alpha": 0.1})),
            grids=GridConfig(**data.get("grids", {})),
            output=OutputConfig(**data.get("output", {})),
            jobs=int(data.get("jobs", 1)),
        )


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` to a temp file and rename it into place."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def _write_json(path: Path, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def _write_table(
    out: Path,
    csv_name: str,
    json_name: str | None,
    header: list[str],
    columns: list,
    fmt: str,
) -> list[str]:
    """Write one table as CSV and/or JSON (by ``fmt``); returns the files written.

    With ``json_name`` None the table gets no JSON form.
    """
    written = []
    if fmt in ("csv", "both"):
        _write_text(out / csv_name, csv_text(header, columns))
        written.append(csv_name)
    if json_name is not None and fmt in ("json", "both"):
        _write_json(out / json_name, json_columns(header, columns))
        written.append(json_name)
    return written


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--r", type=float, help="cutoff ratio omega_c/omega0")
    common.add_argument("--theta", type=float, help="dimensionless temperature k_B T/(hbar omega0)")
    common.add_argument("--alpha", type=float, help="dimensionless coupling")
    common.add_argument("--omega0", type=float, help="system frequency (default 1)")
    common.add_argument("--n", type=int, help="initial Fock index (default 0)")
    common.add_argument("--tau-min", type=float, help="smallest measurement interval")
    common.add_argument("--tau-max", type=float, help="largest measurement interval")
    common.add_argument("--tau-points", type=int, help="number of tau grid points")
    common.add_argument("--log", dest="log_spaced", action="store_true", default=None,
                        help="log-space the tau grid (default)")
    common.add_argument("--linear", dest="log_spaced", action="store_false",
                        help="linearly space the tau grid")
    common.add_argument("--t-max", type=float, help="coefficient tabulation horizon")
    common.add_argument("--points", type=int, help="coefficient tabulation points")
    common.add_argument("--out", type=str, help="output directory")
    common.add_argument("--format", choices=("csv", "json", "both"), help="output format")
    common.add_argument("--jobs", type=int, help="max concurrent grid evaluations")
    common.add_argument("--config", type=str, help="JSON config file mirroring RunConfig")
    common.add_argument("--dump-config", action="store_true",
                        help="print the effective config as JSON and exit")

    parser = argparse.ArgumentParser(
        prog="qbmzeno",
        description="Zeno/anti-Zeno analysis of quantum Brownian motion",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("coeffs", parents=[common],
                   help="tabulate the diffusion/damping coefficients")
    sub.add_parser("scan", parents=[common],
                   help="effective decay rate and ratio over a tau grid")
    sub.add_parser("fig1", parents=[common],
                   help="crossover curve families (four panels)")
    ion = sub.add_parser("ion", parents=[common],
                         help="shuttered vs un-shuttered survival comparison")
    ion.add_argument("--tau", type=float, required=True, help="shuttering interval")
    ion.add_argument("--N", type=int, required=True, help="number of shuttering periods")
    mapper = sub.add_parser("crossover-map", parents=[common],
                            help="smallest crossover time over an (r, theta) grid")
    mapper.add_argument("--map-r", type=str, help="comma-separated r values")
    mapper.add_argument("--map-theta", type=str, help="comma-separated theta values")
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if args.config:
        data = json.loads(Path(args.config).read_text())
    cfg = RunConfig.from_dict(data)

    params_kw = dataclasses.asdict(cfg.params)
    for flag, key in (("r", "r"), ("theta", "theta"), ("alpha", "alpha"), ("omega0", "omega0")):
        value = getattr(args, flag)
        if value is not None:
            params_kw[key] = value
    cfg.params = ReservoirParams(**params_kw)

    grids_kw = dataclasses.asdict(cfg.grids)
    for flag, key in (
        ("tau_min", "tau_min"), ("tau_max", "tau_max"), ("tau_points", "tau_points"),
        ("log_spaced", "log_spaced"), ("t_max", "t_max"), ("points", "t_points"),
    ):
        value = getattr(args, flag)
        if value is not None:
            grids_kw[key] = value
    for flag, key in (("map_r", "map_r"), ("map_theta", "map_theta")):
        value = getattr(args, flag, None)
        if value is not None:
            grids_kw[key] = [float(v) for v in value.split(",")]
    cfg.grids = GridConfig(**grids_kw)

    directory = cfg.output.directory
    if args.out is not None:
        directory = args.out
    elif os.environ.get(_ENV_OUT):
        directory = os.environ[_ENV_OUT]
    fmt = args.format if args.format is not None else cfg.output.format
    cfg.output = OutputConfig(directory=directory, format=fmt)
    if args.jobs is not None:
        cfg.jobs = args.jobs

    out_dir = Path(cfg.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    if not os.access(out_dir, os.W_OK):
        raise ValueError(f"output directory {out_dir} is not writable")
    return cfg


def cmd_coeffs(cfg: RunConfig) -> int:
    params, model = cfg.params, cfg.params.spectral_model()
    series = tabulate_coefficients(params, model, cfg.grids.t_max, cfg.grids.t_points,
                                   jobs=cfg.jobs)
    out = Path(cfg.output.directory)
    _write_table(out, "coefficients.csv", "coefficients_table.json", *series.table(),
                 cfg.output.format)
    lim = markovian_limits(params, model)
    _write_json(out / "markovian_limits.json", {"delta_m": lim.delta_m, "gamma_m": lim.gamma_m})
    return EXIT_OK


def cmd_scan(cfg: RunConfig, n: int) -> int:
    params, model = cfg.params, cfg.params.spectral_model()
    scan = zeno.zeno_scan(params, model, n, cfg.grids.tau_grid(), jobs=cfg.jobs)
    out = Path(cfg.output.directory)
    _write_table(out, "zeno_scan.csv", "zeno_scan_table.json", *scan.table(), cfg.output.format)
    _write_json(out / "zeno_scan.json", scan.metadata())
    if scan.degenerate:
        print("Markovian rate degenerate: AZE-divergent regime", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


_FIG1_PANELS = (
    # (name, theta, n, r values, quantity, y label)
    ("fig1a", 100.0, 0, (0.5, 1.0, 10.0), "ratio", "rate_z / markov_rate"),
    ("fig1b", 100.0, 0, (0.5, 1.0, 10.0), "jolt", "Delta(tau) / Delta_M"),
    ("fig1c", 0.0, 50, (0.1, 0.5, 10.0), "ratio", "rate_z / markov_rate"),
    ("fig1d", 0.0, 50, (0.1, 0.5, 10.0), "jolt", "Delta(tau) / Delta_M"),
)


def cmd_fig1(cfg: RunConfig) -> int:
    taus = cfg.grids.tau_grid()
    out = Path(cfg.output.directory)
    manifest = {"x_label": "tau (units of 1/omega0)", "panels": []}
    for name, theta, n, r_values, quantity, y_label in _FIG1_PANELS:
        header = ["tau"]
        columns: list[np.ndarray] = [taus]
        for r in r_values:
            params = ReservoirParams(r=r, theta=theta, alpha=cfg.params.alpha,
                                     omega0=cfg.params.omega0)
            model = params.spectral_model()
            if quantity == "ratio":
                # The rate grid alone: fig1 writes no crossover, so none is refined.
                tasks = [(params, model, n, float(tau), None) for tau in taus]
                rates = np.array(ordered_map(zeno._rate_task, tasks, cfg.jobs))
                columns.append(rates / zeno.markovian_decay_rate(params, model, n))
            else:
                lim = markovian_limits(params, model)
                values = np.array([
                    diffusion_coefficient(params, model, float(t)) for t in taus
                ]) / lim.delta_m
                columns.append(values)
            header.append(f"r={r:g}")
        files = _write_table(out, f"{name}.csv", f"{name}.json", header, columns,
                             cfg.output.format)
        manifest["panels"].append({
            "name": name,
            "theta": theta,
            "n": n,
            "series": header[1:],
            "y_label": y_label,
            "files": files,
        })
    _write_json(out / "fig1_manifest.json", manifest)
    return EXIT_OK


def cmd_ion(cfg: RunConfig, n: int, tau: float, n_measurements: int) -> int:
    params, model = cfg.params, cfg.params.spectral_model()
    comparison = dynamics.shuttered_comparison(params, model, n, tau, n_measurements)
    out = Path(cfg.output.directory)
    _write_table(out, "ion_comparison.csv", None, *comparison.table(), "csv")
    _write_table(out, "ion_trace.csv", None, *comparison.trace.table(), "csv")
    verdict = comparison.verdict.value
    _write_json(out / "ion_verdict.json", {
        "n": n,
        "tau": tau,
        "N": n_measurements,
        "verdict": verdict,
        "shuttered_final": float(comparison.shuttered[-1]),
        "shuttered_ladder_final": float(comparison.shuttered_ladder[-1]),
        "unshuttered_final": float(comparison.unshuttered[-1]),
        "unshuttered_extrapolated": comparison.unshuttered_extrapolated,
    })
    _write_json(out / "ion_trace_summary.json", comparison.trace.summary(verdict))
    return EXIT_OK


def _map_cell(args) -> float | str:
    """The smallest crossover time, or "divergent", "error" or "none"."""
    params, model, n, tau_range, grid_points = args
    try:
        stars = zeno.find_crossover_time(params, model, n, tau_range, grid_points)
    except DegenerateDenominatorError:
        return "divergent"
    except QuadratureError:
        return "error"
    if not stars:
        return "none"
    return min(stars)


def cmd_crossover_map(cfg: RunConfig, n: int) -> int:
    grid = cfg.grids
    tau_range = (grid.tau_min, grid.tau_max)
    grid_points = max(16, min(grid.tau_points, 96))
    tasks = []
    for r in grid.map_r:
        for theta in grid.map_theta:
            params = ReservoirParams(r=r, theta=theta, alpha=cfg.params.alpha,
                                     omega0=cfg.params.omega0)
            tasks.append((params, params.spectral_model(), n, tau_range, grid_points))
    cells = ordered_map(_map_cell, tasks, cfg.jobs)

    n_theta = len(grid.map_theta)
    rows = [cells[i * n_theta:(i + 1) * n_theta] for i in range(len(grid.map_r))]
    header = ["r\\theta"] + [format(t, "g") for t in grid.map_theta]
    # Text columns: a crossover time is written as %.16e, like a numeric cell.
    text_rows = [[c if isinstance(c, str) else format(c, ".16e") for c in row] for row in rows]
    columns = [[format(r, "g") for r in grid.map_r], *zip(*text_rows)]
    out = Path(cfg.output.directory)
    _write_table(out, "crossover_map.csv", None, header, columns, cfg.output.format)
    if cfg.output.format in ("json", "both"):
        _write_json(out / "crossover_map.json", {
            "n": n,
            "r": list(grid.map_r),
            "theta": list(grid.map_theta),
            "smallest_crossover": rows,
        })
    if all(cell == "error" for row in rows for cell in row):
        print("every grid point failed", file=sys.stderr)
        return EXIT_QUADRATURE
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.dump_config:
        print(json.dumps(cfg.to_dict(), indent=2))
        return EXIT_OK

    n = args.n if args.n is not None else 0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if args.command == "coeffs":
                return cmd_coeffs(cfg)
            if args.command == "scan":
                return cmd_scan(cfg, n)
            if args.command == "fig1":
                return cmd_fig1(cfg)
            if args.command == "ion":
                return cmd_ion(cfg, n, args.tau, args.N)
            if args.command == "crossover-map":
                return cmd_crossover_map(cfg, n)
    except DegenerateDenominatorError as exc:
        print(f"degenerate Markovian rate: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except PerturbativeBreakdownError as exc:
        print(f"perturbative breakdown: {exc}", file=sys.stderr)
        return EXIT_PERTURBATIVE
    except QuadratureError as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
