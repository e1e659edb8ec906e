"""Command-line driver: coefficient tables, Zeno scans, figure data, ion runs.

Subcommands
  coeffs         tabulate Delta(t), gamma(t) and their running integrals
  scan           effective decay rate and QZE/AZE ratio over a tau grid
  fig1           four-panel crossover curve families (ratio and jolt curves
                 at high and zero temperature)
  ion            shuttered versus un-shuttered survival comparison
  crossover-map  smallest crossover time over an (r, theta) grid

Exit codes: 0 ok, 2 config error (overflowing inputs too), 4 degenerate
Markovian rate (AZE-divergent), 5 perturbative breakdown.  Commands compute
before writing temp files renamed on success: failures leave no partial
files.  QBMZENO_OUT overrides a configured output directory, --out both.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dynamics, zeno
from ._table import json_columns, write_csv, write_json
from .coefficients import _cell_pairs, markovian_limits, tabulate_coefficients
from .errors import PerturbativeBreakdownError
from .spectral import ReservoirParams

__all__ = ["GridConfig", "OutputConfig", "RunConfig", "main"]

_ENV_OUT = "QBMZENO_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 4
EXIT_PERTURBATIVE = 5


def _number(value) -> float | None:
    """A JSON number as a float (an integer too), or None if it is not one or overflows."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:
        return None


def _config_value(field: str, kind: str, value):
    """A config file's ``value`` for a field declared as ``kind``, or ValueError naming the field.

    An int field takes an integer only (not true or false), a bool field
    true or false only, and a float field (and each entry of a
    list[float] one) any number that fits a double, as a float.
    """
    typed = value
    if kind == "float":
        typed, want = _number(value), "a number that fits a double"
        ok = typed is not None
    elif kind == "list[float]":
        typed = [_number(v) for v in value] if isinstance(value, list) else None
        want = "a list of numbers that fit a double"
        ok = typed is not None and None not in typed
    elif kind == "int":
        ok, want = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif kind == "bool":
        ok, want = isinstance(value, bool), "true or false"
    else:
        ok, want = isinstance(value, str), "a string"
    if not ok:
        raise ValueError(f"{field} must be {want}, got {json.dumps(value)}")
    return typed


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
        if not (0.0 < self.tau_min < self.tau_max < math.inf):
            raise ValueError(f"tau_min < tau_max must be finite and positive, "
                             f"got {self.tau_min} and {self.tau_max}")
        if not (0.0 < self.t_max < math.inf):
            raise ValueError(f"t_max must be finite and positive, got {self.t_max}")
        if self.tau_points < 2 or self.t_points < 2:
            raise ValueError("grids need at least 2 points")
        if not self.map_r or not all(0.0 < r < math.inf for r in self.map_r):
            raise ValueError(f"map_r must be nonempty, finite and positive, got {self.map_r}")
        if not self.map_theta or not all(0.0 <= t < math.inf for t in self.map_theta):
            raise ValueError(
                f"map_theta must be nonempty, finite and nonnegative, got {self.map_theta}")

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
    params: ReservoirParams = field(
        default_factory=lambda: ReservoirParams(r=1.0, theta=0.0, alpha=0.1))
    grids: GridConfig = field(default_factory=GridConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def to_dict(self, read) -> dict:
        """Each section's fields that are named in ``read``."""
        return {
            name: {k: v for k, v in dataclasses.asdict(section).items() if k in read}
            for name, section in vars(self).items()
        }

    @classmethod
    def from_dict(cls, data: dict, args: argparse.Namespace) -> "RunConfig":
        """The defaults overlaid by ``data``, then by the flags set in ``args``;
        ``data`` may set only the fields behind the flags of ``args.command``."""
        sections, read = dict(vars(cls())), vars(args)
        if not isinstance(data, dict):
            raise ValueError(f"a config file holds a JSON object, not {type(data).__name__}")
        unknown = sorted(set(data) - set(sections))
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        for name, default in sections.items():
            fields = {f.name for f in dataclasses.fields(default)} & set(read)
            given = data.get(name, {})
            if not isinstance(given, dict):
                raise ValueError(f"config section {name} must be a JSON object, "
                                 f"not {type(given).__name__}")
            unread = [key for key in given if key not in fields]
            if unread:
                raise ValueError(f"{name}.{unread[0]} is not read by {args.command}")
            kinds = {f.name: f.type for f in dataclasses.fields(default)}
            given = {key: _config_value(f"{name}.{key}", kinds[key], value)
                     for key, value in given.items()}
            flags = {key: read[key] for key in fields if read[key] is not None}
            sections[name] = dataclasses.replace(default, **{**given, **flags})
        return cls(**sections)


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
        write_csv(out / csv_name, header, columns)
        written.append(csv_name)
    if json_name is not None and fmt in ("json", "both"):
        write_json(out / json_name, json_columns(header, columns))
        written.append(json_name)
    return written


def _float_list(text: str) -> list[float]:
    """Comma-separated numbers, as ``--map-r`` and ``--map-theta`` take them."""
    return [float(v) for v in text.split(",")]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser: each command takes only the flags it reads.

    Every flag that sets a config value has that RunConfig field as its
    dest, so the parsed namespace names the fields a command reads.
    Built once per process and shared, so callers must not change it:
    ``parse_args`` leaves the parser as it was and makes a fresh
    namespace per call, so nothing carries over from one ``main`` call
    to the next.
    """
    bath = argparse.ArgumentParser(add_help=False)
    bath.add_argument("--r", type=float, help="cutoff ratio omega_c/omega0")
    bath.add_argument("--theta", type=float, help="dimensionless temperature k_B T/(hbar omega0)")
    coupling = argparse.ArgumentParser(add_help=False)
    coupling.add_argument("--alpha", type=float, help="dimensionless coupling")
    coupling.add_argument("--omega0", type=float, help="system frequency (default 1)")
    state = argparse.ArgumentParser(add_help=False)
    state.add_argument("--n", type=int, default=0, help="initial Fock index (default 0)")
    tau_grid = argparse.ArgumentParser(add_help=False)
    tau_grid.add_argument("--tau-min", type=float, help="smallest measurement interval")
    tau_grid.add_argument("--tau-max", type=float, help="largest measurement interval")
    tau_grid.add_argument("--tau-points", type=int, help="number of tau grid points")
    spacing = argparse.ArgumentParser(add_help=False)
    spacing.add_argument("--log", dest="log_spaced", action="store_true", default=None,
                         help="log-space the tau grid (default)")
    spacing.add_argument("--linear", dest="log_spaced", action="store_false",
                         help="linearly space the tau grid")
    t_grid = argparse.ArgumentParser(add_help=False)
    t_grid.add_argument("--t-max", type=float, help="coefficient tabulation horizon")
    t_grid.add_argument("--points", dest="t_points", type=int,
                        help="coefficient tabulation points")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("csv", "json", "both"), help="output format")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", dest="directory", metavar="DIR", help="output directory")
    output.add_argument("--config", type=str, help="JSON config file mirroring RunConfig")
    output.add_argument("--dump-config", action="store_true",
                        help="print the effective config as JSON and exit")

    parser = argparse.ArgumentParser(
        prog="qbmzeno",
        description="Zeno/anti-Zeno analysis of quantum Brownian motion",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("coeffs", parents=[bath, coupling, t_grid, fmt, output],
                   help="tabulate the diffusion/damping coefficients")
    sub.add_parser("scan", parents=[bath, coupling, state, tau_grid, spacing, fmt, output],
                   help="effective decay rate and ratio over a tau grid")
    sub.add_parser("fig1", parents=[coupling, tau_grid, spacing, fmt, output],
                   help="crossover curve families (four panels)")
    ion = sub.add_parser("ion", parents=[bath, coupling, state, output],
                         help="shuttered vs un-shuttered survival comparison")
    ion.add_argument("--tau", type=float, required=True, help="shuttering interval")
    ion.add_argument("--N", type=int, required=True, help="number of shuttering periods")
    mapper = sub.add_parser("crossover-map", parents=[coupling, state, tau_grid, fmt, output],
                            help="smallest crossover time over an (r, theta) grid")
    mapper.add_argument("--map-r", type=_float_list, help="comma-separated r values")
    mapper.add_argument("--map-theta", type=_float_list, help="comma-separated theta values")
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """The run's config; for a run that writes (not --dump-config), its output
    directory is made if missing and checked to be writable."""
    data = json.loads(Path(args.config).read_text()) if args.config else {}
    cfg = RunConfig.from_dict(data, args)
    if args.directory is None and os.environ.get(_ENV_OUT):
        cfg.output = dataclasses.replace(cfg.output, directory=os.environ[_ENV_OUT])
    if args.dump_config:
        return cfg

    out_dir = Path(cfg.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    if not os.access(out_dir, os.W_OK):
        raise ValueError(f"output directory {out_dir} is not writable")
    return cfg


def _check_command_inputs(args: argparse.Namespace) -> None:
    """Reject a negative --n and, for ion, a --tau not finite and positive or a --N below 1."""
    if getattr(args, "n", 0) < 0:
        raise ValueError(f"--n must be nonnegative, got {args.n}")
    if args.command == "ion":
        if not (0.0 < args.tau < math.inf):
            raise ValueError(f"--tau must be finite and positive, got {args.tau}")
        if args.N < 1:
            raise ValueError(f"--N must be at least 1, got {args.N}")


def cmd_coeffs(cfg: RunConfig) -> int:
    params, model = cfg.params, cfg.params.spectral_model()
    series = tabulate_coefficients(params, model, cfg.grids.t_max, cfg.grids.t_points)
    lim = markovian_limits(params, model)
    out = Path(cfg.output.directory)
    _write_table(out, "coefficients.csv", "coefficients_table.json", *series.table(),
                 cfg.output.format)
    write_json(out / "markovian_limits.json", {"delta_m": lim.delta_m, "gamma_m": lim.gamma_m})
    return EXIT_OK


def cmd_scan(cfg: RunConfig, n: int) -> int:
    params, model = cfg.params, cfg.params.spectral_model()
    scan = zeno.zeno_scan(params, model, n, cfg.grids.tau_grid())
    out = Path(cfg.output.directory)
    _write_table(out, "zeno_scan.csv", "zeno_scan_table.json", *scan.table(), cfg.output.format)
    write_json(out / "zeno_scan.json", scan.metadata())
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


def _fig1_columns(columns: list, taus: np.ndarray, quantity: str) -> list[np.ndarray]:
    """The fig1 columns of one quantity, each a (params, model, n) on the grid ``taus``.

    All columns are one ``zeno._rates`` call for the ratio and one
    ``coefficients._cell_pairs`` call for the jolt, a closed-form pass
    each for the Lorentz-Drude bath; a column that overflows raises.
    Each column is what its own grid pass gives, bit for bit.
    """
    points = [(params, model) for params, model, _ in columns]
    index = np.repeat(np.arange(len(columns)), len(taus))
    times = np.tile(taus, len(columns))
    if quantity == "ratio":
        scale = [zeno.markovian_decay_rate(params, model, n) for params, model, n in columns]
        values = zeno._rates(points, [n for *_, n in columns], times, index)
    else:
        scale = [markovian_limits(params, model).delta_m for params, model in points]
        values = _cell_pairs(points, times, index, "sinc")[0]
    return [column / s for column, s in zip(values.reshape(len(columns), -1), scale)]


def cmd_fig1(cfg: RunConfig) -> int:
    taus = cfg.grids.tau_grid()
    out = Path(cfg.output.directory)
    manifest = {"x_label": "tau (units of 1/omega0)", "panels": []}
    # One closed-form pass per quantity (no crossover is refined); every panel before any write.
    columns: dict[str, list] = {"ratio": [], "jolt": []}
    for _, theta, n, r_values, quantity, _ in _FIG1_PANELS:
        for r in r_values:
            params = ReservoirParams(r=r, theta=theta, alpha=cfg.params.alpha,
                                     omega0=cfg.params.omega0)
            columns[quantity].append((params, params.spectral_model(), n))
    values = {quantity: iter(_fig1_columns(found, taus, quantity))
              for quantity, found in columns.items()}
    tables = [[taus] + [next(values[quantity]) for _ in r_values]
              for _, _, _, r_values, quantity, _ in _FIG1_PANELS]
    for (name, theta, n, r_values, _, y_label), data in zip(_FIG1_PANELS, tables):
        header = ["tau"] + [f"r={r:g}" for r in r_values]
        files = _write_table(out, f"{name}.csv", f"{name}.json", header, data,
                             cfg.output.format)
        manifest["panels"].append({
            "name": name,
            "theta": theta,
            "n": n,
            "series": header[1:],
            "y_label": y_label,
            "files": files,
        })
    write_json(out / "fig1_manifest.json", manifest)
    return EXIT_OK


def cmd_ion(cfg: RunConfig, n: int, tau: float, n_measurements: int) -> int:
    params, model = cfg.params, cfg.params.spectral_model()
    comparison = dynamics.shuttered_comparison(params, model, n, tau, n_measurements)
    out = Path(cfg.output.directory)
    write_csv(out / "ion_comparison.csv", *comparison.table())
    write_csv(out / "ion_trace.csv", *comparison.trace.table())
    verdict = comparison.verdict.value
    write_json(out / "ion_verdict.json", {
        "n": n,
        "tau": tau,
        "N": n_measurements,
        "verdict": verdict,
        "shuttered_final": float(comparison.shuttered[-1]),
        "shuttered_ladder_final": float(comparison.shuttered_ladder[-1]),
        "unshuttered_final": float(comparison.unshuttered[-1]),
        "unshuttered_extrapolated": comparison.unshuttered_extrapolated,
    })
    write_json(out / "ion_trace_summary.json", comparison.trace.summary(verdict))
    return EXIT_OK


def cmd_crossover_map(cfg: RunConfig, n: int) -> int:
    grid = cfg.grids
    # Brackets come from a log grid of this many points.
    grid_points = max(16, min(grid.tau_points, 96))
    points = []
    for r in grid.map_r:
        for theta in grid.map_theta:
            params = ReservoirParams(r=r, theta=theta, alpha=cfg.params.alpha,
                                     omega0=cfg.params.omega0)
            points.append((params, params.spectral_model()))
    found = zeno._crossover_map(points, n, (grid.tau_min, grid.tau_max), grid_points)
    # The smallest crossover time, or "divergent" or "none".
    cells = ["divergent" if stars is None else min(stars) if stars else "none" for stars in found]
    width = len(grid.map_theta)
    rows = [cells[i:i + width] for i in range(0, len(cells), width)]
    header = ["r\\theta"] + [format(t, "g") for t in grid.map_theta]
    # Text columns: a crossover time is written as %.16e, like a numeric cell.
    text_rows = [[c if isinstance(c, str) else format(c, ".16e") for c in row] for row in rows]
    columns = [[format(r, "g") for r in grid.map_r], *zip(*text_rows)]
    out = Path(cfg.output.directory)
    _write_table(out, "crossover_map.csv", None, header, columns, cfg.output.format)
    if cfg.output.format in ("json", "both"):
        write_json(out / "crossover_map.json", {
            "n": n,
            "r": list(grid.map_r),
            "theta": list(grid.map_theta),
            "smallest_crossover": rows,
        })
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_command_inputs(args)
        cfg = _merge_config(args)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.dump_config:
        print(json.dumps(cfg.to_dict(vars(args)), indent=2))
        return EXIT_OK

    try:
        if args.command == "coeffs":
            return cmd_coeffs(cfg)
        if args.command == "scan":
            return cmd_scan(cfg, args.n)
        if args.command == "fig1":
            return cmd_fig1(cfg)
        if args.command == "ion":
            return cmd_ion(cfg, args.n, args.tau, args.N)
        if args.command == "crossover-map":
            return cmd_crossover_map(cfg, args.n)
    except PerturbativeBreakdownError as exc:
        print(f"perturbative breakdown: {exc}", file=sys.stderr)
        return EXIT_PERTURBATIVE
    except OverflowError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
