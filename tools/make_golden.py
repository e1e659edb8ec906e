#!/usr/bin/env python3
"""Regenerate the reference coefficient table used by the golden test.

The table is bit-compared in CI, so rerun this only when the quadrature
engine intentionally changes, and review the diff before committing.
Run with ``--check`` first: it tabulates afresh, prints the largest
relative change per column against the committed table and writes
nothing.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from qbmzeno.coefficients import tabulate_coefficients
from qbmzeno.spectral import ReservoirParams

TARGET = Path(__file__).resolve().parent.parent / "tests" / "data" / "golden_coefficients_theta100_r05.csv"
COLUMNS = ("t", "delta", "gamma", "int_delta", "int_gamma")


def fresh_series():
    params = ReservoirParams(r=0.5, theta=100.0, alpha=0.1)
    return tabulate_coefficients(params, params.spectral_model(), 30.0, 300)


def largest_relative_changes(series, path: Path) -> dict[str, float]:
    """Per column: max |new - old| / |old| over rows (rows where old = 0 compare absolutely)."""
    old = np.loadtxt(path, delimiter=",", skiprows=1)
    new = np.column_stack([getattr(series, "times" if c == "t" else c) for c in COLUMNS])
    if old.shape != new.shape:
        raise SystemExit(f"table shape changed: committed {old.shape}, fresh {new.shape}")
    scale = np.where(old == 0.0, 1.0, np.abs(old))
    return dict(zip(COLUMNS, np.max(np.abs(new - old) / scale, axis=0)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="print the largest relative change per column; write nothing")
    args = parser.parse_args(argv)
    series = fresh_series()
    if args.check:
        for column, change in largest_relative_changes(series, TARGET).items():
            print(f"{column:10s} {change:.3e}")
        return 0
    TARGET.parent.mkdir(parents=True, exist_ok=True)
    series.to_csv(TARGET)
    print(f"wrote {TARGET}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
