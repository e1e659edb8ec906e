#!/usr/bin/env python3
"""Compare two output trees written by ``tools/output_digest.py --keep``.

    python3 tools/output_digest.py --keep old/   # in one checkout
    python3 tools/output_digest.py --keep new/   # in the other
    python3 tools/compare_outputs.py old/ new/ --rel 1e-13

For every file of either tree it prints the largest relative change of
any numeric cell, |new - old| / |old| (absolute where old is 0), and the
number of cells whose kind changed between number and text.  CSV files
are compared cell by cell, JSON files leaf by leaf; ``inf``, ``-inf``
and ``nan`` count as numbers.  Exit codes that differ, files present in
one tree only and tables whose shape differs are printed too.  The exit
status is 1 if any change is above ``--rel``, any cell changed kind,
any exit code differs or any file or cell is missing; otherwise 0.
"""

import argparse
import json
import math
import sys
from pathlib import Path

EXIT_CODES = "exit_codes.txt"


def _number(cell):
    """The cell as a float, or None for text."""
    if isinstance(cell, bool):
        return None
    if isinstance(cell, (int, float)):
        return float(cell)
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _leaves(value, path=""):
    """(path, leaf) for every scalar of a JSON document."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}/{key}")
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaves(item, f"{path}/{index}")
    else:
        yield path, value


def _cells(path: Path) -> dict:
    """Every cell of a CSV or JSON file, keyed by its position."""
    text = path.read_text()
    if path.suffix == ".json":
        return dict(_leaves(json.loads(text)))
    return {
        (row, col): cell
        for row, line in enumerate(text.splitlines())
        for col, cell in enumerate(line.split(","))
    }


def _relative_change(old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if not (math.isfinite(old) and math.isfinite(new)):
        return math.inf
    return abs(new - old) / (abs(old) if old != 0.0 else 1.0)


def compare_file(old: Path, new: Path) -> tuple[float, int, int]:
    """(largest relative change, kind changes, cells in one file only)."""
    old_cells, new_cells = _cells(old), _cells(new)
    largest, kinds = 0.0, 0
    for key in old_cells.keys() & new_cells.keys():
        a, b = _number(old_cells[key]), _number(new_cells[key])
        if (a is None) != (b is None):
            kinds += 1
        elif a is not None:
            largest = max(largest, _relative_change(a, b))
    return largest, kinds, len(old_cells.keys() ^ new_cells.keys())


def _exit_codes(root: Path) -> dict:
    path = root / EXIT_CODES
    if not path.exists():
        return {}
    return dict(line.split() for line in path.read_text().splitlines() if line.strip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--rel", type=float, default=1e-13,
                        help="largest relative change allowed (default 1e-13)")
    args = parser.parse_args(argv)

    failed = False
    old_codes, new_codes = _exit_codes(args.old), _exit_codes(args.new)
    for name in sorted(old_codes.keys() | new_codes.keys()):
        a, b = old_codes.get(name), new_codes.get(name)
        if a != b:
            print(f"exit code {name}: {a} -> {b}")
            failed = True

    def files(root: Path) -> set:
        return {
            str(path.relative_to(root)) for path in root.rglob("*")
            if path.is_file() and path.name != EXIT_CODES
        }

    old_files, new_files = files(args.old), files(args.new)
    overall = 0.0
    for name in sorted(old_files | new_files):
        if name not in old_files or name not in new_files:
            print(f"{name}: only in {'new' if name in new_files else 'old'}")
            failed = True
            continue
        largest, kinds, unmatched = compare_file(args.old / name, args.new / name)
        overall = max(overall, largest)
        note = f"  kind changes {kinds}" if kinds else ""
        note += f"  unmatched cells {unmatched}" if unmatched else ""
        print(f"{name}: max rel change {largest:.3e}{note}")
        failed = failed or kinds > 0 or unmatched > 0 or largest > args.rel
    print(f"largest relative change {overall:.3e} (threshold {args.rel:.1e})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
