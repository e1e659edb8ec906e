#!/usr/bin/env python3
"""Measure what a process start costs: importing numpy against importing qbmzeno.

    python3 tools/import_cost.py [--runs 9] [--src DIR]

Starts ``--runs`` fresh interpreters for each statement, interleaved
(numpy, qbmzeno, numpy, ...), so that a drift in machine speed hits both
alike.  Each child times its own import statement with
``time.perf_counter`` and reports its peak resident set (``ru_maxrss``)
and ``len(sys.modules)`` after it; the parent times the whole child, from
spawn to exit.  One line per statement gives the medians.

The package is imported from a copy of the ``src/`` tree next to this
script (or of ``--src DIR``, to measure another checkout) without its
``__pycache__`` directories, under PYTHONDONTWRITEBYTECODE=1, so that
qbmzeno's own modules are compiled on every start, as in a new checkout;
installed packages keep their caches.
Uses the standard library only.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
STATEMENTS = ("import numpy", "import qbmzeno, qbmzeno.cli")
CHILD = """\
import time
start = time.perf_counter()
{statement}
elapsed = time.perf_counter() - start
import json, resource, sys
print(json.dumps({{"import_s": elapsed, "modules": len(sys.modules),
                   "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}}))
"""


def measure(statement: str, env: dict) -> dict:
    """One fresh interpreter running ``statement``: its report plus the process wall time."""
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-c", CHILD.format(statement=statement)],
                            env=env, capture_output=True, text=True, check=True)
    report = json.loads(result.stdout)
    report["process_s"] = time.perf_counter() - start
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=9, help="fresh interpreters per statement")
    parser.add_argument("--src", type=Path, default=SRC, help="the source tree holding qbmzeno")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(args.src, src, ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        reports = {statement: [] for statement in STATEMENTS}
        for _ in range(args.runs):
            for statement in STATEMENTS:
                reports[statement].append(measure(statement, env))
    print(f"{'statement':30s} {'runs':>4s} {'import_ms':>9s} {'process_ms':>10s} "
          f"{'maxrss_mb':>9s} {'modules':>7s}")
    for statement, runs in reports.items():
        def median(key):
            return statistics.median(run[key] for run in runs)

        print(f"{statement:30s} {len(runs):4d} {1e3 * median('import_s'):9.1f} "
              f"{1e3 * median('process_s'):10.1f} {median('maxrss_kb') / 1024:9.1f} "
              f"{median('modules'):7.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
