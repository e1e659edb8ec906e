#!/usr/bin/env python3
"""Print one SHA-256 per output file of a fixed set of CLI runs.

Runs the five README commands at reduced sizes, plus a degenerate scan,
JSON-only output and two-process (``--jobs 2``) runs, each in its own
fresh interpreter against the ``src/`` tree next to this script and into
its own subdirectory of a temporary directory.  Two checkouts that
print the same lines write byte-identical files:

    python3 tools/output_digest.py > digests.txt

Each run prints ``exit <name> <code>``, then ``<sha256>  <name>/<file>``
for every file it wrote, in name order.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

HOT = ["--r", "0.5", "--theta", "100", "--alpha", "0.1"]
MAP = ["--n", "0", "--alpha", "0.1", "--map-r", "0.1,0.5,1,2,10", "--map-theta", "0,1,10,100",
       "--tau-points", "16"]

RUNS = (
    ("coeffs", ["coeffs", *HOT, "--t-max", "3", "--points", "30"]),
    ("scan", ["scan", "--n", "0", *HOT, "--log", "--tau-points", "40"]),
    ("fig1", ["fig1", "--alpha", "0.1", "--tau-points", "16"]),
    ("ion", ["ion", "--n", "0", *HOT, "--tau", "0.25", "--N", "6"]),
    ("ion-aze", ["ion", "--n", "0", *HOT, "--tau", "1.5", "--N", "3"]),
    ("crossover-map", ["crossover-map", *MAP]),
    ("scan-degenerate", ["scan", "--n", "0", "--theta", "0", "--r", "0.5", "--alpha", "0.1",
                         "--tau-points", "12"]),
    ("coeffs-json", ["coeffs", *HOT, "--t-max", "2", "--points", "9", "--format", "json"]),
    ("scan-json", ["scan", "--n", "0", *HOT, "--tau-points", "12", "--format", "json"]),
    ("coeffs-jobs2", ["coeffs", *HOT, "--t-max", "3", "--points", "30", "--jobs", "2"]),
    ("scan-jobs2", ["scan", "--n", "0", *HOT, "--log", "--tau-points", "40", "--jobs", "2"]),
    ("crossover-map-jobs2", ["crossover-map", *MAP, "--jobs", "2"]),
)


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("QBMZENO_OUT", None)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in RUNS:
            out = Path(tmp) / name
            code = subprocess.run(
                [sys.executable, "-m", "qbmzeno.cli", *argv, "--out", str(out)],
                env=env, stderr=subprocess.DEVNULL,
            ).returncode
            print(f"exit {name} {code}")
            for path in sorted(out.iterdir()):
                print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}/{path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
