#!/usr/bin/env python3
"""Print one SHA-256 per output file of a fixed set of CLI runs.

Runs the five README commands at reduced sizes, plus a degenerate scan,
JSON-only output and the ion protocol at the benchmark's size
(``--N 60``), each in its own fresh interpreter against the ``src/``
tree next to this script and into its own subdirectory of a temporary
directory.  Two checkouts that print the same lines write
byte-identical files:

    python3 tools/output_digest.py > digests.txt

Each run prints ``exit <name> <code>``, then ``<sha256>  <name>/<file>``
for every file it wrote, in name order.  ``--keep DIR`` writes the runs
into DIR instead of a temporary directory and leaves them there, with
the exit codes in ``DIR/exit_codes.txt``, for ``tools/compare_outputs.py``.
"""

import argparse
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
    # The benchmark's size: a 12,060-row trace, written in many row blocks.
    ("ion-long", ["ion", "--n", "0", *HOT, "--tau", "0.25", "--N", "60"]),
    ("crossover-map", ["crossover-map", *MAP]),
    ("scan-degenerate", ["scan", "--n", "0", "--theta", "0", "--r", "0.5", "--alpha", "0.1",
                         "--tau-points", "12"]),
    ("coeffs-json", ["coeffs", *HOT, "--t-max", "2", "--points", "9", "--format", "json"]),
    ("scan-json", ["scan", "--n", "0", *HOT, "--tau-points", "12", "--format", "json"]),
)


def run_all(root: Path) -> list[str]:
    """Run every command into root/<name>; returns the printed lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("QBMZENO_OUT", None)
    lines = []
    for name, argv in RUNS:
        out = root / name
        code = subprocess.run(
            [sys.executable, "-m", "qbmzeno.cli", *argv, "--out", str(out)],
            env=env, stderr=subprocess.DEVNULL,
        ).returncode
        lines.append(f"exit {name} {code}")
        for path in sorted(out.iterdir()):
            lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}/{path.name}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", metavar="DIR",
                        help="write the output tree into DIR and keep it")
    args = parser.parse_args(argv)
    if args.keep:
        root = Path(args.keep)
        root.mkdir(parents=True, exist_ok=True)
        lines = run_all(root)
        codes = [line.removeprefix("exit ") for line in lines if line.startswith("exit ")]
        (root / "exit_codes.txt").write_text("\n".join(codes) + "\n")
    else:
        with tempfile.TemporaryDirectory() as tmp:
            lines = run_all(Path(tmp))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
