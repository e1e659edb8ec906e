#!/usr/bin/env python3
"""Check the vectorized ``%.16e`` cell formatter against Python's ``%``.

Draws N seeded random 64-bit patterns (every finite, subnormal,
infinite and nan double is possible), formats them with
``qbmzeno._table.format_e16`` from the ``src/`` tree next to this script,
and compares every cell with ``'%.16e' % v``:

    python3 tools/format_sweep.py                 # 10**7 patterns, seed 0
    python3 tools/format_sweep.py --n 1000000 --seed 3

Prints each mismatch (at most 20), then the number of mismatches and the
time per cell of the formatter and of ``%``.  Exits 1 on any mismatch.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from qbmzeno._table import _BLOCK_CELLS, format_e16  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=10**7, help="number of bit patterns")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    mismatches = 0
    vector_s = python_s = 0.0
    for start in range(0, args.n, _BLOCK_CELLS):
        size = min(_BLOCK_CELLS, args.n - start)
        values = rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64)
        t0 = time.perf_counter()
        slots = format_e16(values)
        t1 = time.perf_counter()
        want = [b"%.16e" % v for v in values.tolist()]
        python_s += time.perf_counter() - t1
        vector_s += t1 - t0
        slots.view(np.uint8)[:, -1] = ord("\n")
        if slots.tobytes().translate(None, b"\0") == b"\n".join(want) + b"\n":
            continue
        for i, slot in enumerate(slots.view(np.uint8)):
            got = bytes(slot[:-1]).replace(b"\0", b"")
            if got != want[i]:
                mismatches += 1
                if mismatches <= 20:
                    print(f"mismatch {values[i]!r}: {got.decode()} != {want[i].decode()}")
    print(f"values {args.n:,}  seed {args.seed}  mismatches {mismatches}")
    print(f"format_e16 {vector_s / args.n * 1e9:.1f} ns/cell   "
          f"'%.16e' % {python_s / args.n * 1e9:.1f} ns/cell")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
