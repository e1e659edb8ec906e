#!/usr/bin/env python3
"""Sweep the crossover refine over the parameter corners of the paper's figures.

    PYTHONPATH=src python3 tools/crossover_sweep.py [--rel 1e-11]

For every r in {0.1, 0.5, 1, 2, 10}, theta in {0, 0.2, 1, 10, 100} and
n in {0, 1, 50}, ``find_crossover_time`` looks for the crossovers in
tau in [1e-4, 1e4] on a 64-point grid.  The rate calls of each root's
refine are counted through ``zeno.bisect`` (the grid is one batched
pass), and every root is compared with plain bisection of the same
function, ratio - 1, on the same bracket down to adjacent doubles.

Prints one line per (r, theta): for each n the roots found and the rate
calls per root ("divergent" where the Markovian rate vanishes, theta = 0
and n = 0), then the totals, the most calls any root took and the
largest relative distance to the bisected root.  The exit status is 1
if that distance exceeds ``--rel``.
"""

import argparse
import sys
import time
import warnings

from qbmzeno import zeno
from qbmzeno.errors import DegenerateDenominatorError
from qbmzeno.spectral import ReservoirParams

R_VALUES = (0.1, 0.5, 1.0, 2.0, 10.0)
THETAS = (0.0, 0.2, 1.0, 10.0, 100.0)
N_VALUES = (0, 1, 50)
TAU_RANGE = (1e-4, 1e4)
GRID_POINTS = 64


def bisect_to_resolution(f, bracket) -> float:
    """Plain bisection of f on the bracket until the midpoint is an end."""
    lo, hi, f_lo = bracket.lo, bracket.hi, bracket.f_lo
    if f_lo == 0.0 or bracket.f_hi == 0.0:
        return lo if f_lo == 0.0 else hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rel", type=float, default=1e-11,
                        help="largest relative distance to bisection that passes (default 1e-11)")
    args = parser.parse_args(argv)

    refined = []  # (function, bracket, rate calls, root) of every refined root
    refine = zeno.bisect

    def counted(f, bracket, tol):
        calls = [0]

        def g(x):
            calls[0] += 1
            return f(x)

        root = refine(g, bracket, tol)
        refined.append((f, bracket, calls[0], root))
        return root

    zeno.bisect = counted
    start = time.perf_counter()
    print("r      theta " + "".join(f"  n={n}: roots calls/root" for n in N_VALUES))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # escape warnings at large tau
        for r in R_VALUES:
            for theta in THETAS:
                params = ReservoirParams(r=r, theta=theta, alpha=0.1)
                cells = []
                for n in N_VALUES:
                    first = len(refined)
                    try:
                        zeno.find_crossover_time(params, params.spectral_model(), n,
                                                 TAU_RANGE, GRID_POINTS)
                    except DegenerateDenominatorError:
                        cells.append(f"{'divergent':>24}")
                        continue
                    calls = [c for _, _, c, _ in refined[first:]]
                    per_root = sum(calls) / len(calls) if calls else 0.0
                    cells.append(f"{len(calls):>13} {per_root:>10.1f}")
                print(f"{r:<6g} {theta:<6g}" + "".join(cells))
        # The same function (ratio - 1) on the same bracket, to resolution.
        exact = [bisect_to_resolution(f, bracket) for f, bracket, _, _ in refined]
    calls = [c for _, _, c, _ in refined]
    worst = max((abs(root - x) / x for (_, _, _, root), x in zip(refined, exact)), default=0.0)
    print(f"roots {len(calls)}, refine rate calls {sum(calls)} "
          f"({sum(calls) / max(len(calls), 1):.2f} per root, at most {max(calls, default=0)})")
    print(f"largest relative distance to bisection at resolution: {worst:.2e} "
          f"(threshold {args.rel:.1e}); {time.perf_counter() - start:.1f} s")
    return 1 if worst > args.rel else 0


if __name__ == "__main__":
    sys.exit(main())
