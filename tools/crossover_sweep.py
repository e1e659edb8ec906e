#!/usr/bin/env python3
"""Sweep the crossover refine over the parameter corners of the paper's figures.

    PYTHONPATH=src python3 tools/crossover_sweep.py [--rel 1e-11]

For every r in {0.1, 0.5, 1, 2, 10}, theta in {0, 0.2, 1, 10, 100} and
n in {0, 1, 50}, ``find_crossover_time`` looks for the crossovers in
tau in [1e-4, 1e4] on a 64-point grid.  The Brent-Dekker steps of each
root are counted through ``zeno.bisect``, which replays the steps its
bracket took in the lock-step refinement (the grid is one batched pass),
and every root is compared with plain bisection of the same function,
ratio - 1 from single-tau rates, on the same bracket down to adjacent
doubles.

Prints one line per (r, theta): for each n the roots found and the steps
per root ("divergent" where the Markovian rate vanishes, theta = 0 and
n = 0), then the totals, the most steps any root took and the largest
relative distance to the bisected root.  Last, the ``_matsubara.pair``
calls of the README crossover map (its r and theta, tau in [1e-3, 1e2],
``--tau-points 24`` as the benchmark runs it) through ``qbmzeno.cli``,
at n = 0 and n = 50, and of the README ``fig1`` (one per kernel); then
the closed form's summand evaluations G(nu) of the same two maps (their
sum is the work of one benchmark crossover-map round).  The exit status
is 1 if the distance exceeds ``--rel``.
"""

import argparse
import sys
import tempfile
import time
import warnings

import numpy as np

from qbmzeno import _matsubara, cli, zeno
from qbmzeno.errors import DegenerateDenominatorError
from qbmzeno.spectral import ReservoirParams

R_VALUES = (0.1, 0.5, 1.0, 2.0, 10.0)
THETAS = (0.0, 0.2, 1.0, 10.0, 100.0)
N_VALUES = (0, 1, 50)
TAU_RANGE = (1e-4, 1e4)
GRID_POINTS = 64
README_MAP = ["--alpha", "0.1", "--map-r", "0.1,0.5,1,2,10", "--map-theta", "0,1,10,100",
              "--tau-min", "1e-3", "--tau-max", "100", "--tau-points", "24"]


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


def single_tau_excess(params, n):
    """ratio - 1 at one tau, from a rate grid of that tau alone."""
    model = params.spectral_model()
    denominator = zeno.markovian_decay_rate(params, model, n)
    point, index = [(params, model)], np.zeros(1, np.intp)
    return lambda tau: float(zeno._rates(point, n, np.array([tau]), index)[0]) / denominator - 1.0


def closed_form_work(argv: list[str]) -> tuple[int, int]:
    """``_matsubara.pair`` calls and summand evaluations of one ``qbmzeno.cli`` run of ``argv``."""
    pair, summand, calls, summands = _matsubara.pair, _matsubara._Kernel.summand, [0], [0]

    def counted(*args):
        calls[0] += 1
        return pair(*args)

    def counted_summand(kernel, nu, nodes):
        summands[0] += len(nu)
        return summand(kernel, nu, nodes)

    _matsubara.pair, _matsubara._Kernel.summand = counted, counted_summand
    try:
        with tempfile.TemporaryDirectory() as out:
            code = cli.main([*argv, "--out", out])
    finally:
        _matsubara.pair, _matsubara._Kernel.summand = pair, summand
    if code != cli.EXIT_OK:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return calls[0], summands[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rel", type=float, default=1e-11,
                        help="largest relative distance to bisection that passes (default 1e-11)")
    args = parser.parse_args(argv)

    refined = []  # (ratio - 1, bracket, steps, root) of every refined root
    refine, cell = zeno.bisect, [None]  # cell: ratio - 1 of the cell being searched

    def counted(f, bracket, tol):
        calls = [0]

        def g(x):
            calls[0] += 1
            return f(x)

        root = refine(g, bracket, tol)
        refined.append((cell[0], bracket, calls[0], root))
        return root

    zeno.bisect = counted
    start = time.perf_counter()
    print("r      theta " + "".join(f"  n={n}: roots steps/root" for n in N_VALUES))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # escape warnings at large tau
        for r in R_VALUES:
            for theta in THETAS:
                params = ReservoirParams(r=r, theta=theta, alpha=0.1)
                cells = []
                for n in N_VALUES:
                    first = len(refined)
                    try:
                        cell[0] = single_tau_excess(params, n)
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
    zeno.bisect = refine
    calls = [c for _, _, c, _ in refined]
    worst = max((abs(root - x) / x for (_, _, _, root), x in zip(refined, exact)), default=0.0)
    print(f"roots {len(calls)}, refine steps {sum(calls)} "
          f"({sum(calls) / max(len(calls), 1):.2f} per root, at most {max(calls, default=0)})")
    print(f"largest relative distance to bisection at resolution: {worst:.2e} "
          f"(threshold {args.rel:.1e}); {time.perf_counter() - start:.1f} s")
    maps = {n: closed_form_work(["crossover-map", "--n", str(n), *README_MAP]) for n in (0, 50)}
    print("README crossover map, _matsubara.pair calls: "
          + ", ".join(f"n={n} {calls}" for n, (calls, _) in maps.items())
          + f"; fig1: {closed_form_work(['fig1', '--alpha', '0.1'])[0]}")
    print("README crossover map, summand evaluations: "
          + ", ".join(f"n={n} {work:,}" for n, (_, work) in maps.items())
          + f"; both {sum(work for _, work in maps.values()):,}")
    return 1 if worst > args.rel else 0


if __name__ == "__main__":
    sys.exit(main())
