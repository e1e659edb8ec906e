#!/usr/bin/env python3
"""Sweep the closed form over every Lorentz-Drude point of the benchmark pool.

    PYTHONPATH=src python3 tools/closed_form_sweep.py [--rel 1e-11] [--repeat 5]

Reads the 640-point ``ld`` rate pool of ``bench/data/reference.json``
(mpmath references that never import qbmzeno) without changing it.  Each
point's (IDelta, Igamma) comes from one ``integrated_pair`` call, which
for the Ohmic Lorentz-Drude bath is the closed form of ``_matsubara``.  A
point fails if the call raises or IDelta or Igamma is off its reference
by more than ``--rel``.

Prints the failures as (r, theta, n, tau) and the worst relative errors;
then the number of ``_hurwitz_zeta`` rows this process evaluated, which
is the number of distinct zeta-tail bounds among the direct rows (each
is computed once and kept in ``_matsubara``'s table), and the summand
evaluations G(nu) of the whole pool (the closed form's work counter);
then, per branch of the Matsubara sum (direct sum and zeta tail,
Gregory, theta = 0), the points, their summand evaluations, the worst
relative error of IDelta and Igamma, and the best-of-``--repeat`` time
of one ``effective_decay_rate`` call, as the median and the largest over
the branch's points.  The times depend on the machine; the counts do
not.  The exit status is 1 if any point fails.
"""

import argparse
import json
import statistics
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from qbmzeno import _matsubara, coefficients, zeno
from qbmzeno.spectral import ReservoirParams

ROOT = Path(__file__).resolve().parent.parent
BRANCHES = ("direct + zeta tail", "Gregory", "theta = 0")


def _rel(value: float, want: float) -> float:
    return abs(value - want) / abs(want) if want != 0.0 else abs(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rel", type=float, default=1e-11,
                        help="largest relative error of IDelta and Igamma that passes "
                             "(default 1e-11)")
    parser.add_argument("--repeat", type=int, default=5,
                        help="timed calls per point, the best one counts (default 5)")
    args = parser.parse_args(argv)

    data = json.loads((ROOT / "bench" / "data" / "reference.json").read_text())
    pool = data["rate_pools"]["ld"]
    rows, summands, seen = [0], [0], set()
    hurwitz_zeta, gregory, zeta_tails = (_matsubara._hurwitz_zeta, _matsubara._gregory,
                                         _matsubara._zeta_tails)
    summand = _matsubara._Kernel.summand

    def counted_zeta(a):
        rows[0] += len(a)
        return hurwitz_zeta(a)

    def counted_summand(kernel, nu, nodes):
        summands[0] += len(nu)
        return summand(kernel, nu, nodes)

    def seen_gregory(*a):
        seen.add("Gregory")
        return gregory(*a)

    def seen_zeta_tails(*a):
        seen.add("direct + zeta tail")
        return zeta_tails(*a)

    _matsubara._hurwitz_zeta = counted_zeta
    _matsubara._gregory, _matsubara._zeta_tails = seen_gregory, seen_zeta_tails
    _matsubara._Kernel.summand = counted_summand
    failures, worst, points = [], {"IDelta": 0.0, "Igamma": 0.0}, {b: [] for b in BRANCHES}
    work = {b: 0 for b in BRANCHES}
    branch_worst = {b: 0.0 for b in BRANCHES}
    try:
        for q in pool:
            params = ReservoirParams(r=q["r"], theta=q["theta"], alpha=data["alpha"])
            point = (q["r"], q["theta"], q["n"], q["tau"])
            seen.clear()
            summands[0] = 0
            try:
                i_delta, i_gamma = coefficients.integrated_pair(params, params.spectral_model(),
                                                                q["tau"])
            except Exception as exc:  # a failed point is reported, not fatal
                failures.append((point, type(exc).__name__))
                continue
            if q["theta"] == 0.0:
                branch = "theta = 0"
            else:
                branch = "Gregory" if "Gregory" in seen else "direct + zeta tail"
            points[branch].append((params, q["n"], q["tau"]))
            work[branch] += summands[0]
            errs = {"IDelta": _rel(i_delta, q["int_delta"]), "Igamma": _rel(i_gamma, q["int_gamma"])}
            for key, err in errs.items():
                worst[key] = max(worst[key], err)
                branch_worst[branch] = max(branch_worst[branch], err)
            bad = [f"{key} off by {err:.1e}" for key, err in errs.items() if err > args.rel]
            if bad:
                failures.append((point, ", ".join(bad)))
    finally:
        _matsubara._hurwitz_zeta = hurwitz_zeta
        _matsubara._gregory, _matsubara._zeta_tails = gregory, zeta_tails
        _matsubara._Kernel.summand = summand

    print(f"points {len(pool)}  failures {len(failures)} "
          f"(raised, or IDelta or Igamma off by > {args.rel:g})")
    for (r, theta, n, tau), why in failures:
        print(f"  r={r:.4g} theta={theta:g} n={n} tau={tau:.4g}: {why}")
    print("worst relative error  " + "  ".join(f"{k} {v:.2e}" for k, v in worst.items()))
    print(f"zeta rows {rows[0]} (_hurwitz_zeta rows evaluated in this process)")
    print(f"summand evaluations {sum(work.values()):,} (G(nu) over the pool)")
    print(f"{'branch':>20} {'points':>7} {'summands':>9} {'worst rel':>10} "
          f"{'best us, median':>16} {'largest':>8}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # escape warnings at large tau
        for branch in BRANCHES:
            best = []
            for params, n, tau in points[branch]:
                model = params.spectral_model()
                times = []
                for _ in range(args.repeat):
                    start = time.perf_counter()
                    zeno.effective_decay_rate(params, model, n, tau)
                    times.append(time.perf_counter() - start)
                best.append(1e6 * min(times))
            median = statistics.median(best) if best else float("nan")
            print(f"{branch:>20} {len(best):7d} {work[branch]:9,d} {branch_worst[branch]:10.2e} "
                  f"{median:16.1f} {max(best, default=np.nan):8.1f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
