#!/usr/bin/env python3
"""Sweep the quadrature path over every exponential-bath point of the benchmark pool.

    PYTHONPATH=src python3 tools/quadrature_sweep.py [--rel 1e-6] [--limit N]

Reads the 640-point ``exp`` rate pool of ``bench/data/reference.json``
(mpmath references that never import qbmzeno) and the user bath of
``bench/userbath.py`` (J = w exp(-w/wc) / pi), without changing either.
Each point's (IDelta, Igamma) comes from one ``integrated_pair`` call,
so it takes ``integrate_semi_infinite`` once per half, and its rate is
((2n+1) IDelta - Igamma) / tau.  A point fails if the call raises or its
rate is off the reference by more than ``--rel``.

Prints the failures as (r, theta, n, tau), the worst relative error of
IDelta, Igamma and the rate over the points that did not raise, the
integrand nodes evaluated (counted through the envelope handed to
``integrate_semi_infinite``) and the wall time.  The exit status is 1 if
any point fails.
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # import bench/userbath.py without writing under bench/
sys.path.insert(0, str(ROOT / "bench"))

import numpy as np  # noqa: E402

from qbmzeno import coefficients  # noqa: E402
from qbmzeno.spectral import ReservoirParams  # noqa: E402
from userbath import ExponentialOhmic  # noqa: E402


def _rel(value: float, want: float) -> float:
    return abs(value - want) / abs(want) if want != 0.0 else abs(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rel", type=float, default=1e-6,
                        help="largest relative rate error that still passes (default 1e-6)")
    parser.add_argument("--limit", type=int, default=None, help="sweep only the first N points")
    args = parser.parse_args(argv)

    data = json.loads((ROOT / "bench" / "data" / "reference.json").read_text())
    pool = data["rate_pools"]["exp"][:args.limit]
    nodes = [0]
    semi_infinite = coefficients.integrate_semi_infinite

    def counted(f, *a, **kw):
        def envelope(x):
            nodes[0] += np.size(x)
            return f(x)

        return semi_infinite(envelope, *a, **kw)

    coefficients.integrate_semi_infinite = counted
    failures, worst = [], {"IDelta": 0.0, "Igamma": 0.0, "rate": 0.0}
    start = time.perf_counter()
    try:
        for q in pool:
            params = ReservoirParams(r=q["r"], theta=q["theta"], alpha=data["alpha"])
            point = (q["r"], q["theta"], q["n"], q["tau"])
            try:
                i_delta, i_gamma = coefficients.integrated_pair(params, ExponentialOhmic(q["r"]),
                                                                q["tau"])
            except Exception as exc:  # a failed point is reported, not fatal
                failures.append((point, type(exc).__name__))
                continue
            m = 2 * q["n"] + 1
            errs = {
                "IDelta": _rel(i_delta, q["int_delta"]),
                "Igamma": _rel(i_gamma, q["int_gamma"]),
                "rate": _rel(m * i_delta - i_gamma, m * q["int_delta"] - q["int_gamma"]),
            }
            for key, err in errs.items():
                worst[key] = max(worst[key], err)
            if errs["rate"] > args.rel:
                failures.append((point, f"rate off by {errs['rate']:.1e}"))
    finally:
        coefficients.integrate_semi_infinite = semi_infinite
    elapsed = time.perf_counter() - start

    print(f"points {len(pool)}  failures {len(failures)} (raised, or rate off by > {args.rel:g})")
    for (r, theta, n, tau), why in failures:
        print(f"  r={r:.4g} theta={theta:g} n={n} tau={tau:.4g}: {why}")
    print("worst relative error  " + "  ".join(f"{k} {v:.2e}" for k, v in worst.items()))
    print(f"nodes {nodes[0]:,}  time {elapsed:.2f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
