#!/usr/bin/env python3
"""Sweep the quadrature path over every exponential-bath point of the benchmark pool.

    PYTHONPATH=src python3 tools/quadrature_sweep.py [--rel 1e-6] [--limit N]

Reads the 640-point ``exp`` rate pool of ``bench/data/reference.json``
(mpmath references that never import qbmzeno) and the user bath of
``bench/userbath.py`` (J = w exp(-w/wc) / pi), without changing either.
Each point's (IDelta, Igamma) comes from one ``integrated_pair`` call,
one ``integrate_semi_infinite`` pass for both weights and both kernels,
and its rate is ((2n+1) IDelta - Igamma) / tau.  A point fails if the
call raises or its rate is off the reference by more than ``--rel``.

Prints the failures as (r, theta, n, tau), the worst relative error of
IDelta, Igamma and the rate over the points that did not raise, and the
integrand nodes evaluated (counted through the envelope handed to
``integrate_semi_infinite``), the wall time and the worst relative error
of Igamma, per decade of tau and in total, with the number of envelope
calls over the pool and the nodes of the largest one (at most
``numerics._BATCH_NODES``).  Before the total it prints how many of
those nodes the Filon stretch left of u = -96 took: FCC nodes, envelope
samples of its wide panels, and the widest panel, in pi-cells.  The exit
status is 1 if any point fails.
"""

import argparse
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # import bench/userbath.py without writing under bench/
sys.path.insert(0, str(ROOT / "bench"))

import numpy as np  # noqa: E402

from qbmzeno import coefficients, numerics  # noqa: E402
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
    nodes, calls = [0], []
    semi_infinite = coefficients.integrate_semi_infinite

    def counted(f, *a, **kw):
        def envelope(x):
            nodes[0] += np.size(x)
            calls.append(np.size(x))
            return f(x)

        return semi_infinite(envelope, *a, **kw)

    # The Filon stretch's share: FCC-25 nodes (25 a Filon panel, counted
    # once per batch; its rule runs once per kernel term on them) and the
    # samples of wide panels (their columns).
    batch_values, wide_errors = numerics._batch_values, numerics._wide_errors
    stretch = {"fcc": 0, "samples": 0, "widest": 0}

    def counted_batch(evaluate, lo, hi, head, filon_end):
        if head is not None:
            stretch["fcc"] += 25 * int(np.count_nonzero(hi <= filon_end))
        return batch_values(evaluate, lo, hi, head, filon_end)

    def counted_samples(errors, y, wide, *a):
        wide = list(wide)
        for (level, _), start, stop in wide:
            stretch["samples"] += stop - start
            stretch["widest"] = max(stretch["widest"], 2**-level)
        return wide_errors(errors, y, wide, *a)

    coefficients.integrate_semi_infinite = counted
    numerics._batch_values, numerics._wide_errors = counted_batch, counted_samples
    failures, worst = [], {"IDelta": 0.0, "Igamma": 0.0, "rate": 0.0}
    # floor(log10 tau) -> [points, nodes, seconds, worst Igamma error]
    decades = defaultdict(lambda: [0, 0, 0.0, 0.0])
    try:
        for q in pool:
            params = ReservoirParams(r=q["r"], theta=q["theta"], alpha=data["alpha"])
            point = (q["r"], q["theta"], q["n"], q["tau"])
            decade = decades[math.floor(math.log10(q["tau"]))]
            nodes[0], start = 0, time.perf_counter()
            try:
                i_delta, i_gamma = coefficients.integrated_pair(params, ExponentialOhmic(q["r"]),
                                                                q["tau"])
            except Exception as exc:  # a failed point is reported, not fatal
                failures.append((point, type(exc).__name__))
                continue
            finally:
                decade[0] += 1
                decade[1] += nodes[0]
                decade[2] += time.perf_counter() - start
            m = 2 * q["n"] + 1
            errs = {
                "IDelta": _rel(i_delta, q["int_delta"]),
                "Igamma": _rel(i_gamma, q["int_gamma"]),
                "rate": _rel(m * i_delta - i_gamma, m * q["int_delta"] - q["int_gamma"]),
            }
            for key, err in errs.items():
                worst[key] = max(worst[key], err)
            decade[3] = max(decade[3], errs["Igamma"])
            if errs["rate"] > args.rel:
                failures.append((point, f"rate off by {errs['rate']:.1e}"))
    finally:
        coefficients.integrate_semi_infinite = semi_infinite
        numerics._batch_values, numerics._wide_errors = batch_values, wide_errors

    print(f"points {len(pool)}  failures {len(failures)} (raised, or rate off by > {args.rel:g})")
    for (r, theta, n, tau), why in failures:
        print(f"  r={r:.4g} theta={theta:g} n={n} tau={tau:.4g}: {why}")
    print("worst relative error  " + "  ".join(f"{k} {v:.2e}" for k, v in worst.items()))
    print(f"{'tau decade':>12} {'points':>7} {'nodes':>11} {'time s':>7} {'Igamma err':>10}")
    for exponent, (count, decade_nodes, seconds, igamma) in sorted(decades.items()):
        print(f"{f'1e{exponent}':>12} {count:7d} {decade_nodes:11,} {seconds:7.2f} {igamma:10.2e}")
    print(f"filon stretch: fcc nodes {stretch['fcc']:,}  samples {stretch['samples']:,}  "
          f"widest panel {stretch['widest']} pi-cells")
    total_nodes = sum(d[1] for d in decades.values())
    total_time = sum(d[2] for d in decades.values())
    print(f"nodes {total_nodes:,}  calls {len(calls):,}  largest call {max(calls, default=0):,}  "
          f"time {total_time:.2f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
