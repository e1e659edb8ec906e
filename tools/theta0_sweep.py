#!/usr/bin/env python3
"""Sweep the theta = 0 closed form against an independent mpmath integral.

    PYTHONPATH=src python3 tools/theta0_sweep.py [--r-points 12] [--t-points 33] [--rel 1e-12]

At theta = 0 the Delta-type coefficient of the Lorentz-Drude bath is
(wc^2/pi) Int_0^inf G(nu) dnu in w0 = 1 units, with G(nu) = (h(nu) -
h(wc)) / (nu^2 - wc^2), h(nu) = nu Re F(nu) and F(nu) = t^p phi_p((nu -
i) t) the whole (unsplit) time kernel.  The oracle integrates G with
``mpmath.quad`` (tanh-sinh at 30 digits) over [0, wc, 1, 1/t, 10/t, inf];
it shares no code with ``qbmzeno``.

For r log-spaced over [0.05, 20] and p = 1, 2 (Delta and IDelta), one
line gives the largest relative error over t log-spaced over [1e-4, 1e4],
the t where it occurs, and the best of five wall times of
``_matsubara.pair`` on the whole t grid.  The exit status is 1 if any
error exceeds ``--rel``.
"""

import argparse
import sys
import time

import mpmath as mp
import numpy as np

from qbmzeno import _matsubara

DPS = 30


def oracle_delta(wc: float, t: float, power: int) -> float:
    """(wc^2/pi) Int_0^inf G(nu) dnu in mpmath."""
    with mp.workdps(DPS):
        wc, t = mp.mpf(wc), mp.mpf(t)

        def kernel(nu):
            z = mp.mpc(nu, -1)
            e = mp.exp(-z * t)
            return (1 - e) / z if power == 1 else (z * t + e - 1) / z**2

        h_c = wc * mp.re(kernel(wc))

        def g(nu):
            if nu == wc:  # a node rounded onto the removable point: step off it
                nu = wc * (1 + mp.sqrt(mp.eps))
            return (nu * mp.re(kernel(nu)) - h_c) / (nu**2 - wc**2)

        cuts = sorted({mp.mpf(0), wc, mp.mpf(1), 1 / t, 10 / t})
        return float(wc**2 / mp.pi * mp.quad(g, cuts + [mp.inf]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--r-points", type=int, default=12, help="values of r (default 12)")
    parser.add_argument("--t-points", type=int, default=33, help="values of t (default 33)")
    parser.add_argument("--rel", type=float, default=1e-12,
                        help="largest relative error that passes (default 1e-12)")
    args = parser.parse_args(argv)

    times = np.geomspace(1e-4, 1e4, args.t_points)
    start, worst = time.perf_counter(), 0.0
    print(f"{'r':>8} {'p':>2} {'max rel err':>12} {'at t':>10} {'ms/grid':>8}")
    for r in np.geomspace(0.05, 20.0, args.r_points).tolist():
        for power in (1, 2):
            clock = []
            for _ in range(5):
                t0 = time.perf_counter()
                got, _ = _matsubara.pair(r, 0.0, times, power)
                clock.append(time.perf_counter() - t0)
            want = np.array([oracle_delta(r, t, power) for t in times.tolist()])
            err = np.abs(got - want) / np.abs(want)
            at = int(np.argmax(err))
            worst = max(worst, float(err[at]))
            print(f"{r:8.4g} {power:2d} {err[at]:12.2e} {times[at]:10.3g} {1e3 * min(clock):8.3f}")
    print(f"largest relative error {worst:.2e} (threshold {args.rel:.1e}); "
          f"{args.r_points * args.t_points * 2} points, {time.perf_counter() - start:.1f} s")
    return 1 if worst > args.rel else 0


if __name__ == "__main__":
    sys.exit(main())
