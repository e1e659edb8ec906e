#!/usr/bin/env python3
"""Generate the query pools and their reference values (bench/data/reference.json).

The reference integrals come from ``reference.py`` (mpmath, time-domain
forms) and never from ``qbmzeno``.  The pools are fixed by GENERATOR_SEED;
a benchmark seed only chooses members of the pool, so every query a run
can make has a stored reference.  Rerun only when the pools or the
reference formulas change:

    python3 bench/make_reference.py          # about four minutes, two processes
"""

from __future__ import annotations

import json
import multiprocessing
from pathlib import Path

import mpmath as mp
import numpy as np

import reference as ref

OUT = Path(__file__).resolve().parent / "data" / "reference.json"
GENERATOR_SEED = 602133
ALPHA = 0.1

# Rate-query pool: for every theta and tau decade (a group), one member in
# each cell of BINS log-r bins x BINS log-tau sub-bins.  A round draws one
# Latin transversal per group (every r bin and every tau sub-bin once), so
# each round covers the parameter space evenly whatever the seed.
THETAS = [0.0, 0.2, 1.0, 10.0, 100.0]
N_VALUES = [0, 1, 5, 50]
TAU_DECADES = list(range(-4, 4))          # [1e-4, 1e-3), ..., [1e3, 1e4]
BINS = 4                                   # log10 r in [-1, 1]; quarter decades of tau

# The README crossover map, on the coarse tau grid of the workload.
MAP_R = [0.1, 0.5, 1.0, 2.0, 10.0]
MAP_THETA = [0.0, 1.0, 10.0, 100.0]
MAP_N = [0, 50]
MAP_TAU = (1e-3, 1e2, 24)

# The README ion protocol with a long shuttering train.
ION = {"r": 0.5, "theta": 100.0, "n": 0, "tau": 0.25, "n_max": 61}


def make_pool(rng: np.random.Generator) -> list[dict]:
    pool = []
    for theta in THETAS:
        for decade in TAU_DECADES:
            for r_bin in range(BINS):
                for tau_bin in range(BINS):
                    log_tau = decade + (tau_bin + rng.random()) / BINS
                    # The outermost sub-bins sit on the range ends, where the
                    # engine's known defects are largest.
                    if decade == TAU_DECADES[0] and tau_bin == 0:
                        log_tau = float(decade)
                    if decade == TAU_DECADES[-1] and tau_bin == BINS - 1:
                        log_tau = float(decade + 1)
                    pool.append({
                        "group": f"{theta:g}/{decade}",
                        "r_bin": r_bin,
                        "tau_bin": tau_bin,
                        "r": float(10 ** (-1 + 2 * (r_bin + rng.random()) / BINS)),
                        "theta": theta,
                        "n": int(rng.choice(N_VALUES)),
                        "tau": float(10**log_tau),
                    })
    return pool


def _integrals(job):
    bath, r, theta, tau = job
    return (float(ref.int_delta(bath, r, theta, tau, ALPHA)),
            float(ref.int_gamma(bath, r, tau, ALPHA)))


def _rate(bath, r, theta, n, tau):
    with mp.workdps(ref.DPS):
        i_delta = ref.int_delta(bath, r, theta, tau, ALPHA)
        return ((2 * n + 1) * i_delta - ref.int_gamma(bath, r, tau, ALPHA)) / tau


def _map_cell(job):
    """Smallest crossover on the workload's grid: first sign change of the
    reference ratio - 1, refined to 1e-14 relative by Illinois iteration."""
    r, theta, n = job
    markov = ref.markov_rate("ld", r, theta, n, ALPHA)
    if abs(markov) < 1e-12 * ALPHA**2:
        return {"r": r, "theta": theta, "n": n, "kind": "divergent"}
    taus = np.geomspace(*MAP_TAU)

    def excess(tau):
        return _rate("ld", r, theta, n, tau) / markov - 1

    values = [excess(float(t)) for t in taus]
    for lo, hi, f_lo, f_hi in zip(taus[:-1], taus[1:], values[:-1], values[1:]):
        if f_lo * f_hi < 0:
            with mp.workdps(ref.DPS):
                root = mp.findroot(excess, (mp.mpf(float(lo)), mp.mpf(float(hi))),
                                   solver="illinois", tol=mp.mpf(10) ** -28)
            return {"r": r, "theta": theta, "n": n, "kind": "root",
                    "tau_star": float(root), "bracket": [float(lo), float(hi)]}
    return {"r": r, "theta": theta, "n": n, "kind": "none"}


def main() -> None:
    rng = np.random.default_rng(GENERATOR_SEED)
    pools = {"ld": make_pool(rng), "exp": make_pool(rng)}
    ion_times = [ION["tau"] * k for k in range(1, ION["n_max"] + 1)]
    jobs = [(bath, q["r"], q["theta"], q["tau"]) for bath, pool in pools.items() for q in pool]
    jobs += [("ld", ION["r"], ION["theta"], t) for t in ion_times]
    cells = [(r, theta, n) for n in MAP_N for r in MAP_R for theta in MAP_THETA]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as workers:
        integrals = workers.map(_integrals, jobs, chunksize=8)
        map_cells = workers.map(_map_cell, cells, chunksize=1)
    values = iter(integrals)
    for pool in pools.values():
        for q in pool:
            q["int_delta"], q["int_gamma"] = next(values)
    ion_values = [next(values) for _ in ion_times]
    payload = {
        "alpha": ALPHA,
        "generator_seed": GENERATOR_SEED,
        "rate_pools": pools,
        "crossover_map": {
            "r": MAP_R, "theta": MAP_THETA, "n": MAP_N,
            "tau_min": MAP_TAU[0], "tau_max": MAP_TAU[1], "tau_points": MAP_TAU[2],
            "cells": map_cells,
        },
        "ion": dict(ION,
                    markov_rate=float(ref.markov_rate("ld", ION["r"], ION["theta"], ION["n"], ALPHA)),
                    int_delta=[v[0] for v in ion_values],
                    int_gamma=[v[1] for v in ion_values]),
    }
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
