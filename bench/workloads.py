"""The four benchmark workloads: inputs from a seed, one round of work, checks.

A round is a fixed amount of work that a run repeats; its outputs must be
bit-identical from round to round.  Operations are timed with ``clock``,
which leaves out the calibration blocks (calibration.py).  Each workload
draws its inputs from the stored pools in ``data/reference.json`` (see
``make_reference.py``), so every output has an engine-independent
reference.

  rate-queries   effective_decay_rate on the Ohmic Lorentz-Drude bath, 220
                 queries: for each theta, all 16 (log-r bin, quarter-decade)
                 cells of tau in [1e3, 1e4] and one Latin transversal of the
                 16 cells of every lower decade.
                 The library's request path: sinc^2 running integrals only.
  user-bath      the same design on an exponential-cutoff Ohmic bath defined
                 in userbath.py; the generic BaseSpectralDensity path.
  crossover-map  the README crossover-map grid through qbmzeno.cli.main at
                 n = 0 and n = 50 (two calls), --tau-points 24; the seed
                 orders r and theta.
  ion-protocol   qbmzeno ion (README parameters) with N = 59..61 shutterings
                 through qbmzeno.cli.main; the Fock-ladder RK4 and writers.

Outputs are checked against the reference with relative tolerance
REL_TOL, the library's regime band RATIO_TOL: an error below it cannot
move a rate ratio across a regime boundary by more than the band.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import warnings
from pathlib import Path

import numpy as np

from qbmzeno import cli, zeno
from qbmzeno.spectral import ReservoirParams
from userbath import ExponentialOhmic

DATA = Path(__file__).resolve().parent / "data" / "reference.json"
REL_TOL = zeno.RATIO_TOL


def load_reference() -> dict:
    return json.loads(DATA.read_text())


class Outcomes:
    """Per-operation results: ok, an exception type, off-reference or exit code."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.max_rel_err = 0.0

    def fail(self, kind: str) -> None:
        self.attempted += 1
        self.failures[kind] = self.failures.get(kind, 0) + 1

    def compare(self, value: float, expected: float) -> None:
        err = abs(value - expected) / abs(expected)
        self.max_rel_err = max(self.max_rel_err, err)
        if err > REL_TOL:
            self.fail("off-reference")
        else:
            self.attempted += 1

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": sum(self.failures.values()),
                "failures": self.failures, "max_rel_err": self.max_rel_err}


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------- rate queries
class RateQueries:
    bath = "ld"

    def __init__(self, seed: int, data: dict, workdir: Path) -> None:
        self.alpha = data["alpha"]
        rng = random.Random(f"{self.bath}:{seed}")
        groups: dict[str, dict] = {}
        for q in data["rate_pools"][self.bath]:
            groups.setdefault(q["group"], {})[(q["r_bin"], q["tau_bin"])] = q
        # The most expensive decade (the largest taus) is taken whole, so the
        # tail latency does not depend on which of its cells a seed draws;
        # every other (theta, tau decade) group draws one Latin transversal,
        # every log-r bin and every quarter-decade of tau once.
        top = max(int(g.split("/")[1]) for g in groups)
        self.queries = []
        for group, cells in groups.items():
            if int(group.split("/")[1]) == top:
                self.queries += [cells[key] for key in sorted(cells)]
                continue
            bins = sorted({r_bin for r_bin, _ in cells})
            for r_bin, tau_bin in zip(bins, rng.sample(bins, len(bins))):
                self.queries.append(cells[(r_bin, tau_bin)])
        rng.shuffle(self.queries)
        self.inputs = [(self._params(q), self._model(q), q["n"], q["tau"]) for q in self.queries]

    def _params(self, q) -> ReservoirParams:
        return ReservoirParams(r=q["r"], theta=q["theta"], alpha=self.alpha)

    def _model(self, q):
        return self._params(q).spectral_model()

    def run_round(self, clock) -> dict:
        values, intervals, errors = [], [], []
        escapes = 0
        for params, model, n, tau in self.inputs:
            value, error = None, None
            start = clock()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    value = zeno.effective_decay_rate(params, model, n, tau)
                except Exception as exc:  # recorded as the operation's outcome
                    error = type(exc).__name__
            intervals.append((start, clock()))
            escapes += sum("escape probability" in str(w.message) for w in caught)
            values.append(value)
            errors.append(error)
        digest = hashlib.sha256(repr((values, errors)).encode()).hexdigest()
        return {"intervals": intervals, "digest": digest, "bytes_written": 0,
                "escape_warnings": escapes, "outputs": (values, errors)}

    def check(self, outputs) -> Outcomes:
        values, errors = outputs
        out = Outcomes()
        for q, value, error in zip(self.queries, values, errors):
            if error is not None:
                out.fail(error)
                continue
            expected = ((2 * q["n"] + 1) * q["int_delta"] - q["int_gamma"]) / q["tau"]
            out.compare(value, expected)
        return out


class UserBath(RateQueries):
    bath = "exp"

    def _model(self, q):
        return ExponentialOhmic(q["r"])


# ---------------------------------------------------------------- CLI workloads
def _written(directory: Path) -> tuple[int, str]:
    files = sorted(p for p in directory.iterdir() if p.is_file())
    return sum(p.stat().st_size for p in files), _digest(p.name.encode() + p.read_bytes() for p in files)


class CrossoverMap:
    def __init__(self, seed: int, data: dict, workdir: Path) -> None:
        self.ref = data["crossover_map"]
        rng = random.Random(f"map:{seed}")
        r_order = list(self.ref["r"])
        theta_order = list(self.ref["theta"])
        rng.shuffle(r_order)
        rng.shuffle(theta_order)
        self.argvs = [
            ["crossover-map", "--n", str(n), "--alpha", repr(data["alpha"]),
             "--map-r", ",".join(repr(r) for r in r_order),
             "--map-theta", ",".join(repr(t) for t in theta_order),
             "--tau-min", repr(self.ref["tau_min"]), "--tau-max", repr(self.ref["tau_max"]),
             "--tau-points", str(self.ref["tau_points"]),
             "--out", str(workdir / f"map-n{n}")]
            for n in self.ref["n"]
        ]

    def run_round(self, clock) -> dict:
        intervals, codes, digests, payloads = [], [], [], []
        written = 0
        for argv in self.argvs:
            start = clock()
            codes.append(cli.main(argv))
            intervals.append((start, clock()))
            out_dir = Path(argv[-1])
            size, digest = _written(out_dir)
            written += size
            digests.append(digest)
            payload = json.loads((out_dir / "crossover_map.json").read_text())
            payloads.append(payload)
        return {"intervals": intervals, "digest": _digest(d.encode() for d in digests + [str(codes)]),
                "bytes_written": written, "escape_warnings": 0, "outputs": (codes, payloads)}

    def check(self, outputs) -> Outcomes:
        codes, payloads = outputs
        expected = {(c["r"], c["theta"], c["n"]): c for c in self.ref["cells"]}
        out = Outcomes()
        for code, payload in zip(codes, payloads):
            n = payload["n"]
            for r, row in zip(payload["r"], payload["smallest_crossover"]):
                for theta, cell in zip(payload["theta"], row):
                    ref = expected[(r, theta, n)]
                    if code != cli.EXIT_OK:
                        out.fail(f"exit-{code}")
                    elif cell == "error":
                        out.fail("cell-error")
                    elif ref["kind"] != "root" or cell in ("none", "divergent"):
                        if cell == ref["kind"]:
                            out.attempted += 1
                        else:
                            out.fail("wrong-kind")
                    else:
                        out.compare(float(cell), ref["tau_star"])
        return out


class IonProtocol:
    def __init__(self, seed: int, data: dict, workdir: Path) -> None:
        self.ref = data["ion"]
        self.n_measurements = 59 + seed % 3
        self.out_dir = workdir / "ion"
        ion = self.ref
        self.argv = ["ion", "--n", str(ion["n"]), "--theta", repr(ion["theta"]),
                     "--r", repr(ion["r"]), "--alpha", repr(data["alpha"]),
                     "--tau", repr(ion["tau"]), "--N", str(self.n_measurements),
                     "--out", str(self.out_dir)]

    def run_round(self, clock) -> dict:
        start = clock()
        code = cli.main(self.argv)
        interval = (start, clock())
        size, digest = _written(self.out_dir)
        return {"intervals": [interval], "digest": _digest([digest.encode(), str(code).encode()]),
                "bytes_written": size, "escape_warnings": 0, "outputs": code}

    def check(self, code) -> Outcomes:
        """Shuttered P(tau)^k and free decay against the reference rates, and
        the ladder against P(tau)^k: equal to second order in the escape
        probability after one interval, never below it afterwards (the
        ladder also counts population that returns to |n>)."""
        out = Outcomes()
        n_meas = self.n_measurements
        if code != cli.EXIT_OK:
            for _ in range(3 * n_meas):
                out.fail(f"exit-{code}")
            return out
        ion = self.ref
        table = np.loadtxt(self.out_dir / "ion_comparison.csv", delimiter=",", skiprows=1)
        escape = np.array(ion["int_delta"]) - np.array(ion["int_gamma"])  # n = 0
        p_single = 1.0 - escape[0]
        for k in range(1, n_meas + 1):
            t = k * ion["tau"]
            out.compare(table[k, 1], p_single**k)
            free = math.exp(-ion["markov_rate"] * t) if escape[k - 1] > 0.5 else 1.0 - escape[k - 1]
            out.compare(table[k, 2], free)
        trace = np.loadtxt(self.out_dir / "ion_trace.csv", delimiter=",", skiprows=1, usecols=(1,))
        rows = len(trace) // n_meas
        ladder = trace[rows - 1::rows]
        for k in range(1, n_meas + 1):
            if k == 1:
                ok = abs(ladder[0] - p_single) <= escape[0] ** 2
            else:
                ok = ladder[k - 1] >= p_single**k * (1.0 - 1e-9)
            if ok:
                out.attempted += 1
            else:
                out.fail("ladder-disagrees")
        return out


def make(name: str, seed: int, data: dict, workdir: Path):
    return {"rate-queries": RateQueries, "user-bath": UserBath,
            "crossover-map": CrossoverMap, "ion-protocol": IonProtocol}[name](seed, data, workdir)
