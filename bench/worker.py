"""One benchmark process: set up, then repeat a workload's round for a time budget.

Started by run.py in a fresh interpreter with the thread pools pinned to
one thread.  It prints ``ready`` once qbmzeno and qbmzeno.cli are
imported and the workload's parameters and models are built (run.py
times set-up up to that line); with ``--setup-only`` it then measures the
calibration speed (calibration.py) and exits.
Otherwise it runs rounds until the next one would overrun ``--seconds``
(at least ``--min-rounds``) with calibration blocks interleaved
(calibration.py), checks the first round's outputs against
the reference, requires every later round to reproduce them bit for bit,
and prints one JSON line.  With ``--trace 1`` the layers are wrapped
(tracing.py) and per-round counts and self times are reported.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-rounds", type=int, default=1)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import qbmzeno  # noqa: F401  (set-up cost is part of what is measured)
    import qbmzeno.cli  # noqa: F401

    import workloads
    from calibration import Sampler, ref_cost

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload, args.seed, workloads.load_reference(), workdir)
    print("ready", flush=True)
    if args.setup_only:
        # The speed right after set-up converts the set-up time to reference seconds.
        from calibration import speed_scale

        print(json.dumps({"ref_per_s": speed_scale()}))
        return 0

    sampler = Sampler()
    tracer = None
    if args.trace:
        from qbmzeno.spectral import OhmicLorentzDrude

        from tracing import Tracer
        from userbath import ExponentialOhmic

        tracer = Tracer(sampler.clock)
        tracer.install([OhmicLorentzDrude, ExponentialOhmic])

    rounds = []
    started = time.perf_counter()
    while True:
        before = tracer.snapshot() if tracer else None
        kernel_s, units = sampler.kernel_s, sampler.units
        with sampler:
            result = workload.run_round(sampler.clock)
        intervals = result.pop("intervals")
        result["unit_s"] = (sampler.kernel_s - kernel_s) / (sampler.units - units)
        result["latencies"] = [end - start for start, end in intervals]
        result["costs"] = [ref_cost(span, sampler.marks) for span in intervals]
        if tracer:
            after = tracer.snapshot()
            result["counts"] = _difference(after["counts"], before["counts"])
            result["self_s"] = _difference(after["self_s"], before["self_s"])
        if rounds:
            result.pop("outputs")
        rounds.append(result)
        elapsed = time.perf_counter() - started
        if len(rounds) >= args.min_rounds and elapsed * (1 + 1 / len(rounds)) > args.seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before checking
    outcomes = workload.check(rounds[0].pop("outputs"))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": [{k: v for k, v in r.items() if k != "outputs"} for r in rounds],
        "reproducible": len({r["digest"] for r in rounds}) == 1,
        "outcomes": outcomes.as_dict(),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        tracer.uninstall()
        trace_dir = workdir.parent / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump_spans(trace_dir / f"{args.workload}-seed{args.seed}.spans.csv")
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


def _difference(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


if __name__ == "__main__":
    sys.exit(main())
