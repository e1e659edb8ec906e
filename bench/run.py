#!/usr/bin/env python3
"""qbmzeno benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (the library is imported from ./src):

    python3 bench/run.py --workload rate-queries --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload, untraced

Workloads: rate-queries, user-bath, crossover-map, ion-protocol (see
workloads.py).  Each run starts fresh interpreters with the BLAS/OpenMP
pools pinned to one thread: five that only set up, to time set-up, and
one worker that sets up and then repeats the workload's round
(single process, closed loop, one caller, jobs=1) for ``--seconds``.

Times are reported in reference seconds (calibration.py): the machine's
speed, measured with a fixed kernel in the same process, divides out.
setup_s is the median over the probes of the time from process start to
``ready``, scaled by the kernel speed each probe measured right after.

setup_s carries the unit ``s`` but, like the other times, its value is in
reference seconds (seconds at the reference speed), not raw wall
seconds; the raw set-up time is printed in the note.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the untraced
worker, a traced worker for one round and a traced worker for the time
budget; it requires the outputs of all three to be bit-identical and the
work counters to repeat exactly from round to round and between the two
traced processes, and prints the per-layer metrics.  The last
line of output is one JSON object: correct, attempted, failed, metrics.

``failed`` counts the operations of one round that raised, returned an
unexpected exit code or status, or missed the engine-independent
reference by more than the relative tolerance 1e-3; ``attempted`` is the
number of operations in one round.  ``correct`` is false when a worker
failed, a round did not reproduce the first one, or tracing changed an
output or a counter.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("rate-queries", "user-bath", "crossover-map", "ion-protocol")
SETUP_PROBES = 5
DEADLINE_S = 170.0
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "wall_ref_s": "ref_s",
    "queries_per_ref_s": "1/ref_s",
    "query_p50_ref_ms": "ref_ms",
    "query_tail_ref_ms": "ref_ms",
    "peak_rss_mb": "MB",
}

_COEFFICIENTS = ("integrated_diffusion", "integrated_damping", "diffusion_coefficient",
                 "damping_coefficient", "tabulate_coefficients")
PER_LAYER = {
    "numerics.points": "count",
    "numerics.batches": "count",
    "numerics.integrate_semi_infinite.self_s": "s",
    "numerics.integrate_adaptive.calls": "count",
    "numerics.integrate_adaptive.self_s": "s",
    "coefficients.quadratures": "count",
    **{f"coefficients.{f}.{k}": u for f in _COEFFICIENTS for k, u in (("calls", "count"), ("self_s", "s"))},
    "spectral.points": "count",
    "zeno.effective_decay_rate.calls": "count",
    "zeno.effective_decay_rate.self_s": "s",
    "zeno.find_crossover_time.calls": "count",
    "zeno.find_crossover_time.self_s": "s",
    "zeno.grid_evals": "count",
    "zeno.root_steps": "count",
    "zeno.escape_warnings": "count",
    "dynamics.shuttered_comparison.self_s": "s",
    "dynamics.ladder_steps": "count",
    "dynamics.unshuttered_survival.calls": "count",
    "dynamics.unshuttered_survival.self_s": "s",
    "cli.main.self_s": "s",
    "cli.bytes_written": "B",
    "check.fail_frac": "1",
    "check.max_rel_err": "1",
    "trace.overhead_frac": "1",
}


class BenchError(Exception):
    pass


def _child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QBMZENO_OUT"}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(BENCH)])
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _spawn(root: Path, args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return (seconds until it printed ``ready``, its report)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=_child_env(root), stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if first.strip() != "ready":
            raise BenchError(f"worker did not start: {first.strip()!r}")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker overran the run deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def _worker_args(workload: str, seed: int, seconds: float, trace: int, workdir: Path,
                 min_rounds: int = 1) -> list[str]:
    return ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--min-rounds", str(min_rounds), "--workdir", str(workdir)]


def _tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples above it (the maximum when
    there are too few samples), with that percentile."""
    xs = sorted(values)
    if len(xs) <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[-TAIL_BEYOND - 1], 100.0 * (len(xs) - TAIL_BEYOND) / len(xs)


def _latency_stats(rounds: list[dict], key: str) -> dict:
    """Median round total, throughput, and median and tail of the per-operation
    medians over rounds, for latencies in seconds or costs in ref_s."""
    per_op = sorted(statistics.median(op) for op in zip(*(r[key] for r in rounds)))
    tail, pct = _tail(per_op)
    return {
        "wall": statistics.median(sum(r[key]) for r in rounds),
        "per_s": sum(len(r[key]) for r in rounds) / sum(sum(r[key]) for r in rounds),
        "p50_ms": 1e3 * statistics.median(per_op),
        "tail_ms": 1e3 * tail,
        "tail_pct": pct,
        "samples": len(per_op),
    }


def _end_to_end(setups: list[tuple[float, float]], report: dict) -> tuple[dict, str]:
    rounds = report["rounds"]
    ref = _latency_stats(rounds, "costs")
    raw = _latency_stats(rounds, "latencies")
    values = {
        "setup_s": statistics.median(ref_s for _, ref_s in setups),
        "wall_ref_s": ref["wall"],
        "queries_per_ref_s": ref["per_s"],
        "query_p50_ref_ms": ref["p50_ms"],
        "query_tail_ref_ms": ref["tail_ms"],
        "peak_rss_mb": report["peak_rss_mb"],
    }
    unit_ms = 1e3 * statistics.median(r["unit_s"] for r in rounds)
    note = (f"raw: setup {statistics.median(raw_s for raw_s, _ in setups):.4f} s, "
            f"wall_s {raw['wall']:.4f} s, queries_per_s {raw['per_s']:.4f} 1/s, "
            f"query_p50_ms {raw['p50_ms']:.4f} ms, query_tail_ms {raw['tail_ms']:.4f} ms; "
            f"one ref_ms took {unit_ms:.4f} ms here; tails are p{ref['tail_pct']:g} of "
            f"{ref['samples']} per-operation medians over {len(rounds)} rounds; "
            f"setup_s is the median of {len(setups)} fresh interpreters, in reference seconds")
    return values, note


def _per_layer(traced: dict, untraced: dict) -> dict:
    rounds = traced["rounds"]
    counts, self_s = rounds[0]["counts"], {}
    for name in {k for r in rounds for k in r["self_s"]}:
        self_s[name] = statistics.median(r["self_s"].get(name, 0.0) for r in rounds)
    outcomes = traced["outcomes"]
    values = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            values[name] = self_s.get(name[: -len(".self_s")], 0.0)
        else:
            values[name] = counts.get(name, 0)
    values["zeno.escape_warnings"] = rounds[0]["escape_warnings"]
    values["cli.bytes_written"] = rounds[0]["bytes_written"]
    values["check.fail_frac"] = outcomes["failed"] / outcomes["attempted"]
    values["check.max_rel_err"] = outcomes["max_rel_err"]
    values["trace.overhead_frac"] = (
        statistics.median(sum(r["costs"]) for r in rounds)
        / statistics.median(sum(r["costs"]) for r in untraced["rounds"]) - 1.0
    )
    return values


def _counters_repeat(traced: dict, again: dict) -> list[str]:
    """Counter names whose per-round counts differ between the rounds of the
    traced run or from the first round of a second traced process."""
    first = traced["rounds"][0]["counts"]
    others = [r["counts"] for r in traced["rounds"][1:]] + [again["rounds"][0]["counts"]]
    return sorted({k for other in others for k in set(first) | set(other)
                   if first.get(k) != other.get(k)})


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "not installed"


def environment(root: Path) -> dict:
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        **{pkg: _version(pkg) for pkg in ("numpy", "scipy", "mpmath")},
        "nproc": len(os.sched_getaffinity(0)),
        "threads": 1,
    }


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    workdir = root / ".bench_out" / f"run-{os.getpid()}-{workload}"
    args = _worker_args(workload, seed, seconds, 0, workdir)
    problems = []
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setup, probe = _spawn(root, args + ["--setup-only"], deadline)
            setups.append((setup, setup * probe["ref_per_s"]))
    report = _spawn(root, args, deadline)[1]
    if not report["reproducible"]:
        problems.append("rounds did not reproduce the first round's outputs")
    outcomes = report["outcomes"]
    if trace:
        # One traced round in a process of its own, then the traced run proper
        # (two rounds at least, so that its counters can repeat; it runs last
        # so that its spans are the ones kept).
        again = _spawn(root, _worker_args(workload, seed, 0, 1, workdir), deadline)[1]
        traced = _spawn(root, _worker_args(workload, seed, seconds, 1, workdir, 2), deadline)[1]
        digest = report["rounds"][0]["digest"]
        if {traced["rounds"][0]["digest"], again["rounds"][0]["digest"]} != {digest}:
            problems.append("traced outputs differ from untraced outputs")
        if not traced["reproducible"]:
            problems.append("traced rounds did not reproduce each other")
        changed = _counters_repeat(traced, again)
        if changed:
            problems.append("counters did not repeat: " + ", ".join(changed))
        metrics, units = _per_layer(traced, report), PER_LAYER
        note = f"per-round counts; self times are medians over {len(traced['rounds'])} traced rounds"
    else:
        (metrics, note), units = _end_to_end(setups, report), END_TO_END
    return {
        "workload": workload,
        "seed": seed,
        "correct": not problems and outcomes["attempted"] > 0,
        "problems": problems,
        "attempted": outcomes["attempted"],
        "failed": outcomes["failed"],
        "failures": outcomes["failures"],
        "max_rel_err": outcomes["max_rel_err"],
        "rounds": len(report["rounds"]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "note": note,
    }


def _print_block(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  rounds {result['rounds']}  "
          f"correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:<22.10g} {m['unit']}")
    print(f"  {'fail_frac':44s} {result['failed'] / result['attempted']:<22.10g} 1   "
          f"({result['failed']} of {result['attempted']} operations per round: "
          f"{result['failures'] or 'none'}; relative tolerance 1e-3)")
    print(f"  {'max_rel_err':44s} {result['max_rel_err']:<22.10g} 1")
    print(f"  note: {result['note']}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "qbmzeno" / "__init__.py").is_file():
        print("bench: run from the root of a qbmzeno checkout (src/qbmzeno not found)",
              file=sys.stderr)
        return 2
    if not 0 < args.seconds <= 60:
        print("bench: --seconds must lie in (0, 60]", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.perf_counter() + DEADLINE_S * len(names)
    try:
        results = [run_workload(root, name, args.seed, args.seconds, args.trace, deadline)
                   for name in names]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print("env: " + json.dumps(environment(root)))
    for result in results:
        _print_block(result)
    if len(results) == 1:
        r = results[0]
        final = {"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
                 "metrics": r["metrics"]}
    else:
        final = {r["workload"]: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
                 for r in results}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
