"""The benchmark tracer still installs against the library and uninstalls cleanly.

``bench/tracing.py`` wraps library names where they are called; a change
that drops one of them would otherwise break only traced benchmark runs.
One round of each workload that runs the CLI passes the workload's own
check.  ``bench/`` is loaded read-only (no bytecode written under it).
"""

import importlib.util
import sys
import time
from pathlib import Path

import pytest

from qbmzeno.coefficients import integrated_pair
from qbmzeno.spectral import OhmicLorentzDrude, ReservoirParams

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_patched_name(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = _load_bench("tracing", monkeypatch)
    exponential = _load_bench("userbath", monkeypatch).ExponentialOhmic
    tracer = tracing.Tracer()
    try:
        tracer.install([OhmicLorentzDrude, exponential])
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original, (owner, attr)
        # A user-bath pair takes its one quadrature, both kernel terms in
        # one pass, through the traced names.
        integrated_pair(ReservoirParams(r=0.5, theta=1.0, alpha=0.1), exponential(0.5), 2.0)
        assert tracer.counts["coefficients.quadratures"] == 1
        assert tracer.counts["numerics.integrate_adaptive.calls"] > 0
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, (owner, attr)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", ["crossover-map", "ion-protocol"])
def test_cli_workload_round_passes_its_own_check(name, seed, tmp_path, monkeypatch):
    # These two workloads call cli.main every round; a round that raises,
    # exits nonzero or writes wrong values would otherwise show only when
    # the benchmark runs.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, "userbath", _load_bench("userbath", monkeypatch))
    workloads = _load_bench("workloads", monkeypatch)
    workload = workloads.make(name, seed, workloads.load_reference(), tmp_path)
    result = workload.run_round(time.perf_counter)
    outcomes = workload.check(result["outputs"]).as_dict()
    assert outcomes["failed"] == 0 and outcomes["attempted"] > 0, outcomes
