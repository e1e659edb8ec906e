"""Smoke tests of the measurement tools under tools/."""

import os
import subprocess
import sys
from pathlib import Path

from qbmzeno import numerics

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def test_import_cost_reports_both_statements():
    result = subprocess.run(
        [sys.executable, str(TOOLS / "import_cost.py"), "--runs", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    assert header.split() == ["statement", "runs", "import_ms", "process_ms", "maxrss_mb", "modules"]
    assert [row.rsplit(None, 5)[0] for row in rows] == ["import numpy", "import qbmzeno, qbmzeno.cli"]
    numbers = [[float(v) for v in row.rsplit(None, 5)[1:]] for row in rows]
    for runs, import_ms, process_ms, maxrss_mb, modules in numbers:
        assert runs == 1 and 0 < import_ms < process_ms and maxrss_mb > 0 and modules > 0
    # qbmzeno imports numpy and its own modules on top.
    assert numbers[1][4] > numbers[0][4]


def test_quadrature_sweep_holds_every_point_with_the_pinned_node_count():
    # The user-bath quadrature over all 640 exponential-bath points of the
    # benchmark pool: exit 0 means no point raised or left the mpmath
    # reference by more than 1e-6.  The node total is pinned, so a change
    # to the semi-infinite engine that moves it shows here and has to be
    # recorded with its new count: 3,977,999 with wide Filon panels
    # checked by envelope samples (4,346,725 when the stretch took pi-wide
    # panels only, 6,953,560 when each half took its own pass).  Igamma,
    # a difference of kernels that nearly cancel at short tau, holds
    # 1e-12 (2.0e-7 when it was the difference of the two halves).  No
    # envelope call takes more than numerics._BATCH_NODES nodes: a long
    # head goes out in batches of whole panels, with the same nodes.  The
    # Filon stretch's share is pinned as well: 330,750 FCC nodes and
    # 717,824 envelope samples (1,417,300 FCC nodes on pi-wide panels).
    result = subprocess.run(
        [sys.executable, str(TOOLS / "quadrature_sweep.py")],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].startswith("points 640  failures 0 ")
    worst = lines[1].split()
    assert worst[:3] == ["worst", "relative", "error"]
    assert worst[5] == "Igamma" and float(worst[6]) <= 1e-12
    stretch = lines[-2].split()
    assert stretch[:7] == ["filon", "stretch:", "fcc", "nodes", "330,750", "samples", "717,824"]
    assert stretch[7:] == ["widest", "panel", str(2**numerics._FILON_WIDE_LEVELS), "pi-cells"]
    total = lines[-1].split()
    assert total[:2] == ["nodes", "3,977,999"]
    assert total[2] == "calls" and total[4:6] == ["largest", "call"]
    assert 0 < int(total[6].replace(",", "")) <= numerics._BATCH_NODES


def test_closed_form_sweep_holds_every_point_with_the_pinned_zeta_rows():
    # The closed form over all 640 Lorentz-Drude points of the benchmark
    # pool: exit 0 means no point raised or left the mpmath reference by
    # more than 1e-11.  The 430 direct thermal rows need 114 distinct
    # zeta-tail bounds, and each bound's zeta row is computed once per
    # process (the table of _matsubara._zeta_rows), so the count is pinned.
    # So are the summand evaluations G(nu), the closed form's work: 62,125
    # over the pool (119,297 when rows up to K = 4096 stayed direct and the
    # Gregory tails took a trapezoid step of 0.15), and per branch.
    result = subprocess.run(
        [sys.executable, str(TOOLS / "closed_form_sweep.py"), "--repeat", "1"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].startswith("points 640  failures 0 ")
    assert lines[2].startswith("zeta rows 114 ")
    assert lines[3].startswith("summand evaluations 62,125 ")
    branches = [line.strip().rsplit(None, 5) for line in lines[-3:]]
    assert [row[:3] for row in branches] == [
        ["direct + zeta tail", "430", "27,302"], ["Gregory", "82", "34,823"],
        ["theta = 0", "128", "0"]]
    assert float(branches[1][3]) <= 1e-15  # Gregory's rows against mpmath


def test_crossover_sweep_holds_every_root_with_the_pinned_map_call_counts():
    # Every root of the sweep is within 1e-11 of plain bisection (exit 0),
    # with the Brent-Dekker step total pinned.  The README crossover map
    # at the benchmark's 24 grid points is one closed-form grid pass plus
    # one pass per lock-step Brent-Dekker round: 10 _matsubara.pair calls
    # at n = 0 and 11 at n = 50 (79 and 107 when every cell and every step
    # took its own).  The README fig1 is one closed-form pass per kernel:
    # 2 calls (12, one per column, before).  The two maps make 61,888
    # summand evaluations (127,802 when rows up to K = 4096 stayed direct
    # and the Gregory tails took a trapezoid step of 0.15).  A change that
    # moves a count shows here.
    result = subprocess.run(
        [sys.executable, str(TOOLS / "crossover_sweep.py")],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert lines[-4].startswith("roots 51, refine steps 277 ")
    assert lines[-2] == "README crossover map, _matsubara.pair calls: n=0 10, n=50 11; fig1: 2"
    assert lines[-1] == ("README crossover map, summand evaluations: n=0 31,824, n=50 30,064; "
                         "both 61,888")
