"""Smoke tests of the measurement tools under tools/."""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


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
