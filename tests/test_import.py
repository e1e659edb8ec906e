"""What ``import qbmzeno`` loads: none of the slow-to-import scipy subpackages."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
UNWANTED = ("scipy.interpolate", "scipy.integrate", "scipy.optimize", "scipy.stats")


def test_import_loads_no_unwanted_scipy_subpackage():
    code = (
        "import json, sys, qbmzeno; "
        f"print(json.dumps(sorted(m for m in {UNWANTED!r} if m in sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []
