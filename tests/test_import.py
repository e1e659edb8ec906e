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


def test_physics_api_takes_no_quadrature_or_policy_knobs():
    # The quadrature tolerance is decided in numerics alone; the escape
    # check only warns; the regime band is RATIO_TOL.
    import inspect

    from qbmzeno import coefficients, dynamics, zeno

    knobs = {"spec", "strict", "ratio_tol"}
    found = []
    for module in (coefficients, dynamics, zeno):
        for name in module.__all__:
            obj = getattr(module, name)
            callables = [(name, obj)] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                callables += [
                    (f"{name}.{attr}", fn)
                    for attr, fn in inspect.getmembers(obj, inspect.isfunction)
                    if not attr.startswith("_")
                ]
            for qualname, fn in callables:
                params = set(inspect.signature(fn).parameters)
                found += [f"{module.__name__}.{qualname}({p})" for p in sorted(params & knobs)]
    assert found == []
    assert "n_max" not in inspect.signature(dynamics.shuttered_comparison).parameters
