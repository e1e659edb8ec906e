"""What ``import qbmzeno`` loads: numpy, and neither scipy nor test machinery."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# Packages a numpy-only runtime has no reason to load; scipy.special alone
# pulls in numpy.testing, numpy.f2py and unittest.
UNWANTED = ("scipy", "mpmath", "numpy.testing", "numpy.f2py", "unittest")


def _newly_loaded(module: str) -> list[str]:
    """The modules that ``import module`` adds to sys.modules in a fresh interpreter."""
    code = (
        "import json, sys; before = set(sys.modules); "
        f"import {module}; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_import_loads_no_unwanted_scipy_subpackage():
    for module in ("qbmzeno", "qbmzeno.cli"):
        loaded = _newly_loaded(module)
        assert module in loaded and "numpy" in loaded
        unwanted = [m for m in loaded if any(m == u or m.startswith(u + ".") for u in UNWANTED)]
        assert unwanted == [], module


def test_physics_api_takes_no_quadrature_or_policy_knobs():
    # The quadrature tolerance is decided in numerics alone; the escape
    # check only warns; the regime band is RATIO_TOL; every grid runs in
    # this process.
    import inspect

    from qbmzeno import coefficients, dynamics, zeno

    knobs = {"spec", "strict", "ratio_tol", "jobs"}
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


def test_top_level_is_the_physics_and_its_errors():
    # The quadrature engine (QuadratureSpec, RootBracket, bisect,
    # integrate_*, scan_for_bracket) stays in qbmzeno.numerics.
    import inspect

    import qbmzeno
    from qbmzeno import coefficients, dynamics, errors, spectral, zeno

    physics = {name for module in (coefficients, dynamics, zeno, spectral, errors)
               for name in module.__all__}
    kept = {"QuadratureError", "NonConvergenceError", "NonFiniteError"}
    public = {name for name, obj in vars(qbmzeno).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public - physics == kept


def test_a_user_bath_rate_loads_no_numpy_ma():
    # numpy.ma costs about a megabyte of peak memory, and np.unique (not
    # called by numerics) imports it on its first call in a process.
    code = (
        "import sys; sys.path.insert(0, 'bench'); "
        "from userbath import ExponentialOhmic; "
        "from qbmzeno.spectral import ReservoirParams; "
        "from qbmzeno.zeno import effective_decay_rate; "
        "params = ReservoirParams(r=0.5, theta=1.0, alpha=0.1); "
        "rate = effective_decay_rate(params, ExponentialOhmic(0.5), 0, 3.0); "
        "print(rate > 0.0, 'numpy.ma' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run([sys.executable, "-c", code], cwd=SRC.parent, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["True", "False"]
