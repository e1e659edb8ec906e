"""Outside-in tracing of the qbmzeno layers, installed from the benchmark.

The library binds names with ``from .x import y``, so a function is
wrapped where it is called: in the namespace of every module that calls
it, plus its own module for calls made inside it.  Every site of one
function shares one wrapper, so a call is counted once.

Spans (name, start, end, parent, operation id) and counters are kept in
memory.  A span's self time is its duration minus the time its child
spans cover.  The wrappers pass every argument and return value through
untouched, and they never swallow an exception: the integrand wrapper in
particular must fail exactly when the integrand fails, or the engine's
scalar fallback would run a different program.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import numpy as np

from qbmzeno import cli, coefficients, dynamics, numerics, zeno

COEFFICIENT_FUNCTIONS = (
    "integrated_diffusion",
    "integrated_damping",
    "diffusion_coefficient",
    "damping_coefficient",
    "tabulate_coefficients",
)


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.self_time: defaultdict = defaultdict(float)
        self.operation = 0
        self._stack: list[list] = []  # [name, start, child_time, index]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _enter(self, name: str) -> list:
        if not self._stack:
            self.operation += 1  # a top-level call is one operation
        parent = self._stack[-1][3] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.operation))
        frame = [name, self.clock(), 0.0, len(self.spans) - 1]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = self.clock()
        self._stack.pop()
        name, start, child_time, index = frame
        duration = end - start
        self.spans[index] = (name, start, end, self.spans[index][3], self.operation)
        self.self_time[name] += duration - child_time
        if self._stack:
            self._stack[-1][2] += duration

    def spanned(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; count its calls; ``after(result)`` may add counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if after is not None:
                after(result)
            return result

        return wrapper

    def counting(self, name: str, fn):
        """Count successful calls of a scalar function."""

        @functools.wraps(fn)
        def wrapper(x):
            y = fn(x)
            self.counts[name] += 1
            return y

        return wrapper

    # -- installation --------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, model_classes) -> None:
        counts = self.counts

        # cli: the command entry point, called from the benchmark.
        self._patch(cli, "main", self.spanned("cli.main", cli.main))

        # numerics: the adaptive head, called inside its own module.
        self._patch(numerics, "integrate_adaptive",
                    self.spanned("numerics.integrate_adaptive", numerics.integrate_adaptive))

        # numerics.integrate_semi_infinite as called from coefficients, with
        # its integrand counted (abscissae and batches).
        semi_infinite = self.spanned("numerics.integrate_semi_infinite",
                                     coefficients.integrate_semi_infinite)

        def quadrature(f, *args, **kwargs):
            counts["coefficients.quadratures"] += 1

            def integrand(x):
                y = f(x)
                counts["numerics.batches"] += 1
                counts["numerics.points"] += np.size(x)
                return y

            return semi_infinite(integrand, *args, **kwargs)

        self._patch(coefficients, "integrate_semi_infinite", quadrature)

        # coefficients: one wrapper per function, patched at every call site.
        for fname in COEFFICIENT_FUNCTIONS:
            original = getattr(coefficients, fname)
            wrapper = self.spanned("coefficients." + fname, original)
            for module in (coefficients, zeno, dynamics, cli):
                if getattr(module, fname, None) is original:
                    self._patch(module, fname, wrapper)

        # spectral: points handed to the bath model (outermost call only, so
        # a density_over_omega that calls density is counted once).
        depth = [0]

        def count_points(fn):
            @functools.wraps(fn)
            def wrapper(model, omega):
                depth[0] += 1
                try:
                    out = fn(model, omega)
                finally:
                    depth[0] -= 1
                if depth[0] == 0:
                    counts["spectral.points"] += np.size(omega)
                return out

            return wrapper

        for cls in model_classes:
            for meth in ("density", "density_over_omega"):
                self._patch(cls, meth, count_points(getattr(cls, meth)))

        # zeno: rates, crossover searches, bracket grid and root steps.
        self._patch(zeno, "effective_decay_rate",
                    self.spanned("zeno.effective_decay_rate", zeno.effective_decay_rate))
        self._patch(zeno, "find_crossover_time",
                    self.spanned("zeno.find_crossover_time", zeno.find_crossover_time))
        scan, bisect = zeno.scan_for_bracket, zeno.bisect
        self._patch(zeno, "scan_for_bracket",
                    lambda f, grid: scan(self.counting("zeno.grid_evals", f), grid))
        self._patch(zeno, "bisect",
                    lambda f, bracket, tol: bisect(self.counting("zeno.root_steps", f), bracket, tol))

        # dynamics: the shuttered protocol and the free-decay survivals.
        def ladder_rows(result):
            counts["dynamics.ladder_steps"] += len(result.trace.times)

        self._patch(dynamics, "shuttered_comparison",
                    self.spanned("dynamics.shuttered_comparison", dynamics.shuttered_comparison,
                                 after=ladder_rows))
        self._patch(dynamics, "unshuttered_survival",
                    self.spanned("dynamics.unshuttered_survival", dynamics.unshuttered_survival))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- reporting -----------------------------------------------------
    def snapshot(self) -> dict:
        """Counts and self times so far (per-round values are differences)."""
        return {"counts": dict(self.counts), "self_s": dict(self.self_time)}

    def dump_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,operation\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")
