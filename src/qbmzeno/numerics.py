"""Adaptive quadrature and bracketed root finding.

Physics-agnostic engines used by every coefficient and decay-rate
computation: a semi-infinite integrator with oscillation-aware panelling
and tail completion, deterministic bisection on sign-change brackets,
and the ordered (optionally multi-process) map behind every grid.
All routines are pure functions of their inputs and bit-reproducible for
a fixed spec on one platform (fixed evaluation and summation order).

Integrand contract: called with a 1-D array of N nodes, an integrand
returns N values, or a (k, N) array holding k integrands that share the
nodes (for example two weights against one kernel).  The quadratures
then return length-k arrays; each component is refined, stopped and
checked against its own tolerance max(abs_tol, rel_tol*|I_c|), and only
the evaluations are shared.  Any other shape raises ValueError, and
every exception and warning an integrand raises reaches the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadratureError",
    "NonFiniteError",
    "NonConvergenceError",
    "InvalidBracketError",
    "QuadratureSpec",
    "RootBracket",
    "integrate_adaptive",
    "integrate_semi_infinite",
    "bisect",
    "ordered_map",
    "scan_for_bracket",
]


class QuadratureError(Exception):
    """Base class for quadrature engine failures."""


class NonFiniteError(QuadratureError):
    """The integrand returned NaN or infinity at an evaluation point."""


class NonConvergenceError(QuadratureError):
    """Subdivision budget exhausted with the error estimate above tolerance."""


class InvalidBracketError(Exception):
    """A root bracket without a sign change was supplied."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budgets for the integration engines."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0):
            raise ValueError("abs_tol must be positive")
        if not (self.rel_tol > 0.0):
            raise ValueError("rel_tol must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


@dataclass(frozen=True)
class RootBracket:
    """An interval [lo, hi] on which f changes sign (or touches zero)."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self) -> None:
        if not (self.lo < self.hi):
            raise InvalidBracketError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")
        if self.f_lo * self.f_hi > 0.0:
            raise InvalidBracketError(
                f"no sign change on [{self.lo}, {self.hi}]: f_lo={self.f_lo}, f_hi={self.f_hi}"
            )


# 15-point Kronrod extension of 7-point Gauss on [-1, 1].  The embedded
# G7 weights are zero on Kronrod-only nodes so both rules share one
# evaluation batch.
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_K15_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_G7_WEIGHTS = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0,
    0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
])

_MAX_INITIAL_PANELS = 20000
# Tail segments span a quarter oscillation (keeps the embedded-rule error
# per segment near machine precision); blocks end on whole-period
# boundaries so the partial sums are smooth in 1/u.
_TAIL_SEGMENTS_PER_PERIOD = 4
_TAIL_BLOCK_PERIODS = 128
_TAIL_MAX_BLOCKS = 96
_NEVILLE_POINTS = 6
# Geometric head breakpoints lower + (period/4) * 2**-k, k = 1..40: they
# resolve an integrand concentrated in a sliver at the lower end of the
# first quarter period (a narrow bath seen at short times).
_ORIGIN_BREAKS = 2.0 ** -np.arange(40, 0, -1, dtype=float)


class _Evaluator:
    """``f`` as a map from N nodes to a (k, N) array of values.

    ``f`` takes a 1-D array of N nodes and returns shape (N,) (one
    component) or (k, N) (k components sharing the nodes); any other
    shape raises ValueError.  ``scalar`` records the (N,) form, so the
    public entry points return floats rather than length-1 arrays.
    """

    def __init__(self, f: Callable) -> None:
        self.f = f
        self.scalar = True

    def __call__(self, x: np.ndarray) -> np.ndarray:
        y = np.asarray(self.f(x), dtype=float)
        if y.shape == x.shape:
            return y[None, :]
        if y.ndim == 2 and y.shape[1:] == x.shape:
            self.scalar = False
            return y
        raise ValueError(
            f"integrand returned shape {y.shape} for {x.size} nodes; "
            f"expected ({x.size},) or (k, {x.size})"
        )

    def result(self, values: np.ndarray):
        """A float for a one-component integrand, the (k,) array otherwise."""
        return float(values[0]) if self.scalar else values


def _as_evaluator(f: Callable) -> _Evaluator:
    return f if isinstance(f, _Evaluator) else _Evaluator(f)


def _evaluate_panels(evaluate, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Integrand values at the GK15 nodes of every panel, shape (k, panels, 15)."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _GK_NODES[None, :]
    y = evaluate(nodes.ravel())
    if not np.all(np.isfinite(y)):
        bad = nodes.ravel()[~np.all(np.isfinite(y), axis=0)][0]
        raise NonFiniteError(f"integrand returned a non-finite value near x={bad!r}")
    return y.reshape(y.shape[0], *nodes.shape)


def _gk_rule(y: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GK15 values and error estimates of one component from its (panels, 15) node values."""
    half = 0.5 * (hi - lo)
    kron = half * (y @ _K15_WEIGHTS)
    gauss = half * (y @ _G7_WEIGHTS)
    return kron, np.abs(kron - gauss)


def _tolerance(spec: QuadratureSpec, value):
    """Tolerance max(abs_tol, rel_tol * |value|), per component for arrays."""
    return np.maximum(spec.abs_tol, spec.rel_tol * np.abs(value))


class _Partition:
    """One component's panels in the adaptive head.

    Each component of a (k, N) integrand refines its own partition by its
    own tolerance, exactly as it would alone, so its result does not
    depend on the other components (the evaluations are shared, the
    panel decisions are not).
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray, y: np.ndarray, label: str) -> None:
        self.lo, self.hi = lo, hi
        self.vals, self.errs = _gk_rule(y, lo, hi)
        self.splits = 0
        self.label = label
        self.result: tuple[float, float] | None = None

    def next_split(self, spec: QuadratureSpec, span: float) -> np.ndarray | None:
        """Mask of the panels to bisect next, or None once converged."""
        total = float(np.sum(self.vals))
        err_total = float(np.sum(self.errs))
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if err_total <= tol:
            self.result = (total, err_total)
            return None
        # Refine every panel above its width-share of half the budget;
        # skip panels already at floating-point resolution.
        lo, hi = self.lo, self.hi
        widths = hi - lo
        splittable = widths > 64.0 * np.finfo(float).eps * np.maximum(np.abs(lo), np.abs(hi))
        mask = (self.errs > 0.5 * tol * widths / span) & splittable
        n_split = int(np.count_nonzero(mask))
        if n_split == 0:
            if err_total <= 2.0 * tol:
                self.result = (total, err_total)
                return None
            raise NonConvergenceError(
                f"error estimate {err_total:.3e} above tolerance {tol:.3e}{self.label} "
                "with no splittable panel left"
            )
        if self.splits + n_split > spec.max_subdivisions:
            raise NonConvergenceError(
                f"subdivision budget {spec.max_subdivisions} exhausted{self.label} "
                f"(error estimate {err_total:.3e}, tolerance {tol:.3e})"
            )
        self.splits += n_split
        return mask

    def refine(self, mask: np.ndarray, new_lo: np.ndarray, new_hi: np.ndarray, y: np.ndarray) -> None:
        """Replace the masked panels by their halves (left halves first)."""
        new_vals, new_errs = _gk_rule(y, new_lo, new_hi)
        lo = np.concatenate([self.lo[~mask], new_lo])
        hi = np.concatenate([self.hi[~mask], new_hi])
        vals = np.concatenate([self.vals[~mask], new_vals])
        errs = np.concatenate([self.errs[~mask], new_errs])
        order = np.argsort(lo, kind="stable")
        self.lo, self.hi, self.vals, self.errs = lo[order], hi[order], vals[order], errs[order]


def integrate_adaptive(
    f: Callable,
    a: float,
    b: float,
    spec: QuadratureSpec | None = None,
    max_panel_width: float | None = None,
    breakpoints: np.ndarray | None = None,
):
    """Adaptive GK15 panel quadrature of f on the finite interval [a, b].

    Panels whose error exceeds their width-share of the tolerance are
    bisected until the summed estimate meets max(abs_tol, rel_tol*|I|)
    or the subdivision budget is exhausted (NonConvergenceError).
    ``max_panel_width`` pre-splits the interval so no initial panel spans
    more than that width (used to keep oscillations resolved);
    ``breakpoints`` inside (a, b) are added to the initial panel edges.

    ``f`` may return one value per node or a (k, N) array for N nodes:
    k integrands sharing every node.  Each component then has its own
    tolerance and its own panels: a panel is bisected for the components
    above their share on it, and halves wanted by several components are
    evaluated once.  Every component's (value, error) is bit-identical to
    a run on that component alone; they are returned as length-k arrays.
    An (N,)-valued ``f`` gives floats; so does an empty interval, which
    evaluates nothing.
    """
    spec = spec or QuadratureSpec()
    if b == a:
        return 0.0, 0.0
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    evaluate = _as_evaluator(f)

    if max_panel_width is not None and max_panel_width > 0.0:
        n0 = min(int(math.ceil((b - a) / max_panel_width)), _MAX_INITIAL_PANELS)
    else:
        n0 = 1
    edges = np.linspace(a, b, n0 + 1)
    if breakpoints is not None:
        inner = np.asarray(breakpoints, dtype=float)
        edges = np.unique(np.concatenate([edges, inner[(inner > a) & (inner < b)]]))
    lo, hi = edges[:-1], edges[1:]
    y = _evaluate_panels(evaluate, lo, hi)
    labels = [f" in component {c}" if len(y) > 1 else "" for c in range(len(y))]
    parts = [_Partition(lo, hi, y_c, label) for y_c, label in zip(y, labels)]

    span = b - a
    while True:
        masks = {}
        for c, part in enumerate(parts):
            if part.result is None:
                mask = part.next_split(spec, span)
                if mask is not None:
                    masks[c] = mask
        if not masks:
            break
        # Bisect each marked panel once, however many components marked it.
        parents = np.concatenate(
            [np.stack([parts[c].lo[m], parts[c].hi[m]]) for c, m in masks.items()], axis=1
        )
        if len(masks) == 1:
            unique, inverse = parents, np.arange(parents.shape[1])
        else:
            unique, inverse = np.unique(parents, axis=1, return_inverse=True)
            inverse = inverse.ravel()
        mid = 0.5 * (unique[0] + unique[1])
        child_lo = np.concatenate([unique[0], mid])
        child_hi = np.concatenate([mid, unique[1]])
        y = _evaluate_panels(evaluate, child_lo, child_hi)
        n_unique = unique.shape[1]
        start = 0
        for c, mask in masks.items():
            rows = inverse[start:start + int(np.count_nonzero(mask))]
            start += rows.size
            take = np.concatenate([rows, rows + n_unique])
            parts[c].refine(mask, child_lo[take], child_hi[take], y[c][take])

    value = np.array([part.result[0] for part in parts])
    err = np.array([part.result[1] for part in parts])
    return evaluate.result(value), evaluate.result(err)


def _neville_to_zero(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polynomial extrapolation of (xs, ys) to x = 0, with an error guess.

    ``ys`` has one row per abscissa and one column per component.
    """
    n = len(xs)
    tableau = list(ys)
    best = tableau[0]
    correction = np.abs(best)
    for level in range(1, n):
        for i in range(n - level):
            x_lo, x_hi = xs[i], xs[i + level]
            tableau[i] = (x_hi * tableau[i] - x_lo * tableau[i + 1]) / (x_hi - x_lo)
        correction = np.abs(tableau[0] - best)
        best = tableau[0]
    return best, correction


def _oscillatory_tail(
    evaluate, start: float, period: float, tol: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Integral of f over [start, inf) for an oscillation of known period.

    Sums quarter-period segments in whole-period blocks (one GK15 batch
    per block, so the embedded-rule error per segment stays near machine
    precision) and extrapolates the block-boundary partial sums in 1/u
    to their limit.  Accurate whenever the per-period sums decay like a
    power law, which covers smooth-envelope trigonometric tails down to
    conditionally convergent 1/u envelopes.

    ``tol`` holds one tolerance per component.  A component keeps the
    estimate of the block where it first met its tolerance (later blocks
    only add rule error to it), and summation stops once every component
    has; a component that never does returns its best estimate.
    """
    partial = np.zeros_like(tol)
    rule_err = np.zeros_like(tol)
    boundary_u: list[float] = []
    boundary_s: list[np.ndarray] = []
    u = start
    value = np.zeros_like(tol)
    err = np.full_like(tol, math.inf)
    done = np.zeros(tol.shape, dtype=bool)
    n_segments = _TAIL_BLOCK_PERIODS * _TAIL_SEGMENTS_PER_PERIOD
    width = period / _TAIL_SEGMENTS_PER_PERIOD
    for _ in range(_TAIL_MAX_BLOCKS):
        edges = u + width * np.arange(n_segments + 1, dtype=float)
        lo, hi = edges[:-1], edges[1:]
        y = _evaluate_panels(evaluate, lo, hi)
        block_sum, block_err = np.empty_like(tol), np.empty_like(tol)
        for c, y_c in enumerate(y):
            vals, errs = _gk_rule(y_c, lo, hi)
            block_sum[c], block_err[c] = np.sum(vals), np.sum(errs)
        partial = partial + block_sum
        rule_err = rule_err + block_err
        u = float(edges[-1])
        boundary_u.append(u)
        boundary_s.append(partial)
        if len(boundary_u) >= 3:
            k = min(_NEVILLE_POINTS, len(boundary_u))
            xs = 1.0 / np.array(boundary_u[-k:])
            ys = np.array(boundary_s[-k:])
            estimate, correction = _neville_to_zero(xs, ys)
            last_block = np.abs(boundary_s[-1] - boundary_s[-2])
            est_err = rule_err + correction + 1e-3 * last_block
            better = ~done & (est_err < err)
            value[better] = estimate[better]
            err[better] = est_err[better]
            done |= est_err <= tol
            if np.all(done):
                break
    return value, err


def integrate_semi_infinite(
    f: Callable,
    spec: QuadratureSpec | None = None,
    *,
    lower: float = 0.0,
    oscillation_period: float,
    tail_exponent: float = 2.0,
):
    """Integrate f over [lower, inf); returns (value, error_estimate).

    ``f`` carries a persistent oscillation of period
    ``oscillation_period`` under an envelope that decays at least like
    C/omega**tail_exponent, with ``tail_exponent >= 2`` (counting the
    kernel's own decay).  The interval is split into an adaptively
    panelled head and a tail: the head is pre-split so no panel spans
    more than a quarter oscillation, its first quarter period is further
    cut at the geometric breakpoints lower + (period/4) * 2**-k,
    k = 1..40 (so an integrand confined to a sliver next to ``lower`` is
    still seen), and the tail is completed by period-segment summation
    with extrapolation.  Removable singularities must already be
    regularized by the caller (e.g. expressed through sinc).

    ``f`` returns one value per node, or a (k, N) array for N nodes
    holding k integrands that share every evaluation (for example two
    weights against one kernel).  Each component keeps its own tolerance
    max(abs_tol, rel_tol*|I_c|) in the head, the tail and the final
    check, which raises NonConvergenceError if any component fails, so
    its result is bit-identical to integrating it alone; the value and
    error are then length-k arrays.  An (N,)-valued ``f`` gives floats.
    """
    spec = spec or QuadratureSpec()
    if not math.isfinite(lower):
        raise ValueError("lower bound must be finite")
    if tail_exponent < 2.0:
        raise ValueError("tail handling requires an envelope exponent >= 2")
    if not (oscillation_period > 0.0):
        raise ValueError("oscillation_period must be positive")
    evaluate = _as_evaluator(f)

    period = oscillation_period
    cut = lower + max(96.0, 1.5 * abs(lower) + 32.0, 12.0 * period)
    # Align the cut to a whole number of quarter periods.
    n_quarters = int(math.ceil((cut - lower) / (0.25 * period)))
    cut = lower + 0.25 * period * n_quarters
    head, head_err = integrate_adaptive(
        evaluate, lower, cut, spec, max_panel_width=0.25 * period,
        breakpoints=lower + 0.25 * period * _ORIGIN_BREAKS,
    )
    head, head_err = np.atleast_1d(head), np.atleast_1d(head_err)
    share = 0.5 * _tolerance(spec, head)
    tail, tail_err = _oscillatory_tail(evaluate, cut, period, share)

    value = head + tail
    err = head_err + tail_err
    tol = _tolerance(spec, value)
    if np.any(err > 4.0 * tol):
        c = int(np.argmax(err / tol))
        where = f" in component {c}" if err.size > 1 else ""
        raise NonConvergenceError(
            f"semi-infinite integral error estimate {err[c]:.3e} above tolerance "
            f"{tol[c]:.3e}{where}"
        )
    return evaluate.result(value), evaluate.result(err)


def bisect(f: Callable[[float], float], bracket: RootBracket, tol: float) -> float:
    """Bisection on a validated bracket down to an interval of width tol.

    Deterministic: the returned value is the midpoint of the final
    interval, and the sign-change invariant holds at every iteration.
    """
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    lo, hi = bracket.lo, bracket.hi
    f_lo, f_hi = bracket.f_lo, bracket.f_hi
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break  # interval at floating-point resolution
        f_mid = f(mid)
        if not math.isfinite(f_mid):
            raise NonFiniteError(f"function returned a non-finite value at x={mid!r}")
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)


def brackets_from_samples(xs: np.ndarray, ys: np.ndarray) -> list[RootBracket]:
    """Sign-change brackets from already-evaluated samples (xs increasing)."""
    brackets = []
    for i in range(len(xs) - 1):
        y0, y1 = ys[i], ys[i + 1]
        if y0 * y1 < 0.0:
            brackets.append(RootBracket(float(xs[i]), float(xs[i + 1]), float(y0), float(y1)))
        elif y1 == 0.0 and y0 != 0.0:
            # Root pinned at the right edge; emitted once for this zero.
            brackets.append(RootBracket(float(xs[i]), float(xs[i + 1]), float(y0), 0.0))
        elif y0 == 0.0 and y1 != 0.0 and i == 0:
            brackets.append(RootBracket(float(xs[i]), float(xs[i + 1]), 0.0, float(y1)))
    return brackets


def ordered_map(fn: Callable, tasks: Sequence, jobs: int = 1) -> list:
    """[fn(task) for task in tasks], over ``jobs`` worker processes if jobs > 1.

    Results come back in task order whatever the worker count, so the
    output is the same as the in-process run; ``jobs <= 1`` runs in this
    process.  With workers, ``fn`` and the tasks must be picklable.
    """
    if jobs <= 1:
        return [fn(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))


def scan_for_bracket(f: Callable[[float], float], grid: Sequence[float]) -> list[RootBracket]:
    """Return a RootBracket for every adjacent grid pair where f changes sign.

    ``f`` is called once per grid point, with a float.  The grid must be
    strictly increasing with at least two points.  A zero exactly on a
    grid point yields a single bracket ending there.
    """
    xs = np.asarray(grid, dtype=float)
    if xs.ndim != 1 or xs.size < 2:
        raise ValueError("grid must contain at least two points")
    if not np.all(np.diff(xs) > 0.0):
        raise ValueError("grid must be strictly increasing")
    ys = np.array([f(x) for x in xs.tolist()], dtype=float)
    if not np.all(np.isfinite(ys)):
        bad = xs[~np.isfinite(ys)][0]
        raise NonFiniteError(f"function returned a non-finite value at x={bad!r}")
    return brackets_from_samples(xs, ys)
