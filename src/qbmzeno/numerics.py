"""Adaptive quadrature and bracketed root finding.

Physics-agnostic engines used by every coefficient and decay-rate
computation: an adaptive Gauss-Kronrod integrator that stops at the
rounding floor of its error estimate, a semi-infinite integrator of an
envelope against the sinc or sinc^2 kernel (quarter-period panels up to
a cut, past it a non-oscillating integral on x = cut/u and half-period
cycle sums extrapolated with Wynn's epsilon algorithm, with the head
extended per component past structure that samples of the tail show),
deterministic bisection on sign-change brackets, and the ordered
(optionally multi-process) map behind every grid.  All routines are
pure functions of their inputs and bit-reproducible for a fixed spec on
one platform (fixed evaluation and summation order).

Integrand contract: called with a 1-D array of N nodes, an integrand
(for ``integrate_semi_infinite``, the envelope; the engine applies the
kernel) returns N values, or a (k, N) array holding k integrands that
share the nodes (for example two weights against one kernel).  The
quadratures then return length-k arrays; each component is refined,
stopped and checked against its own tolerance max(abs_tol,
rel_tol*|I_c|), and only the evaluations are shared.  Any other shape
raises ValueError, and every exception and warning an integrand raises
reaches the caller.
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
# Geometric breakpoints 2**-k, k = 1..40, toward the lower end of a
# panel: at lower + (period/4) * 2**-k they resolve an integrand
# concentrated in a sliver at the lower end of the first quarter period
# (a narrow bath seen at short times); on x = cut/u they resolve the
# envelope's scale, however far past the cut it lies.
_ORIGIN_BREAKS = 2.0 ** -np.arange(40, 0, -1, dtype=float)
# The tail starts at least this far past max(lower, 0) (more than 12
# periods of either kernel) and sums the half periods of its oscillating
# part in batches until Wynn's epsilon estimates settle; the envelope
# is probed for structure over its first _PROBE_HALF_PERIODS.
_CUT_MARGIN = 96.0
_CYCLES_PER_BATCH = 16
_MAX_CYCLE_BATCHES = 16
_PROBE_HALF_PERIODS = 768


def sinc(x):
    """Unnormalized sinc: sin(x)/x with sinc(0) = 1."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    np.divide(np.sin(x), x, out=out, where=x != 0.0)
    return out


# Kernel name -> (period, phase, head, part, far).  The head applies the
# kernel itself; past the cut it is part(u) + far/u**2, where part
# oscillates with zeros half a period apart from phase on: sinc =
# sin(u)/u, sinc^2 = 1/(2u^2) - cos(2u)/(2u^2).
_KERNELS = {
    "sinc": (2.0 * np.pi, 0.0, sinc, lambda u: np.sin(u) / u, 0.0),
    "sinc2": (np.pi, 0.25 * np.pi, lambda u: sinc(u) ** 2, lambda u: np.cos(2.0 * u) / (-2.0 * u * u), 0.5),
}


class _Evaluator:
    """``f`` as a map from N nodes to a (k, N) array of values.

    ``f`` takes a 1-D array of N nodes and returns shape (N,) (one
    component) or (k, N) (k components sharing the nodes); any other
    shape raises ValueError, a NaN or infinity NonFiniteError.
    ``scalar`` records the (N,) form, so the public entry points return
    floats rather than length-1 arrays.
    """

    def __init__(self, f: Callable) -> None:
        self.f = f
        self.scalar = True

    def __call__(self, x: np.ndarray) -> np.ndarray:
        y = np.asarray(self.f(x), dtype=float)
        if y.shape == x.shape:
            y = y[None, :]
        elif y.ndim == 2 and y.shape[1:] == x.shape:
            self.scalar = False
        else:
            raise ValueError(
                f"integrand returned shape {y.shape} for {x.size} nodes; "
                f"expected ({x.size},) or (k, {x.size})"
            )
        if not np.all(np.isfinite(y)):
            bad = x[~np.all(np.isfinite(y), axis=0)][0]
            raise NonFiniteError(f"integrand returned a non-finite value near x={bad!r}")
        return y

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
        # Splitting does not take |K15 - G7| below its rounding part,
        # about 50 eps sum|K15|: an estimate there is noise, and that
        # floor is the error.
        floor = 50.0 * np.finfo(float).eps * float(np.sum(np.abs(self.vals)))
        if err_total <= floor:
            self.result = (total, float(floor))
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
    bisected until the summed estimate meets max(abs_tol, rel_tol*|I|),
    or falls to its rounding floor 50 eps sum|K15| (returned as the
    error, which may then exceed the tolerance: a caller that needs the
    tolerance compares err itself), or the subdivision budget is
    exhausted (NonConvergenceError).
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


def _wynn_estimates(sums: np.ndarray) -> np.ndarray:
    """Wynn's epsilon-algorithm limits of the partial sums ``sums`` (k, n), n >= 4.

    Builds the epsilon table column by column, each column for all
    components at once, and returns (k, 4): the limit estimate of each
    of the last four prefixes of the sums, the tip of the highest even
    column that prefix reaches.  A repeated value (a converged or zero
    sequence) makes its column entries non-finite; those never replace
    the estimate of a lower column.
    """
    tips = sums[:, -4:].copy()
    prev, cur = np.zeros((sums.shape[0], sums.shape[1] + 1)), sums
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for column in range(1, sums.shape[1]):
            prev, cur = cur, prev[:, 1:-1] + 1.0 / (cur[:, 1:] - cur[:, :-1])
            if column % 2 == 0:
                last = cur[:, -4:]
                tips[:, 4 - last.shape[1]:] = np.where(
                    np.isfinite(last), last, tips[:, 4 - last.shape[1]:]
                )
    return tips


def _cycle_sum(integrand: Callable, start: float, half: float, tol: np.ndarray):
    """Integral over [start, inf) of an ``integrand`` with zeros ``half`` apart, one at ``start``.

    Each half period (zero to zero) is one GK15 panel, and Wynn's epsilon
    algorithm extrapolates the partial sums.  The error estimate is the
    spread of the last four extrapolated values plus the summed rule
    errors.  ``tol`` holds one tolerance per component: a component
    keeps the estimate of the batch where it first met its tolerance,
    and summation stops once every component has; a component that
    never does returns its best estimate.
    """
    sums = np.zeros((tol.size, 0))
    rule_err = np.zeros_like(tol)
    value = np.zeros_like(tol)
    err = np.full_like(tol, math.inf)
    done = np.zeros(tol.shape, dtype=bool)
    for batch in range(_MAX_CYCLE_BATCHES):
        first = batch * _CYCLES_PER_BATCH
        edges = start + half * np.arange(first, first + _CYCLES_PER_BATCH + 1, dtype=float)
        lo, hi = edges[:-1], edges[1:]
        y = _evaluate_panels(integrand, lo, hi)
        block = np.empty((tol.size, _CYCLES_PER_BATCH))
        for c, y_c in enumerate(y):
            vals, errs = _gk_rule(y_c, lo, hi)
            block[c] = np.cumsum(vals) + (sums[c, -1] if first else 0.0)
            rule_err[c] += np.sum(errs)
        sums = np.concatenate([sums, block], axis=1)
        tips = _wynn_estimates(sums)
        est_err = rule_err + np.sum(np.abs(tips[:, :3] - tips[:, 3:]), axis=1)
        better = ~done & (est_err < err)
        value[better] = tips[better, 3]
        err[better] = est_err[better]
        done |= est_err <= tol
        if np.all(done):
            break
    return value, err


def _structure_end(evaluate, part: Callable, cut: float, half: float, tol: np.ndarray):
    """Per component, where structure seen in the tail ends (``cut`` if none).

    Samples g = |f part| at the crests of ``part`` over the first
    _PROBE_HALF_PERIODS half periods past the cut.  Extrapolating from a
    batch steps over g changing by more than a factor 2 between samples
    (a bump or edge narrower than about a period) or growing by more
    than that over a batch; such a change counts where its larger
    sample is worth more than ``tol`` over a half period.
    """
    u = cut + half * (np.arange(_PROBE_HALF_PERIODS) + 0.5)
    g = np.abs(evaluate(u) * part(u))
    worth = half * g > tol[:, None]
    step = np.maximum(g[:, 1:], g[:, :-1]) > 2.0 * np.minimum(g[:, 1:], g[:, :-1])
    mark = np.pad(step & (worth[:, 1:] | worth[:, :-1]), ((0, 0), (1, 0)))
    m = _CYCLES_PER_BATCH
    mark[:, m:] |= (g[:, m:] > 2.0 * g[:, :-m]) & worth[:, m:]
    last = u.size - np.argmax(mark[:, ::-1], axis=1)
    return np.where(mark.any(axis=1), u[np.minimum(last, u.size - 1)], cut)


def _semi_infinite(evaluate, spec: QuadratureSpec, lower: float, kernel: str, cut=None):
    """integrate_semi_infinite's (value, err) arrays before its final check.

    A given ``cut`` (an extension past structure) skips the probe.
    """
    period, phase, head_kernel, part, far_weight = _KERNELS[kernel]
    half = 0.5 * period

    def zero_past(u):
        return phase + half * math.ceil((u - phase) / half)

    probe = cut is None
    cut = zero_past(max(lower, 0.0) + _CUT_MARGIN) if probe else cut
    head, head_err = np.atleast_1d(*integrate_adaptive(
        lambda u: evaluate(u) * head_kernel(u), lower, cut, spec, max_panel_width=0.5 * half,
        breakpoints=lower + 0.5 * half * _ORIGIN_BREAKS,
    ))
    value, err = head, head_err
    if far_weight:
        far, far_err = integrate_adaptive(
            lambda x: evaluate(cut / x) * (far_weight / cut), 0.0, 1.0, spec,
            breakpoints=_ORIGIN_BREAKS,
        )
        value, err = value + far, err + far_err
    tol = 0.5 * _tolerance(spec, value)
    tail, tail_err = _cycle_sum(lambda u: evaluate(u) * part(u), cut, half, tol)
    value, err = value + tail, err + tail_err
    for c, end in enumerate(_structure_end(evaluate, part, cut, half, tol) if probe else ()):
        if end > cut:  # redo this component's tail with the structure in its head
            alone = _Evaluator(lambda u, c=c: evaluate(u)[c])
            more, more_err = _semi_infinite(alone, spec, cut, kernel, zero_past(end))
            value[c], err[c] = head[c] + more[0], head_err[c] + more_err[0]
    return value, err


def integrate_semi_infinite(
    f: Callable, spec: QuadratureSpec | None = None, *, lower: float = 0.0, kernel: str
):
    """Integrate f(u) k(u) over [lower, inf), k = sinc or sinc^2; returns (value, error_estimate).

    ``f`` is the non-oscillating envelope and ``kernel`` names k:
    ``"sinc"`` (sin(u)/u, period 2 pi) or ``"sinc2"`` (its square,
    period pi).  The head [lower, cut], cut the first zero of the
    kernel's oscillating tail part at or past max(lower, 0) + 96, is
    panelled adaptively in quarter periods, the first one also at
    lower + (period/4) * 2**-k, k = 1..40, so an integrand in a sliver
    next to ``lower`` is still seen.  Past the cut the kernel is
    sin(u) (1/u), resp. 1/(2u^2) - cos(2u)/(2u^2): the non-oscillating
    part is one adaptive integral on x = cut/u in (0, 1] (with the same
    geometric breakpoints toward x = 0), and the oscillating part is
    summed half period by half period and extrapolated with Wynn's
    epsilon algorithm (as in QUADPACK's QAWF).  That needs an envelope
    smooth over a batch of periods, so the first 768 half periods past
    the cut are sampled once each: where they show a narrow bump, an
    edge or fast growth, that component's cut moves past it and its
    tail is redone.  Structure further out, or too faint to move a
    sample, is not seen.

    ``f`` returns one value per node, or a (k, N) array for N nodes
    holding k envelopes that share every evaluation (for example two
    weights against one kernel).  Each component keeps its own tolerance
    max(abs_tol, rel_tol*|I_c|) in the head, the tail and the final
    check, which raises NonConvergenceError if any component fails, so
    its result is bit-identical to integrating it alone; the value and
    error are then length-k arrays.  An (N,)-valued ``f`` gives floats.
    """
    spec = spec or QuadratureSpec()
    if not math.isfinite(lower):
        raise ValueError("lower bound must be finite")
    if kernel not in _KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}")
    evaluate = _as_evaluator(f)
    value, err = _semi_infinite(evaluate, spec, lower, kernel)
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


def _map_grid(fn: Callable, args: tuple, grid, jobs: int = 1) -> np.ndarray:
    """fn((*args, chunk)) over contiguous chunks of ``grid``, joined along the last axis.

    The grid is split into ``jobs`` chunks (at most one per point) and
    mapped by ordered_map, so ``jobs <= 1`` is a single in-process call
    on the whole grid.  ``fn`` returns an array whose last axis runs over
    its chunk's points; it must give each point the same value in any
    chunk for the result not to depend on ``jobs``.
    """
    grid = np.asarray(grid, dtype=float)
    chunks = np.array_split(grid, max(1, min(jobs, grid.size)))
    return np.concatenate(ordered_map(fn, [(*args, chunk) for chunk in chunks], jobs), axis=-1)


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
