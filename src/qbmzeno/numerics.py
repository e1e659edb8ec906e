"""Adaptive quadrature and bracketed root finding.

Physics-agnostic engines used by every coefficient and decay-rate
computation: an adaptive Gauss-Kronrod integrator that stops at the
rounding floor of its error estimate, a semi-infinite integrator of an
envelope against the sinc or sinc^2 kernel (pi-wide Filon-Clenshaw-
Curtis panels left of u = -96, applied as one moment product per
bisection level, quarter-period GK15 panels from there up to a cut,
past it a non-oscillating integral on x = cut/u and one batch of 16
half-period cycle sums extrapolated with Wynn's epsilon algorithm, with
the head extended past structure that samples of the tail show),
and deterministic Brent-Dekker root refinement on sign-change brackets
(``brent_dekker``, one step per f value, driven for one function by
``bisect``: a handful of calls per smooth root at any tolerance).
All routines are pure functions of their inputs and bit-reproducible
for a fixed spec on one platform (fixed evaluation and summation order).

Integrand contract: called with a 1-D array of N nodes, an integrand
(for ``integrate_semi_infinite``, the envelope; the engine applies the
kernel) returns N values, or a (k, N) array holding k integrands that
share the nodes (for example two weights against one kernel).  The
quadratures then return length-k arrays.  The components share the
nodes, the panels and the cut, while each is stopped and checked
against its own tolerance max(abs_tol, rel_tol*|I_c|): a panel that
one component needs is bisected for all of them, and no node is
evaluated twice.  Any other shape raises ValueError, and every
exception and warning an integrand raises reaches the caller.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Generator, NamedTuple, Sequence

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
    "brent_dekker",
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
# periods of either kernel) and sums one batch of half periods of its
# oscillating part, extrapolated by Wynn's epsilon algorithm; the
# envelope is probed for structure over its first _PROBE_HALF_PERIODS.
_CUT_MARGIN = 96.0
_CYCLES_PER_BATCH = 16
_PROBE_HALF_PERIODS = 768
# Left of -_CUT_MARGIN the head is panelled _FILON_WIDTH wide (pi: one
# period of sinc^2's cos 2u, half one of sinc's sin u) and integrated by
# Filon-Clenshaw-Curtis: g(u) at the 25 Chebyshev-Lobatto nodes of a
# panel (13 of them for the error estimate) times exact weights of 1,
# cos and sin.  Bisection halves a panel, so its half-width is
# (pi/2) 2**-level; there |u| >= 96, and a panel of level 42 is narrower
# than 64 eps * 96, never split, so _FILON_LEVELS levels cover them all.
_FILON_WIDTH = np.pi
_FILON_LEVELS = 48
# A shorter Filon stretch is left to GK15: each Filon panel saves about
# 35 nodes, and below some 64 panels that does not pay for the fixed
# cost of the weights and of the mixed batch (measured near break-even).
_FILON_MIN_PANELS = 64
_FCC_NODES = np.cos(np.pi * np.arange(25) / 24.0)


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
# Kernel name -> (smooth, omega, c0, cc, cs): left of resonance the kernel
# is smooth(u) (c0 + cc cos(omega u) + cs sin(omega u)), sinc = (1/u) sin u
# and sinc^2 = (1/(2u^2)) (1 - cos 2u).
_FILON_KERNELS = {
    "sinc": (lambda u: 1.0 / u, 1.0, 0.0, 0.0, 1.0),
    "sinc2": (lambda u: 0.5 / (u * u), 2.0, 1.0, -1.0, 0.0),
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
    """GK15 values and error estimates, shape (k, panels), from (k, panels, 15) node values."""
    half = 0.5 * (hi - lo)
    kron = half * (y @ _K15_WEIGHTS)
    gauss = half * (y @ _G7_WEIGHTS)
    return kron, np.abs(kron - gauss)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, sorted: np.unique's values without its first-call
    import of numpy.ma (a megabyte of peak memory)."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _lobatto_to_chebyshev(n: int) -> np.ndarray:
    """(n+1, n+1) map from values at cos(j pi/n) to their interpolant's Chebyshev coefficients."""
    k = np.arange(n + 1)
    ends = np.where((k == 0) | (k == n), 0.5, 1.0)
    return (2.0 / n) * np.outer(ends, ends) * np.cos(np.pi * np.outer(k, k) / n)


@functools.cache
def _filon_weights(kernel: str) -> np.ndarray:
    """``kernel``'s FCC weights at every level, shape (levels, 3, 50): rows 1, cos and sin.

    Row r, level L holds the integrals over [-1, 1] of the Lagrange
    basis of the Chebyshev-Lobatto nodes _FCC_NODES times 1, cos(k x) or
    sin(k x), k = omega (pi/2) 2**-L the frequency in x of the kernel's
    oscillation on a panel of that level: columns 0-24 for FCC-25, and
    columns 25, 27, ..., 49 for FCC-13 on the even-numbered nodes (the
    others zero).  They are the moments Int T_j(x) e^{ikx} dx, j <= 24,
    taken by the 129-node Clenshaw-Curtis rule (exact to rounding for
    k <= pi, where e^{ikx} is a polynomial of degree about 40 to double
    precision), mapped through the interpolants' Chebyshev coefficients.
    """
    kappa = 0.5 * _FILON_KERNELS[kernel][1] * _FILON_WIDTH
    n = 128
    i = np.arange(n + 1)
    m = np.arange(1, n // 2 + 1)
    ends = np.where((i == 0) | (i == n), 1.0, 2.0) / n
    damp = np.where(m == n // 2, 1.0, 2.0) / (4.0 * m * m - 1.0)
    clenshaw_curtis = ends * (1.0 - damp @ np.cos(2.0 * np.pi * np.outer(m, i) / n))
    kx = np.outer(kappa * 2.0 ** -np.arange(_FILON_LEVELS), np.cos(np.pi * i / n))
    waves = np.stack([np.ones_like(kx), np.cos(kx), np.sin(kx)], axis=1) * clenshaw_curtis
    moments = waves @ np.cos(np.pi * np.outer(i, np.arange(25)) / n)  # T_j(x_i) = cos(j i pi/n)
    table = np.zeros((_FILON_LEVELS, 3, 2, 25))
    table[:, :, 0] = moments @ _lobatto_to_chebyshev(24)
    table[:, :, 1, ::2] = moments[..., :13] @ _lobatto_to_chebyshev(12)
    table.flags.writeable = False  # cached: every caller shares it
    return table.reshape(_FILON_LEVELS, 3, 50)


def _fcc_rule(g: np.ndarray, lo: np.ndarray, hi: np.ndarray, kernel: str) -> tuple[np.ndarray, np.ndarray]:
    """FCC-25 values and |FCC-25 - FCC-13| estimates, shape (k, panels), from (k, panels, 25) values of g.

    A panel holds g(u) (c0 + cc cos(omega u) + cs sin(omega u)); with
    u = m + h x the weight is c0 + A cos(omega h x) + B sin(omega h x),
    A = cc cos(omega m) + cs sin(omega m), B = cs cos(omega m) - cc
    sin(omega m).  So a panel's two rules are h (c0 M1 + A Mcos + B
    Msin), M the moments of g against the table rows of the panel's
    level: one matrix product per level present.
    """
    _, omega, c0, cc, cs = _FILON_KERNELS[kernel]
    half = 0.5 * (hi - lo)
    level = np.rint(np.log2(0.5 * _FILON_WIDTH / half)).astype(np.intp)
    table = _filon_weights(kernel).reshape(_FILON_LEVELS, 6, 25)  # rows (1, cos, sin) x (FCC-25, FCC-13)
    # A contiguous (25, 6) right operand: BLAS takes it about twice as
    # fast as the transposed view.
    if np.all(level == level[0]):  # the usual call: no gather
        moments = g.reshape(-1, 25) @ np.ascontiguousarray(table[level[0]].T)
    else:
        moments = np.empty((g.shape[0], lo.size, 6))
        for at_level in _distinct(level):
            at = level == at_level
            moments[:, at] = g[:, at] @ np.ascontiguousarray(table[at_level].T)
    moments = moments.reshape(g.shape[0], lo.size, 3, 2)
    phase = omega * (0.5 * (lo + hi))
    cos_m, sin_m = np.cos(phase), np.sin(phase)
    both = (
        (c0 * half)[:, None] * moments[:, :, 0]
        + (half * (cc * cos_m + cs * sin_m))[:, None] * moments[:, :, 1]
        + (half * (cs * cos_m - cc * sin_m))[:, None] * moments[:, :, 2]
    )
    return both[..., 0], np.abs(both[..., 0] - both[..., 1])


class _Head(NamedTuple):
    """The kernel of integrate_semi_infinite's head, and its number of Filon panels."""

    kernel: str
    filon_panels: int


def _panel_values(evaluate, lo: np.ndarray, hi: np.ndarray, head: _Head | None, filon_end: float):
    """(values, errors) of every panel, each (k, panels) in panel order, from one evaluation call.

    Without ``head`` each panel takes GK15 of f.  With it, f is an
    envelope: a panel right of ``filon_end`` takes GK15 of f times the
    head kernel, one left of it FCC-25/13 of f times the kernel's smooth
    factor.
    """
    if head is None:
        return _gk_rule(_evaluate_panels(evaluate, lo, hi), lo, hi)
    fcc = hi <= filon_end
    gk = ~fcc
    lo_f, hi_f, lo_g, hi_g = lo[fcc], hi[fcc], lo[gk], hi[gk]
    u_fcc = (0.5 * (lo_f + hi_f)[:, None] + 0.5 * (hi_f - lo_f)[:, None] * _FCC_NODES).ravel()
    u_gk = (0.5 * (lo_g + hi_g)[:, None] + 0.5 * (hi_g - lo_g)[:, None] * _GK_NODES).ravel()
    y = evaluate(np.concatenate([u_fcc, u_gk]))
    out = np.empty((2, len(y), lo.size))  # values, errors
    out[..., gk] = _gk_rule(
        (y[:, u_fcc.size:] * _KERNELS[head.kernel][2](u_gk)).reshape(len(y), lo_g.size, 15), lo_g, hi_g
    )
    if lo_f.size:
        out[..., fcc] = _fcc_rule(
            (y[:, :u_fcc.size] * _FILON_KERNELS[head.kernel][0](u_fcc)).reshape(len(y), lo_f.size, 25),
            lo_f, hi_f, head.kernel,
        )
    return out


def _tolerance(spec: QuadratureSpec, value):
    """Tolerance max(abs_tol, rel_tol * |value|), per component for arrays."""
    return np.maximum(spec.abs_tol, spec.rel_tol * np.abs(value))


def integrate_adaptive(
    f: Callable,
    a: float,
    b: float,
    spec: QuadratureSpec | None = None,
    max_panel_width: float | None = None,
    breakpoints: np.ndarray | None = None,
    *,
    _head: _Head | None = None,
):
    """Adaptive GK15 panel quadrature of f on the finite interval [a, b].

    Panels whose error exceeds their width-share of the tolerance are
    bisected until the summed estimate meets max(abs_tol, rel_tol*|I|),
    or falls to its rounding floor 50 eps sum|K15| (returned as the
    error, which may then exceed the tolerance: a caller that needs the
    tolerance compares err itself), or ``max_subdivisions`` bisections
    have been made (NonConvergenceError).
    ``max_panel_width`` pre-splits the interval so no initial panel spans
    more than that width (used to keep oscillations resolved);
    ``breakpoints`` inside (a, b) are added to the initial panel edges.

    ``f`` may return one value per node or a (k, N) array for N nodes:
    k integrands sharing every node.  They share one partition too: each
    component has its own tolerance, a panel is bisected when any
    component short of its tolerance is above its share on it, and the
    loop stops once every component meets its tolerance or its floor.
    The budget counts bisections of that one partition, and an error
    names the component that failed.  Values and errors are then
    length-k arrays; an (N,)-valued ``f`` gives floats, and so does an
    empty interval, which evaluates nothing.

    ``_head`` is internal to integrate_semi_infinite: ``f`` is then an
    envelope against the head kernel, the first ``filon_panels`` panels
    from ``a`` are _FILON_WIDTH wide and take Filon-Clenshaw-Curtis
    (their halves too), and ``max_panel_width`` splits the rest.
    """
    spec = spec or QuadratureSpec()
    if b == a:
        return 0.0, 0.0
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    evaluate = _as_evaluator(f)

    filon_end = a
    if _head is not None and _head.filon_panels:
        filon_edges = a + _FILON_WIDTH * np.arange(_head.filon_panels + 1, dtype=float)
        filon_end = float(filon_edges[-1])
    if max_panel_width is not None and max_panel_width > 0.0:
        n0 = min(int(math.ceil((b - filon_end) / max_panel_width)), _MAX_INITIAL_PANELS)
    else:
        n0 = 1
    edges = np.linspace(filon_end, b, n0 + 1)
    if filon_end > a:
        edges = np.concatenate([filon_edges[:-1], edges])
    if breakpoints is not None:
        inner = np.asarray(breakpoints, dtype=float)
        edges = _distinct(np.concatenate([edges, inner[(inner > a) & (inner < b)]]))
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _panel_values(evaluate, lo, hi, _head, filon_end)

    span = b - a
    splits = 0
    while True:
        total, err_total = np.sum(vals, axis=1), np.sum(errs, axis=1)
        tol = _tolerance(spec, total)
        # Splitting does not take |K15 - G7| below its rounding part,
        # about 50 eps sum|K15|: an estimate there is noise, and that
        # floor is the error.
        floor = 50.0 * np.finfo(float).eps * np.sum(np.abs(vals), axis=1)
        short = (err_total > tol) & (err_total > floor)
        if not np.any(short):
            break
        worst = int(np.argmax(np.where(short, err_total / tol, 0.0)))
        where = f" in component {worst}" if len(vals) > 1 else ""
        # Refine every panel above a short component's width-share of half
        # its budget; skip panels already at floating-point resolution.
        widths = hi - lo
        splittable = widths > 64.0 * np.finfo(float).eps * np.maximum(np.abs(lo), np.abs(hi))
        mask = np.any(errs[short] > 0.5 * tol[short, None] * widths / span, axis=0) & splittable
        n_split = int(np.count_nonzero(mask))
        if n_split == 0:
            if np.all(err_total[short] <= 2.0 * tol[short]):
                break
            raise NonConvergenceError(
                f"error estimate {err_total[worst]:.3e} above tolerance {tol[worst]:.3e}{where} "
                "with no splittable panel left"
            )
        splits += n_split
        if splits > spec.max_subdivisions:
            raise NonConvergenceError(
                f"subdivision budget {spec.max_subdivisions} exhausted{where} "
                f"(error estimate {err_total[worst]:.3e}, tolerance {tol[worst]:.3e})"
            )
        mid = 0.5 * (lo[mask] + hi[mask])
        child_lo, child_hi = np.concatenate([lo[mask], mid]), np.concatenate([mid, hi[mask]])
        child_vals, child_errs = _panel_values(evaluate, child_lo, child_hi, _head, filon_end)
        keep = ~mask
        lo, hi = np.concatenate([lo[keep], child_lo]), np.concatenate([hi[keep], child_hi])
        order = np.argsort(lo, kind="stable")
        lo, hi = lo[order], hi[order]
        # take and compress: along axis 1 they are several times faster than [:, index]
        vals = np.concatenate([vals.compress(keep, axis=1), child_vals], axis=1).take(order, axis=1)
        errs = np.concatenate([errs.compress(keep, axis=1), child_errs], axis=1).take(order, axis=1)

    err = np.where(err_total > tol, np.maximum(err_total, floor), err_total)
    return evaluate.result(total), evaluate.result(err)


def _wynn_estimates(sums: np.ndarray) -> np.ndarray:
    """Wynn's epsilon-algorithm limits of the partial sums ``sums`` (k, n), n >= 4.

    Builds the epsilon table column by column, each column for all
    components at once, and returns (k, 4): the limit estimate of each
    of the last four prefixes of the sums, the tip of the highest even
    column that prefix reaches.  A repeated value (a converged or zero
    sequence) makes its column entries non-finite; those never replace
    the estimate of a lower column.  So when every row is constant,
    from column 1 on every entry is, and the table is not built.
    """
    tips = sums[:, -4:].copy()
    if np.all(sums == sums[:, :1]):
        return tips
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


def _cycle_sum(integrand: Callable, start: float, half: float):
    """Integral over [start, inf) of an ``integrand`` with zeros ``half`` apart, one at ``start``.

    One batch of _CYCLES_PER_BATCH half periods (zero to zero), each one
    GK15 panel, and Wynn's epsilon algorithm extrapolates their partial
    sums.  Returns the limit estimate and its error: the spread of the
    last four extrapolated values plus the summed rule errors, one each
    per component.  integrate_semi_infinite's final check holds the
    error to the tolerance.
    """
    edges = start + half * np.arange(_CYCLES_PER_BATCH + 1, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _gk_rule(_evaluate_panels(integrand, lo, hi), lo, hi)
    tips = _wynn_estimates(np.cumsum(vals, axis=1))
    return tips[:, 3], np.sum(errs, axis=1) + np.sum(np.abs(tips[:, :3] - tips[:, 3:]), axis=1)


def _structure_end(evaluate, part: Callable, cut: float, half: float, tol: np.ndarray) -> float:
    """Where structure seen in the tail of any component ends (``cut`` if none).

    Samples g = |f part| at the crests of ``part`` over the first
    _PROBE_HALF_PERIODS half periods past the cut.  Extrapolating from a
    batch steps over g changing by more than a factor 2 between samples
    (a bump or edge narrower than about a period) or growing by more
    than that over a batch; such a change counts where its larger
    sample is worth more than its component's ``tol`` over a half period.
    """
    u = cut + half * (np.arange(_PROBE_HALF_PERIODS) + 0.5)
    g = np.abs(evaluate(u) * part(u))
    worth = half * g > tol[:, None]
    if not worth.any():  # every change below needs a sample worth something
        return cut
    step = np.maximum(g[:, 1:], g[:, :-1]) > 2.0 * np.minimum(g[:, 1:], g[:, :-1])
    mark = np.zeros_like(worth)
    np.logical_and(step, worth[:, 1:] | worth[:, :-1], out=mark[:, 1:])
    m = _CYCLES_PER_BATCH
    mark[:, m:] |= (g[:, m:] > 2.0 * g[:, :-m]) & worth[:, m:]
    mark = mark.any(axis=0)
    if not mark.any():
        return cut
    return float(u[min(u.size - np.argmax(mark[::-1]), u.size - 1)])


def _semi_infinite(evaluate, spec: QuadratureSpec, lower: float, kernel: str, cut=None):
    """integrate_semi_infinite's (value, err) arrays before its final check.

    A given ``cut`` (an extension past structure) skips the probe.
    """
    period, phase, _, part, far_weight = _KERNELS[kernel]
    half = 0.5 * period

    def zero_past(u):
        return phase + half * math.ceil((u - phase) / half)

    probe = cut is None
    cut = zero_past(max(lower, 0.0) + _CUT_MARGIN) if probe else cut
    # Filon panels from lower to the last panel edge at or left of -_CUT_MARGIN.
    filon = min(math.floor((-_CUT_MARGIN - lower) / _FILON_WIDTH), _MAX_INITIAL_PANELS)
    if filon < _FILON_MIN_PANELS:
        filon = 0
    head, head_err = np.atleast_1d(*integrate_adaptive(
        evaluate, lower, cut, spec, max_panel_width=0.5 * half,
        breakpoints=None if filon else lower + 0.5 * half * _ORIGIN_BREAKS, _head=_Head(kernel, filon),
    ))
    value, err = head, head_err
    if far_weight:
        far, far_err = integrate_adaptive(
            lambda x: evaluate(cut / x) * (far_weight / cut), 0.0, 1.0, spec,
            breakpoints=_ORIGIN_BREAKS,
        )
        value, err = value + far, err + far_err
    end = _structure_end(evaluate, part, cut, half, 0.5 * _tolerance(spec, value)) if probe else cut
    if end > cut:  # move the cut past the structure, for every component
        more, more_err = _semi_infinite(evaluate, spec, cut, kernel, zero_past(end))
        return head + more, head_err + more_err
    tail, tail_err = _cycle_sum(lambda u: evaluate(u) * part(u), cut, half)
    return value + tail, err + tail_err


def integrate_semi_infinite(
    f: Callable, spec: QuadratureSpec | None = None, *, lower: float = 0.0, kernel: str
):
    """Integrate f(u) k(u) over [lower, inf), k = sinc or sinc^2; returns (value, error_estimate).

    ``f`` is the non-oscillating envelope and ``kernel`` names k:
    ``"sinc"`` (sin(u)/u, period 2 pi) or ``"sinc2"`` (its square,
    period pi).  The head [lower, cut], cut the first zero of the
    kernel's oscillating tail part at or past max(lower, 0) + 96, is one
    adaptive integral.  Near resonance its GK15 panels span at most a
    quarter period, the first one also cut at lower + (period/4) * 2**-k,
    k = 1..40, so an integrand in a sliver next to ``lower`` is still
    seen.  Left of u = -96 the kernel is as far off resonance as the
    tail, sin(u) (1/u), resp. (1 - cos 2u) / (2u^2), and when at least
    64 pi-wide panels fit between ``lower`` and -96 the head takes them
    with Filon-Clenshaw-Curtis from ``lower`` (QUADPACK's QAWO
    scheme): f times the smooth factor at 25 Chebyshev-Lobatto nodes,
    integrated against 1, cos and sin with exact weights, the 13-node
    subset giving the error estimate.  The weights depend on a panel
    only through its bisection level, so the panels of one level take
    one matrix product of their node values with that level's weights
    (the moments against 1, cos and sin), and each panel combines its
    three moments with its own phase.  Their nodes include the panel
    ends, so a sliver at ``lower`` needs no breakpoints; lines down to
    width 0.05 in u and a step there are tested to the tolerance.  At
    most 20000 such panels are laid; past them GK15 takes over.

    Past the cut the kernel is sin(u) (1/u), resp. 1/(2u^2) -
    cos(2u)/(2u^2): the non-oscillating part is one adaptive integral on
    x = cut/u in (0, 1] (with the same geometric breakpoints toward
    x = 0), and the oscillating part is summed over one batch of 16 half
    periods, one GK15 panel each, and extrapolated with Wynn's epsilon
    algorithm (as in QUADPACK's QAWF).  That needs an envelope
    smooth over a batch of periods, so the first 768 half periods past
    the cut are sampled once each: where they show a narrow bump, an
    edge or fast growth in any component, the cut moves past it and the
    stretch up to the new cut becomes one more adaptive integral.
    Structure further out, or too faint to move a sample, is not seen.

    ``f`` returns one value per node, or a (k, N) array for N nodes
    holding k envelopes that share every evaluation (for example two
    weights against one kernel).  They share the head's panels and one
    cut, while each component keeps its own tolerance max(abs_tol,
    rel_tol*|I_c|) in the head, the structure probe and the final check,
    which raises NonConvergenceError naming the component that fails: it
    is the one guard of the tail's extrapolation.  A
    component may thus end on finer panels, or a further cut, than it
    would alone; the value and error are then length-k arrays.  An
    (N,)-valued ``f`` gives floats.
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


def brent_dekker(bracket: RootBracket, tol: float) -> Generator[float, float, float]:
    """Brent-Dekker on a validated bracket, one step at a time: x goes out, f(x) comes back.

    A generator: each ``send`` of f at the x it last yielded returns the
    next x to evaluate, and the root ends it (``StopIteration.value``).
    ``bisect`` drives it with one function; a caller may drive many in
    lock step.  The algorithm of scipy's ``brentq`` (Brent 1973, ch. 4):
    inverse quadratic or secant steps inside a sign-change bracket, with
    a bisection fallback, taking the bracket's f_lo and f_hi as given.
    The root is the end of the final bracket with the smaller |f|, so f
    changes sign within tol of it; a zero endpoint or a zero of f hit on
    the way is returned as is.  Deterministic, and the sign-change
    invariant holds at every step.  Steps are floored at two doubles
    (2 ulp(x), about brentq's 4 eps|x|/2), so a tol below the spacing of
    doubles ends at floating-point resolution.  A smooth simple root takes
    a handful of steps; the worst cases tested (a step, a pole, a ninth-
    power root) stay within three times bisection's count.  Raises
    NonFiniteError on a NaN or infinite f.
    """
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    if bracket.f_lo == 0.0:
        return bracket.lo
    if bracket.f_hi == 0.0:
        return bracket.hi
    # cur: best point so far; blk: the other end of the bracket; pre: the previous cur.
    x_pre, f_pre, x_cur, f_cur = bracket.lo, bracket.f_lo, bracket.hi, bracket.f_hi
    x_blk = f_blk = s_pre = s_cur = 0.0
    while True:
        if (f_pre < 0.0) != (f_cur < 0.0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = max(0.5 * tol, 2.0 * math.ulp(x_cur))  # never zero, so every step moves x
        s_bis = 0.5 * (x_blk - x_cur)
        if f_cur == 0.0 or abs(s_bis) <= delta:
            return x_cur
        s_try = math.inf  # no interpolation step: bisect
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:  # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:  # inverse quadratic interpolation
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                q = d_blk * d_pre * (f_blk - f_pre)  # may underflow to 0
                if q:
                    s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / q
        if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
            s_pre, s_cur = s_cur, s_try
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else math.copysign(delta, s_bis)
        f_cur = yield x_cur
        if not math.isfinite(f_cur):
            raise NonFiniteError(f"function returned a non-finite value at x={x_cur!r}")


def bisect(f: Callable[[float], float], bracket: RootBracket, tol: float) -> float:
    """Root of f in a validated bracket by Brent-Dekker, to a bracket narrower than tol.

    The scalar driver of ``brent_dekker``: f is called once per step,
    with a float.  The name is that of the plain bisection it replaced.
    It stays because the benchmark tracer (``bench/tracing.py``) binds
    ``zeno.bisect`` to count root steps, as it binds
    ``zeno.scan_for_bracket`` to count grid evaluations.
    """
    steps = brent_dekker(bracket, tol)
    try:
        x = next(steps)
        while True:
            x = steps.send(f(x))
    except StopIteration as stop:
        return stop.value


def scan_for_bracket(f: Callable[[float], float], grid: Sequence[float]) -> list[RootBracket]:
    """Return a RootBracket for every adjacent grid pair where f changes sign.

    ``f`` is called once per grid point, with a float; a caller that
    holds the samples already passes their lookup.  The grid must be
    strictly increasing with at least two points.  A zero exactly on a
    grid point yields a single bracket: the one ending there, or, at the
    first grid point, the one starting there.
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
    x, y = xs.tolist(), ys.tolist()
    return [
        RootBracket(x[i], x[i + 1], y[i], y[i + 1])
        for i in range(len(x) - 1)
        if y[i] * y[i + 1] < 0.0
        or (y[i] != 0.0 and y[i + 1] == 0.0)
        or (i == 0 and y[i] == 0.0 and y[i + 1] != 0.0)
    ]
