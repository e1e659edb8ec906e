"""Adaptive quadrature and bracketed root finding.

Physics-agnostic engines used by every coefficient and decay-rate
computation: an adaptive Gauss-Kronrod integrator that stops at the
rounding floor of its error estimate, a semi-infinite integrator of an
envelope against the sinc or sinc^2 kernel k(u), or against a k(u) +
b k(u + shift) in one pass with the difference of the two formed
without cancellation (Filon-Clenshaw-Curtis panels left of u = -96,
32 pi-cells wide where samples of the envelope pi/16 apart agree with
the panel's interpolant and pi-wide elsewhere, applied as one moment
product per panel level and term,
quarter-period GK15 panels from there up to a cut, past it a
non-oscillating integral on x = cut/u and one batch of 16 half-period
cycle sums extrapolated with Wynn's epsilon algorithm, with the head
extended past structure that samples of the envelope times the decay of
each term show),
and deterministic Brent-Dekker root refinement on sign-change brackets
(``brent_dekker``, one step per f value, driven for one function by
``bisect``: a handful of calls per smooth root at any tolerance).
All routines are pure functions of their inputs and bit-reproducible
for a fixed spec on one platform (fixed evaluation and summation order).

Integrand contract: called with a 1-D array of N nodes, an integrand
(for ``integrate_semi_infinite``, the envelope; the engine applies the
kernel) returns N values, or a (k, N) array holding k integrands that
share the nodes (for example two weights against one kernel).  N is at
most _BATCH_NODES: longer runs of panels go out in batches of whole
panels (a wide Filon panel with its samples), since one call over them
made temporaries of several hundred KB, page-faulted in afresh on every
pass and too large for the L2 cache.  Batching changes no node, rule or
panel.  The
quadratures then return length-k arrays.  The components share the
nodes, the panels and the cut, while each is stopped and checked
against its own tolerance max(abs_tol, rel_tol*|I_c|): a panel that
one component needs is bisected for all of them, and no node is
evaluated twice.  In a two-term ``integrate_semi_infinite`` pass each
component has its own pair (a, b), and both terms share its envelope
values.  Any other shape raises ValueError, and every
exception and warning an integrand raises reaches the caller.
"""

from __future__ import annotations

import functools
import itertools
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
# At most this many nodes go to the integrand and the kernel code in one
# call (400 pi-wide Filon panels, 18 wide ones with their samples, 666
# GK15 panels): longer runs of panels go in batches of consecutive whole
# panels.  One call over a long Filon head (43k nodes at tau = 1e4 on
# pi-wide panels) made every temporary a fresh array of several hundred
# KB, page-faulted in again on each pass and too large for a 2 MB L2
# cache; a batch's temporaries are reused heap memory that stays in
# cache.  On the user-bath queries bounds of 6,400 to 12,800 nodes gain
# alike, 19,200 gains nothing and 1,600 loses to the cost per call; with
# wide panels, 7,000 and 16,000 gain nothing either.
_BATCH_NODES = 10000
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
# Left of -_CUT_MARGIN the head is cut into _FILON_WIDTH cells (pi: one
# period of sinc^2's cos 2u, half one of sinc's sin u) and integrated by
# Filon-Clenshaw-Curtis: g(u) at the 25 Chebyshev-Lobatto nodes of a
# panel (13 of them for the error estimate) times exact weights of 1,
# cos and sin.  A panel's half-width is (pi/2) 2**-level.  The first pass
# lays wide panels of 2**_FILON_WIDE_LEVELS cells (level
# -_FILON_WIDE_LEVELS) and panels of one cell (level 0); refinement
# splits a wide panel into its cells and halves any other; there
# |u| >= 96, and a panel of level 42 is narrower than 64 eps * 96,
# never split.
_FILON_WIDTH = np.pi
# The first pass's wide panels span 2**5 cells (about 100 in u), none
# wider than a quarter of |u| at its inner end, where the smooth factor
# 1/u or 1/u^2 changes by at most a factor 1.25 or 1.56.  First passes
# at tau = 1e3 .. 1e4 (sinc^2, a smooth bath) took 6.97 ms summed over
# seven taus with 2**5, 7.21 with 2**4 and 7.39 with 2**6 (at tau = 1e4:
# 95, 45 and 20 wide panels); panels of 2**6 cells, 1,049 nodes with
# their samples, would not fit a batch of 1,000 either.  Levels between
# 2**5 and one cell each cost a pass more than their few panels saved.
_FILON_WIDE_LEVELS = 5
# Fewer wide panels than this are not laid: the samples' residual and a
# second panel level cost a pass some 100 us, and each wide panel saves
# some 12 us (first passes measured at 2 and 3 wide panels ran 50 us
# slower than with pi-wide panels, at 5 and more faster).
_FILON_MIN_WIDE_PANELS = 4
# A wide panel (two cells or more) samples the envelope alone at the
# centres of its 1/_SAMPLES_PER_CELL-cell steps: no point is more than
# pi/32 = 0.098 from a sample, as none is more than 0.1025 from a node
# of a pi-wide FCC-25 panel, so what those nodes see, a sample sees.
# Where a sample leaves the panel's degree-24 interpolant of the
# envelope by more than rounding, the panel's error takes that residual
# times the panel's kernel weight, and the refinement splits it into its
# pi-wide cells, which take no samples.  One sample per half period
# (pi/2 for sinc^2) would step over lines 0.05 wide.
_SAMPLES_PER_CELL = 16
# A residual at most this many eps of the panel's largest node value is
# the interpolant's rounding (its Lebesgue constant is about 3), not
# structure.
_RESIDUAL_FLOOR = 64.0 * np.finfo(float).eps
# A shorter Filon stretch is left to GK15: each Filon panel saves about
# 35 nodes, and below some 64 panels that does not pay for the fixed
# cost of the weights and of the mixed batch (measured near break-even).
_FILON_MIN_PANELS = 64
_FCC_NODES = np.cos(np.pi * np.arange(25) / 24.0)
# Two-term passes: with v = u + a, a = shift/2, sinc(u) - sinc(u + 2a) =
# sinc(v - a) - sinc(v + a) = 2 a v [cos a sinc v - sinc a cos v] /
# (v^2 - a^2).  From a = 1/2 on it is the plain difference, whose
# rounding, about eps |sinc u|, is then at most a few eps of the
# difference's scale.  Below a = 1/2 it is v sum_n C_n(a) v^(2n) for
# v^2 < 1, the C_n fixed per pass (_SERIES_TABLE @ a^(2i+1), ten terms
# each way: the last is below 1e-17 of the first), and the closed form
# past it, where v^2 - a^2 >= 3/4: both without cancellation, however
# small a.
_PLAIN_HALF_SHIFT = 0.5
_SERIES_POWERS = 2 * np.arange(10) + 1
_ODD_FACTORIALS = np.cumprod(np.concatenate([[1.0], (_SERIES_POWERS[1:] - 1.0) * _SERIES_POWERS[1:]]))
# C_n = 2 (-1)^n / (2n+1)! sum_i (-1)^i a^(2i+1) / ((2i+1)! (2n+2i+3))
_SERIES_TABLE = (
    (2.0 * (-1.0) ** np.arange(10) / _ODD_FACTORIALS)[:, None]
    * ((-1.0) ** np.arange(10) / _ODD_FACTORIALS)[None, :]
    / (_SERIES_POWERS[:, None] + _SERIES_POWERS[None, :] + 1.0)
)


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


class _Terms:
    """The kernel of each component of one integrate_semi_infinite pass.

    Without a shift every component takes k(u).  With one, component c
    takes K_c(u) = a_c k(u) + b_c k(u + shift), (a_c, b_c) = mix[c].
    Each stage builds K_c from two factors, D = k(u) - k(u + shift)
    formed without cancellation and S = k(u + shift), as a_c D + (a_c +
    b_c) S, so a_c = -b_c keeps the digits of a small difference however
    small the shift (``rows``).  The Filon panels and the structure probe
    take the two terms apart, each at its own argument u + shifts[t]
    (``smooth``, ``scales``).
    """

    def __init__(self, kernel: str, shift: float | None = None, mix=None) -> None:
        self.kernel = kernel
        self.period, self.phase, self.k, self.part, self.far_weight = _KERNELS[kernel]
        self.a = None if shift is None else 0.5 * shift
        self.series = None
        if shift is None:
            self.shifts, self.scales, self.magnitude = (0.0,), (1.0,), 1.0
            return
        self.shifts = (0.0, shift)
        mix = np.asarray(mix, dtype=float).reshape(-1, 2)
        self.scales = (mix[:, :1], mix[:, 1:])  # each term's (k, 1) coefficients
        self.magnitude = np.abs(mix).sum(axis=1)[:, None]  # |a_c| + |b_c|, for _wide_errors
        self.sums = mix[:, :1] + mix[:, 1:]
        if 0.0 < self.a < _PLAIN_HALF_SHIFT:
            self.series = (_SERIES_TABLE @ self.a ** _SERIES_POWERS)[::-1].copy()  # for np.polyval

    def rows(self, factors):
        """Each component's kernel from a stage's factors (the kernel alone without a shift, else D and S)."""
        if self.a is None:
            return factors[0]
        difference, shifted = factors
        out = self.scales[0] * difference
        out += self.sums * shifted
        return out

    def smooth(self, u: np.ndarray) -> list[np.ndarray]:
        """Each term's Filon smooth factor, the decay of its oscillation, at u + shifts[t]."""
        if self.a is None:
            return [_FILON_KERNELS[self.kernel][0](u)]
        w = u + 2.0 * self.a
        inverse = u * w
        np.reciprocal(inverse, out=inverse)  # one division for 1/u = w/(u w) and 1/w = u/(u w)
        w *= inverse
        inverse *= u
        factors = [w, inverse]
        if self.kernel == "sinc2":  # 1/(2u^2)
            for factor in factors:
                factor *= factor
                factor *= 0.5
        return factors

    def sinc_pair(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(sinc(u) - sinc(u + shift), sinc(u + shift)) at u >= -shift/2, the difference without cancellation."""
        a = self.a
        if self.series is None:
            shifted = sinc(u + 2.0 * a)
            return sinc(u) - shifted, shifted
        v = u + a  # >= 0, so u + shift = v + a >= a > 0
        sin_v, cos_v = np.sin(v), np.cos(v)
        shifted = sin_v * math.cos(a)
        shifted += cos_v * math.sin(a)
        shifted /= v + a
        # 2 a v [cos a sinc v - sinc a cos v] = 2 a [cos a sin v - sinc a v cos v]
        square = v * v
        near = square < 1.0
        square -= a * a
        square[near] = 1.0  # those nodes take the series below
        cos_v *= v
        cos_v *= 2.0 * math.sin(a)
        sin_v *= 2.0 * a * math.cos(a)
        sin_v -= cos_v
        difference = np.divide(sin_v, square, out=sin_v)
        if near.any():
            inner = v[near]
            difference[near] = inner * np.polyval(self.series, inner * inner)
        return difference, shifted

    def head(self, u: np.ndarray):
        """The kernel's factors at nodes of the head."""
        if self.a is None:
            return (self.k(u),)
        difference, shifted = self.sinc_pair(u)
        if self.kernel == "sinc":
            return difference, shifted
        # sinc^2(u) - sinc^2(w) = (sinc u - sinc w) (sinc u + sinc w)
        return difference * (difference + 2.0 * shifted), shifted * shifted

    def tail(self, u: np.ndarray):
        """The factors of the kernel's oscillating part past the cut."""
        if self.a is None:
            return (self.part(u),)
        difference, shifted = self.head(u)
        if self.kernel == "sinc":  # sinc is its own part
            return difference, shifted
        w = u + 2.0 * self.a  # 1/u^2 - 1/w^2 = (w - u)(w + u)/(u w)^2
        return (difference - self.far_weight * (2.0 * self.a) * (u + w) / (u * w) ** 2,
                shifted - self.far_weight / (w * w))

    def far(self, x: np.ndarray, cut: float):
        """The factors of the non-oscillating part far_weight/u^2 on x = cut/u, times du/dx."""
        scale = self.far_weight / cut
        if self.a is None:
            return (scale,)
        shift_x = (2.0 * self.a) * x
        ratio = cut / (cut + shift_x)  # u/(u + shift)
        return scale * (shift_x / (cut + shift_x)) * (1.0 + ratio), scale * ratio * ratio


class _Evaluator:
    """``f`` as a map from N nodes to a (k, N) array of values.

    ``f`` takes a 1-D array of N nodes and returns shape (N,) (one
    component) or (k, N) (k components sharing the nodes), with k =
    ``components`` when that is given; any other shape raises
    ValueError, a NaN or infinity NonFiniteError.  ``scalar`` records
    the (N,) form, so the public entry points return floats rather than
    length-1 arrays.
    """

    def __init__(self, f: Callable, components: int | None = None) -> None:
        self.f = f
        self.components = components
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
        if self.components not in (None, len(y)):
            raise ValueError(f"integrand returned {len(y)} components for a mix of {self.components}")
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
def _filon_weights(kernel: str, level: int) -> np.ndarray:
    """``kernel``'s FCC weights on a panel of ``level``, shape (3, 50): rows 1, cos and sin.

    Row r holds the integrals over [-1, 1] of the Lagrange basis of the
    Chebyshev-Lobatto nodes _FCC_NODES times 1, cos(k x) or sin(k x), k
    = omega (pi/2) 2**-level the frequency in x of the kernel's
    oscillation on a panel of half-width (pi/2) 2**-level (level -L, L >
    0, for the 2**L-cell panels of the first pass): columns 0-24 for
    FCC-25, and columns 25, 27, ..., 49 for FCC-13 on the even-numbered
    nodes (the others zero).  They are the moments Int T_j(x) e^{ikx} dx,
    j <= 24, taken by a Clenshaw-Curtis rule of degree n >= k + 64, 128
    at least, and mapped through the interpolants' Chebyshev
    coefficients.  That is exact to rounding at any k (the tests hold it
    to 1e-14 of mpmath up to k = 32 pi): past degree n only e^{ikx}'s
    Chebyshev coefficients J_m(k), m > k + 40, remain, below 1e-11, and
    the rule errs on those degrees by O(1/m^2) of them; no recurrence
    loses digits at large k.  Built on first use per level.
    """
    kappa = 0.5 * _FILON_KERNELS[kernel][1] * _FILON_WIDTH * 2.0**-level
    n = max(128, 2 * math.ceil(0.5 * (kappa + 64.0)))
    i = np.arange(n + 1)
    m = np.arange(1, n // 2 + 1)
    ends = np.where((i == 0) | (i == n), 1.0, 2.0) / n
    damp = np.where(m == n // 2, 1.0, 2.0) / (4.0 * m * m - 1.0)
    clenshaw_curtis = ends * (1.0 - damp @ np.cos(2.0 * np.pi * np.outer(m, i) / n))
    kx = kappa * np.cos(np.pi * i / n)
    waves = np.stack([np.ones_like(kx), np.cos(kx), np.sin(kx)]) * clenshaw_curtis
    moments = waves @ np.cos(np.pi * np.outer(i, np.arange(25)) / n)  # T_j(x_i) = cos(j i pi/n)
    table = np.zeros((3, 2, 25))
    table[:, 0] = moments @ _lobatto_to_chebyshev(24)
    table[:, 1, ::2] = moments[:, :13] @ _lobatto_to_chebyshev(12)
    table.flags.writeable = False  # cached: every caller shares it
    return table.reshape(3, 50)


@functools.cache
def _sample_steps(level: int) -> np.ndarray:
    """Where a panel of 2**-level cells samples, as fractions of its width: the centres of its
    _filon_samples(level) equal steps."""
    samples = int(_filon_samples(level))
    steps = (np.arange(samples) + 0.5) / samples
    steps.flags.writeable = False  # cached: every caller shares it
    return steps


@functools.cache
def _sample_interpolation(level: int) -> np.ndarray:
    """(samples, 25) map from a wide panel's FCC-25 node values to their interpolant at its samples.

    Chebyshev polynomials at the samples, x = 2 _sample_steps - 1, times
    the nodes' Chebyshev coefficients.  No sample is a node.
    """
    x = 2.0 * _sample_steps(level) - 1.0
    table = np.cos(np.outer(np.arccos(x), np.arange(25))) @ _lobatto_to_chebyshev(24)
    table.flags.writeable = False  # cached: every caller shares it
    return table


def _filon_level(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Each Filon panel's level: its half-width is (pi/2) 2**-level."""
    return np.rint(np.log2(_FILON_WIDTH / (hi - lo))).astype(np.intp)


def _filon_samples(level):
    """Envelope samples of a Filon panel of each ``level``: _SAMPLES_PER_CELL per cell of a
    wide panel (level < 0, two pi-cells or more), none for a pi-wide or narrower one."""
    return np.where(level < 0, _SAMPLES_PER_CELL << np.maximum(-level, 0), 0)


def _filon_edges(lower: float, cells: int) -> np.ndarray:
    """The first pass's Filon panel edges over ``cells`` pi-cells from ``lower``.

    Panels of 2**_FILON_WIDE_LEVELS cells from ``lower`` on, as far as
    none is wider than a quarter of |u| at its inner end (a panel may
    start at cell i while i <= -lower/pi - 5 2**_FILON_WIDE_LEVELS) and
    at least _FILON_MIN_WIDE_PANELS of them fit, then pi-wide panels up
    to the last cell.
    """
    size = 1 << _FILON_WIDE_LEVELS
    wide = max(0, min(math.floor((-lower / _FILON_WIDTH - 5 * size) / size) + 1, cells // size))
    if wide < _FILON_MIN_WIDE_PANELS:
        wide = 0
    starts = np.concatenate([size * np.arange(wide), np.arange(size * wide, cells + 1)])
    return lower + _FILON_WIDTH * starts.astype(float)


def _level_groups(level: np.ndarray) -> list:
    """(level, panels) for each level present: a slice of all of them for one level, else a mask per level."""
    if level.min() == level.max():  # the usual batch
        return [(int(level[0]), slice(None))]
    return [(at_level, level == at_level) for at_level in _distinct(level).tolist()]


def _fcc_rules(g: np.ndarray, lo: np.ndarray, hi: np.ndarray, kernel: str,
               shift: float = 0.0, groups: list | None = None) -> np.ndarray:
    """FCC-25 and FCC-13 values, shape (2, k, panels), from (k, panels, 25) values of g.

    A panel holds g(u) (c0 + cc cos(omega w) + cs sin(omega w)), w = u +
    ``shift``; with w = m + h x the weight is c0 + A cos(omega h x) + B
    sin(omega h x), A = cc cos(omega m) + cs sin(omega m), B = cs
    cos(omega m) - cc sin(omega m).  So a panel's two rules are h (c0 M1
    + A Mcos + B Msin), M the moments of g against the table rows of the
    panel's level: one matrix product per level present (``groups``, from
    _level_groups, when the caller has them).  The value is FCC-25, and
    |FCC-25 - FCC-13| (of the terms' sum, for two) its error.
    """
    _, omega, c0, cc, cs = _FILON_KERNELS[kernel]
    half = 0.5 * (hi - lo)
    if groups is None:
        groups = _level_groups(_filon_level(lo, hi))
    k = g.shape[0]
    # The moments with panels last, so the per-panel sums below run on
    # contiguous rows.  Table rows: (1, cos, sin) x (FCC-25, FCC-13).
    if len(groups) == 1:  # no gather
        moments = _filon_weights(kernel, groups[0][0]).reshape(6, 25) @ g.reshape(-1, 25).T
    else:
        moments = np.empty((6, k, lo.size))
        for at_level, at in groups:
            table = _filon_weights(kernel, at_level).reshape(6, 25)
            moments[:, :, at] = (table @ g[:, at].reshape(-1, 25).T).reshape(6, k, -1)
    moments = moments.reshape(3, 2, k, lo.size)  # (1, cos, sin), (FCC-25, FCC-13)
    phase = omega * (0.5 * (lo + hi) + shift)
    cos_m, sin_m = np.cos(phase), np.sin(phase)
    return (
        (c0 * half) * moments[0]
        + (half * (cc * cos_m + cs * sin_m)) * moments[1]
        + (half * (cs * cos_m - cc * sin_m)) * moments[2]
    )


class _Head(NamedTuple):
    """The kernel terms of integrate_semi_infinite's head, and its number of Filon cells."""

    terms: _Terms
    filon_cells: int


def _panel_values(evaluate, lo: np.ndarray, hi: np.ndarray, head: _Head | None, filon_end: float):
    """(values, errors) of every panel, shape (2, k, panels) in panel order.

    Consecutive whole panels go to the integrand together, as many as
    fit in _BATCH_NODES nodes (25 per Filon panel, which ends at or left
    of ``filon_end``, plus _SAMPLES_PER_CELL per cell of a wide one, 15
    per GK15 one), each batch filling its own columns.
    """
    fcc = hi <= filon_end
    ends = None  # the running node count, needed only with Filon panels or past one batch
    if 15 * lo.size > _BATCH_NODES or fcc.any():
        nodes = np.where(fcc, 25, 15)
        nodes[fcc] += _filon_samples(_filon_level(lo[fcc], hi[fcc]))
        ends = np.cumsum(nodes)
    out, start = None, 0
    while start < lo.size:
        stop = lo.size if ends is None else int(
            ends.searchsorted(_BATCH_NODES + (ends[start - 1] if start else 0), "right"))
        values, errors = _batch_values(evaluate, lo[start:stop], hi[start:stop], head, filon_end)
        if out is None:
            out = np.empty((2, len(values), lo.size))
        out[0, :, start:stop], out[1, :, start:stop] = values, errors
        start = stop
    return out


def _batch_values(evaluate, lo: np.ndarray, hi: np.ndarray, head: _Head | None, filon_end: float):
    """(values, errors) of the panels of one batch, from one evaluation call.

    Without ``head`` each panel takes GK15 of f.  With it, f is an
    envelope: a panel right of ``filon_end`` takes GK15 of f times each
    component's kernel, one left of it FCC-25/13 of f times each term's
    smooth factor, each term at its own phase and coefficient.  A wide
    Filon panel's error adds its sampled residual times its kernel
    weight (``_wide_errors``); its samples go in the same call, after
    the FCC nodes and before the GK15 ones.
    """
    if head is None:
        return _gk_rule(_evaluate_panels(evaluate, lo, hi), lo, hi)
    terms = head.terms
    fcc = hi <= filon_end
    gk = ~fcc
    lo_f, hi_f, lo_g, hi_g = lo[fcc], hi[fcc], lo[gk], hi[gk]
    width = hi_f - lo_f
    stops = [0]  # where the FCC nodes' columns end, then each wide level's samples
    if lo_f.size:
        groups = _level_groups(_filon_level(lo_f, hi_f))
        wide = [(at_level, at) for at_level, at in groups if at_level < 0]
        stops = list(itertools.accumulate(
            [25 * lo_f.size, *(width[at].size * int(_filon_samples(at_level)) for at_level, at in wide)]))
    u = np.empty(stops[-1] + 15 * lo_g.size)
    if lo_f.size:
        np.add((0.5 * (lo_f + hi_f))[:, None], (0.5 * width)[:, None] * _FCC_NODES, out=u[:stops[0]].reshape(-1, 25))
        for (at_level, at), start, stop in zip(wide, stops, stops[1:]):
            steps = _sample_steps(at_level)  # the centres of a panel's sample steps, panel by panel
            samples = u[start:stop].reshape(-1, steps.size)
            np.multiply(width[at, None], steps, out=samples)
            samples += lo_f[at, None]
    u_gk = u[stops[-1]:].reshape(-1, 15)
    np.add((0.5 * (lo_g + hi_g))[:, None], (0.5 * (hi_g - lo_g))[:, None] * _GK_NODES, out=u_gk)
    y = evaluate(u)
    out = np.empty((2, len(y), lo.size))  # values, errors
    if lo_g.size:
        out[..., gk] = _gk_rule(
            (y[:, stops[-1]:] * terms.rows(terms.head(u_gk.ravel()))).reshape(len(y), lo_g.size, 15), lo_g, hi_g
        )
    if lo_f.size:
        u_fcc = u[:stops[0]]
        both, g = 0.0, np.empty((len(y), u_fcc.size))
        for smooth, shift, scale in zip(terms.smooth(u_fcc), terms.shifts, terms.scales):
            np.multiply(y[:, :u_fcc.size], smooth, out=g)
            both = both + scale * _fcc_rules(g.reshape(len(y), lo_f.size, 25), lo_f, hi_f, terms.kernel, shift,
                                             groups)
        errors = np.abs(both[0] - both[1])
        if wide:
            _wide_errors(errors, y, zip(wide, stops, stops[1:]), terms, hi_f, width)
        out[..., fcc] = both[0], errors
    return out


def _wide_errors(errors: np.ndarray, y: np.ndarray, wide, terms: _Terms, hi: np.ndarray, width: np.ndarray) -> None:
    """Add each wide Filon panel's sampled residual times its kernel weight to ``errors`` (k, panels).

    ``y`` holds the envelope at the FCC nodes of every Filon panel (25
    per panel from column 0), and each ``wide`` entry ((level, panels),
    start, stop) names the columns of those panels' samples.  A panel's
    residual is the largest |envelope - its FCC-25 interpolant| over its
    samples, per component, counted 0 at or under _RESIDUAL_FLOOR of its
    largest node value: it bounds the envelope's departure from what the
    rule integrates, as far as a sample sees.  The weight bounds Int |K_c|
    over the panel by (|a_c| + |b_c|) (|c0| + |cc| + |cs|) times the width
    times the smooth factor at the panel's inner end ``hi``: left of -96
    that is its largest value on the panel, and the shifted term's factor,
    at u + shift >= |u|, is smaller still.
    """
    smooth, _, c0, cc, cs = _FILON_KERNELS[terms.kernel]
    scale = terms.magnitude * (abs(c0) + abs(cc) + abs(cs))
    nodes = y[:, :25 * width.size].reshape(len(y), width.size, 25)
    for (at_level, at), start, stop in wide:
        at_nodes = nodes[:, at]
        # (k panels, samples), from the product the other way round: with
        # this BLAS that is about 0.1 ms faster per tau = 1e4 pass, most of
        # it in the code that runs after it.
        fit = np.ascontiguousarray((_sample_interpolation(at_level) @ at_nodes.reshape(-1, 25).T).T)
        fit.reshape(len(y), -1)[...] -= y[:, start:stop]
        np.abs(fit, out=fit)
        residual = fit.max(axis=1).reshape(len(y), -1)
        residual[residual <= _RESIDUAL_FLOOR * np.abs(at_nodes).max(axis=2)] = 0.0
        errors[:, at] += residual * (scale * (width[at] * np.abs(smooth(hi[at]))))


def _children(lo: np.ndarray, hi: np.ndarray, lower: float, filon_end: float):
    """(lo, hi) of the panels that replace the refused panels ``lo``, ``hi``.

    A panel gives its two halves, except that a wide Filon panel (two
    pi-cells or more, from ``lower``) gives its pi-cells at once, with the
    edges the first pass gives pi-wide panels.  That takes one round and
    25 nodes a cell; halving would take _FILON_WIDE_LEVELS rounds, sample
    each half anew, and in every round split again the GK15 panels near
    resonance whose error is rounding noise above their share, which at
    rel_tol 1e-12 exhausted the subdivision budget.  The budget counts
    the split as one bisection, so the cells keep about the budget that a
    first pass laying them would have left them.
    """
    level = _filon_level(lo, hi)
    wide = (hi <= filon_end) & (level < 0)
    mid = 0.5 * (lo[~wide] + hi[~wide])
    if not wide.any():
        return np.concatenate([lo, mid]), np.concatenate([mid, hi])
    first = np.rint((lo[wide] - lower) / _FILON_WIDTH).astype(np.intp)
    count = np.left_shift(1, -level[wide])
    cells = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
    return (np.concatenate([lo[~wide], mid, lower + _FILON_WIDTH * cells.astype(float)]),
            np.concatenate([mid, hi[~wide], lower + _FILON_WIDTH * (cells + 1).astype(float)]))


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
    empty interval, which evaluates nothing.  Each call of ``f`` takes at
    most _BATCH_NODES nodes, the panels of the first pass and of each
    refinement round going out in batches of whole panels, so that no
    call makes fresh temporaries of several hundred KB that outgrow the
    L2 cache; the nodes and panels are those of one call.

    ``_head`` is internal to integrate_semi_infinite: ``f`` then gives
    the envelopes of the head's kernel terms, the first ``filon_cells``
    _FILON_WIDTH cells from ``a`` take Filon-Clenshaw-Curtis on the
    panels of ``_filon_edges`` (and on the panels that refinement puts in
    their place, see ``_children``), and ``max_panel_width`` splits the
    rest.
    """
    spec = spec or QuadratureSpec()
    if b == a:
        return 0.0, 0.0
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    evaluate = _as_evaluator(f)

    filon_end = a
    if _head is not None and _head.filon_cells:
        filon_edges = _filon_edges(a, _head.filon_cells)
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
        splits += n_split  # a wide Filon panel's split into its cells counts once
        if splits > spec.max_subdivisions:
            raise NonConvergenceError(
                f"subdivision budget {spec.max_subdivisions} exhausted{where} "
                f"(error estimate {err_total[worst]:.3e}, tolerance {tol[worst]:.3e})"
            )
        child_lo, child_hi = _children(lo[mask], hi[mask], a, filon_end)
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


def _structure_end(evaluate, terms: _Terms, cut: float, tol: np.ndarray) -> float:
    """Where structure seen in the tail of any component ends (``cut`` if none).

    Samples g = |f| sum_t |c_t| decay(u + shifts[t]) half a half period
    past each zero of the kernel's oscillating part, over the first
    _PROBE_HALF_PERIODS half periods past the cut: the envelope times
    the decay of each term's oscillation (its Filon smooth factor) and
    the term's coefficient, so terms of other phases sample alike.
    Extrapolating from a batch steps over g changing by more than a
    factor 2 between samples (a bump or edge narrower than about a
    period) or growing by more than that over a batch; such a change
    counts where its larger sample is worth more than its component's
    ``tol`` over a half period.
    """
    half = 0.5 * terms.period
    u = cut + half * (np.arange(_PROBE_HALF_PERIODS) + 0.5)
    g = np.abs(evaluate(u)) * sum(np.abs(scale) * decay for decay, scale in zip(terms.smooth(u), terms.scales))
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


def _semi_infinite(evaluate, spec: QuadratureSpec, lower: float, terms: _Terms, cut=None):
    """integrate_semi_infinite's (value, err) arrays before its final check.

    A given ``cut`` (an extension past structure) skips the probe.
    """
    half = 0.5 * terms.period

    def zero_past(u):
        return terms.phase + half * math.ceil((u - terms.phase) / half)

    probe = cut is None
    cut = zero_past(max(lower, 0.0) + _CUT_MARGIN) if probe else cut
    # Filon panels from lower to the last panel edge at or left of -_CUT_MARGIN.
    filon = min(math.floor((-_CUT_MARGIN - lower) / _FILON_WIDTH), _MAX_INITIAL_PANELS)
    if filon < _FILON_MIN_PANELS:
        filon = 0
    head, head_err = np.atleast_1d(*integrate_adaptive(
        evaluate, lower, cut, spec, max_panel_width=0.5 * half,
        breakpoints=None if filon else lower + 0.5 * half * _ORIGIN_BREAKS, _head=_Head(terms, filon),
    ))
    value, err = head, head_err
    if terms.far_weight:
        far, far_err = integrate_adaptive(
            lambda x: evaluate(cut / x) * terms.rows(terms.far(x, cut)), 0.0, 1.0, spec,
            breakpoints=_ORIGIN_BREAKS,
        )
        value, err = value + far, err + far_err
    end = _structure_end(evaluate, terms, cut, 0.5 * _tolerance(spec, value)) if probe else cut
    if end > cut:  # move the cut past the structure, for every component
        more, more_err = _semi_infinite(evaluate, spec, cut, terms, zero_past(end))
        return head + more, head_err + more_err
    tail, tail_err = _cycle_sum(lambda u: evaluate(u) * terms.rows(terms.tail(u)), cut, half)
    return value + tail, err + tail_err


def integrate_semi_infinite(
    f: Callable, spec: QuadratureSpec | None = None, *, lower: float = 0.0, kernel: str,
    shift: float | None = None, mix: Sequence[Sequence[float]] | None = None,
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
    64 pi-wide cells fit between ``lower`` and -96 the head takes them
    with Filon-Clenshaw-Curtis from ``lower`` (QUADPACK's QAWO scheme;
    Iserles and Norsett 2005): f times the smooth factor at 25
    Chebyshev-Lobatto nodes, integrated against 1, cos and sin with
    exact weights, the 13-node subset giving the error estimate.  The
    first panels span 32 cells each (about 100 in u), as far as that is
    at most a quarter of |u| at a panel's inner end and at least four of
    them fit; the rest span one cell.  A wide panel's weights come from
    moments exact at any frequency, and its error adds the largest
    departure of f from the panel's interpolant over samples of f pi/16
    apart (16 a cell: no point is more than 0.098 from a sample, as none
    is more than 0.1025 from a node of a pi-wide panel) times a bound on
    the kernel's weight there.  Where a sample sees structure the
    interpolant misses, the refinement splits the panel into its cells
    at once, the pi-wide panels a stretch without wide ones would take.
    So a smooth envelope costs 16 samples and under one FCC node a wide
    cell: at tau = 1e4, 4,125 FCC nodes and 23,040 samples, where
    pi-wide panels alone took 39,000 FCC nodes.  The weights depend on
    a panel only through its level, so the panels of one level take one
    matrix product of a term's node values with that level's weights
    (the moments against 1, cos and sin), and each panel combines its
    three moments with its own phase.  Nodes include the panel ends, so
    a sliver at ``lower`` needs no breakpoints; lines down to width 0.05
    in u, on a zero or a smooth background, and a step there are tested
    to the tolerance: the guarantee is for features that show at a
    sample pi/16 apart.  At most 20000 cells are laid; past them GK15
    takes over.

    Past the cut the kernel is sin(u) (1/u), resp. 1/(2u^2) -
    cos(2u)/(2u^2): the non-oscillating part is one adaptive integral on
    x = cut/u in (0, 1] (with the same geometric breakpoints toward
    x = 0), and the oscillating part is summed over one batch of 16 half
    periods, one GK15 panel each, and extrapolated with Wynn's epsilon
    algorithm (as in QUADPACK's QAWF).  That needs an envelope
    smooth over a batch of periods, so the first 768 half periods past
    the cut are sampled once each, |f| times the decay of the kernel's
    oscillation (1/u, resp. 1/(2u^2)): where they show a narrow bump, an
    edge or fast growth in any component, the cut moves past it and the
    stretch up to the new cut becomes one more adaptive integral.
    Structure further out, or too faint to move a sample, is not seen.

    With ``shift`` (finite, >= 0, and ``lower`` >= -shift/2) and ``mix``,
    one (a_c, b_c) pair per component, component c is integrated against
    the two-term kernel a_c k(u) + b_c k(u + shift), one evaluation of
    the envelope per node serving both terms.  Every stage forms it as
    a_c [k(u) - k(u + shift)] + (a_c + b_c) k(u + shift), the difference
    without cancellation (a series in (u + shift/2)^2 where shift < 1,
    see _Terms), so a_c = -b_c keeps the digits of a difference of
    kernels that nearly cancel.  The Filon panels integrate each term at
    its own phase; the shifted term is there at least shift/2 >= 96 +
    64 pi from its resonance.  The tail sums the combined integrand over
    the half periods of k(u)'s oscillation, and the probe samples the
    envelope times each term's decay at its own argument.  Component c's
    value is then a_c times the one-term integral of f_c from ``lower``
    plus b_c times that of f_c(u - shift) from lower + shift, to the
    tolerance.

    ``f`` returns one value per node, or a (k, N) array for N nodes
    holding k envelopes that share every evaluation (for example two
    weights against one kernel).  They share the head's panels and one
    cut, while each component keeps its own tolerance max(abs_tol,
    rel_tol*|I_c|) in the head, the structure probe and the final check,
    which raises NonConvergenceError naming the component that fails: it
    is the one guard of the tail's extrapolation.  A
    component may thus end on finer panels, or a further cut, than it
    would alone; the value and error are then length-k arrays.  An
    (N,)-valued ``f`` gives floats.  Each call of ``f`` takes at most
    _BATCH_NODES nodes (the probe takes 768, a cycle sum 240): the head
    and the far integral go out in batches of whole panels, so a long
    Filon head (27k nodes at tau = 1e4, most of them samples) makes no
    fresh temporaries of several hundred KB, page-faulted in on every
    pass and too large for the L2 cache.
    """
    spec = spec or QuadratureSpec()
    if not math.isfinite(lower):
        raise ValueError("lower bound must be finite")
    if kernel not in _KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}")
    if shift is None:
        if mix is not None:
            raise ValueError("mix needs a shift")
        evaluate = _Evaluator(f)
    else:
        if not (0.0 <= shift < math.inf and lower >= -0.5 * shift):
            raise ValueError("shift must be finite, nonnegative and at least -2 lower")
        if mix is None or np.ndim(mix) != 2 or np.shape(mix)[1] != 2:
            raise ValueError("a shift needs a mix of one (a, b) pair per component")
        evaluate = _Evaluator(f, components=len(mix))
    value, err = _semi_infinite(evaluate, spec, lower, _Terms(kernel, shift, mix))
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
