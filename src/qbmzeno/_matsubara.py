"""Closed-form coefficients of the Ohmic Lorentz-Drude bath.

For J(w) = (w/pi) wc^2 / (wc^2 + w^2) the bath correlation functions are
sums of exponentials, the cutoff pole plus the Matsubara poles
nu_k = 2 pi k T (Weiss, Quantum Dissipative Systems):

  eta(s) = (wc^2/2) e^{-wc s}
  nu(s)  = wc^2 T [ e^{-wc s}/wc
                    + 2 Sum_k (nu_k e^{-nu_k s} - wc e^{-wc s}) / (nu_k^2 - wc^2) ]

In w0 = 1 units, Delta and gamma are Int_0^t of cos(s) nu(s) and sin(s)
eta(s), and their running integrals Int_0^tau of (tau - s) times the same.
Each exponential e^{-lambda s} therefore contributes one closed-form
kernel t^p phi_p((lambda - i) t), with p = 1 for (Delta, gamma) at time t
and p = 2 for (IDelta, Igamma) at time tau:

  phi_1(w) = -expm1(-w) / w,   phi_2(w) = (w + expm1(-w)) / w^2,

short power series for |w| < 1.  With h(lambda) = lambda Re[t^p phi_p]:

  gamma-like = (wc^2/2) Im[t^p phi_p(w_c)],  w_c = (wc - i) t
  Delta-like = T [h(wc) + 2 wc^2 Sum_k G(nu_k)]        (theta > 0)
             = (wc^2/pi) Int_0^inf G(nu) dnu            (theta = 0)
  G(nu)      = (h(nu) - h(wc)) / (nu^2 - wc^2),

the divided difference that stays finite where cot(wc/2T) has a pole.
Its kernel part (F(nu) - F(wc)) / (nu - wc) comes from the recurrence
phi_p = (1/(p-1)! - phi_{p-1}) / w, phi_0 = e^{-w}, without cancellation,
so G is as smooth at nu = wc as anywhere else.  From t = 1 on, the
t^{p-1}/z part of each kernel (the Markovian growth) is summed in closed
form, t^{p-1} times Delta_M resp. gamma_M, so that (2n+1) IDelta - Igamma
keeps its digits when the two nearly cancel (theta = 0, n = 0).

At theta = 0 the integral of G is taken in closed form: partial
fractions over the poles {i, wc, -wc} leave logarithms and exponential
integrals E1 and Ei, with a series form at small t (``_theta0_delta``).
They are computed here with numpy alone (DLMF 6.6, 6.12): the power
series of Ein for E1 below |z| = 1 and for Ei below x = 40, the
asymptotic series of e^{-x} Ei(x) from there on, and e^z E1(z) = Int_0^inf
e^{-s} / (z + s) ds by a fixed trapezoid rule for |z| >= 1.  All the
series of one form take one ``_power_series`` call.

The Matsubara sum is direct up to an index K set by (r, theta, t), K at
most _MAX_TERMS.  Past it the summand is a power series in 1/nu, summed
with Hurwitz zeta functions zeta(m, K + 1) (Euler-Maclaurin, DLMF
2.10.1 and 25.11; universal constants of the integer K, so each row is
computed once per process, ``_zeta_rows``).  A row whose K is over
_MAX_TERMS (small theta t, or small theta against wc) is completed from
k = _GREGORY_START by Gregory's endpoint formula around Int_a^inf G
dnu.  G is analytic and bounded for Re nu > 0 and falls like 1/nu^2, so
in x = ln(nu - a) the integrand decays exponentially at both ends and
is analytic in the strip |Im x| < pi/2, where the plain trapezoid rule
of step h errs by about exp(-2 pi (pi/2) / h) = exp(-pi^2 / h)
(Trefethen and Weideman, SIAM Rev. 56, 385 (2014)): 7e-18 of the
integral at h = _TAIL_STEP = 0.25 (5e-15 at 0.3).  The nodes run over
ln(min(1, wc, 1/t)) - _TAIL_SPAN .. ln(max(1, wc, 1/t)) + _TAIL_SPAN,
320 to 480 of them a t.  At ten corners from t = 1e-15 to 300, on both
kernels and powers, with a far above max(1, wc) and at a = wc, it is
within 1e-13 of mpmath.

``pair`` takes a whole grid of times and evaluates it in one pass: the
direct terms and the Gregory integrals' nodes of every t in blocks of
about _BLOCK_TERMS entries, the zeta tails as one array per grid, and
theta = 0 elementwise.  The rows of one pass may belong to different
cells (wc, theta): a crossover map's grids, or one Brent-Dekker step of
each of its brackets, are one call.  A single time of one cell is the
grid of one.  The value at a given t is bit-identical whatever other
rows share its call, because nothing a row's value is made of depends
on them: its terms and nodes are formed elementwise, from its cell's
constants (each computed once per distinct cell, by the scalar
expression a one-cell call uses), and summed over its own segment
(``np.add.reduceat``) or along the term axis from the left.  In a call
of one cell the constants are that cell's floats, and the terms of a
row that fills a block alone take the row's values by broadcasting, not
gathered per term, so a single time costs about its own numpy calls.
"""

from __future__ import annotations

import math

import numpy as np

# Taylor terms of phi_p (|w| < 1) and of its divided differences (|w| < 1.5).
_SERIES_TERMS = 24
# Direct Matsubara terms at most (past it Gregory's completion from
# _GREGORY_START costs fewer summands); an exponential is dropped past
# exp(-_EXP_CUT); the 1/nu series needs nu > _SERIES_MARGIN * max(1, wc).
_MAX_TERMS = 1024
_EXP_CUT = 40.0
_SERIES_MARGIN = 8.0
_SERIES_ORDER = 20
_ORDERS = np.arange(2, _SERIES_ORDER + 1)
_NEG_ORDERS = -_ORDERS.astype(float)
# Gregory's formula: head terms before it, and its coefficients for the
# forward differences Delta^1 .. Delta^10.
_GREGORY_START = 64
_GREGORY = np.array([
    -1 / 12, 1 / 24, -19 / 720, 3 / 160, -863 / 60480, 275 / 24192,
    -33953 / 3628800, 8183 / 1036800, -3250433 / 479001600, 4671 / 788480,
])
# Gregory integrals: the trapezoid step in x = ln(nu - lower) (error about
# exp(-pi^2 / step), see the module docstring), and how far (in x) the
# nodes reach past G's scales 1, wc and 1/t on either side.
_TAIL_STEP = 0.25
_TAIL_SPAN = 40.0
# Summand entries evaluated at once, across the times of a grid, and
# values of w per block of Taylor power rows (24 powers each).
_BLOCK_TERMS = 4096
_SERIES_CHUNK = 128
# Hurwitz zeta: terms summed directly before the Euler-Maclaurin
# remainder, and the Bernoulli numbers B_2 .. B_12 of its correction.
_ZETA_SHIFT = 10
_ZETA_ROWS = 32  # values of a at once (341 powers each)
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730))
# theta = 0: the small-t form below t = _SMALL_T / max(1, wc) (unsplit
# kernel), and the asymptotic series of e^{-x} Ei(x) from x =
# _ASYMPTOTIC_X on, with _ASYMPTOTIC_TERMS terms.
_SMALL_T = 0.1
_ASYMPTOTIC_X = 40.0
_ASYMPTOTIC_TERMS = 40
_FACTORIALS = np.array([float(math.factorial(k)) for k in range(_ASYMPTOTIC_TERMS)])
_EULER_GAMMA = 0.57721566490153286
# S(y) = Sum_{k >= 1} y^k / (k k!), with Ei(x) = gamma_E + ln x + S(x) and
# E1(z) = -gamma_E - ln z - S(-z) (DLMF 6.6): 104 terms for |y| < _ASYMPTOTIC_X.
_EI_SERIES = np.array([0.0] + [1 / (k * math.factorial(k)) for k in range(1, 105)])
# S(y) and the asymptotic series of Ei (_FACTORIALS, padded with zero terms) as
# the coefficient rows of one series call; at small t, Ein(x) - x (-x^2 times
# _EI_TAIL at -x, padded likewise) and phi_2 (_TAYLOR[2]).
_EI_TAIL = _EI_SERIES[2:14]
_EXP_SERIES = np.zeros((2, len(_EI_SERIES)))
_EXP_SERIES[0], _EXP_SERIES[1, :_ASYMPTOTIC_TERMS] = _EI_SERIES, _FACTORIALS
# e^z E1(z) = Int_0^inf e^{-s} / (z + s) ds for |z| >= 1, Re z >= 0: the
# trapezoid rule in w, s = exp(w - e^-w) (the double-exponential map of
# [0, inf), Takahasi and Mori 1974), step 0.12 over [-4.5, 4.02].  The
# integrand falls like exp(-e^-w) and exp(-e^w) at the two ends; the 72
# nodes hold 1e-15 for z = x in [1, 40] and z = -it, t in [1, 1e6].
_E1_STEP = 0.12
_E1_ABSCISSAE = -4.5 + _E1_STEP * np.arange(72)
_E1_NODES = np.exp(_E1_ABSCISSAE - np.exp(-_E1_ABSCISSAE))
_E1_WEIGHTS = _E1_STEP * _E1_NODES * (1.0 + np.exp(-_E1_ABSCISSAE)) * np.exp(-_E1_NODES)


def _taylor(power: int) -> np.ndarray:
    """Taylor coefficients of phi_p, (-1)^n / (n + p)!, lowest first."""
    return np.array([(-1) ** n / math.factorial(n + power) for n in range(_SERIES_TERMS)])


_TAYLOR = {p: _taylor(p) for p in (1, 2)}


def _divided_hankel(a: np.ndarray) -> np.ndarray:
    """A[m, j] = a_{j+1+m} (zero past the last coefficient): b = w_c^m A[m, j] summed over m."""
    size = len(a) - 1
    return np.array([[a[j + 1 + m] if j + 1 + m <= size else 0.0 for j in range(size)]
                     for m in range(size)])


_DIVIDED_TAYLOR = {p: _divided_hankel(a) for p, a in _TAYLOR.items()}
_SMALL_SERIES = np.zeros((2, _SERIES_TERMS))
_SMALL_SERIES[0, :len(_EI_TAIL)], _SMALL_SERIES[1] = _EI_TAIL, _TAYLOR[2]
_SMALL_ROWS = np.array([0, 1])
# Rows of divided-difference coefficients formed at once (23 x 23 terms each).
_TAYLOR_ROWS = 32


def _powers(w: np.ndarray, count: int) -> np.ndarray:
    """w^0 .. w^(count-1) along a new last axis, by a running product."""
    out = np.empty(w.shape + (count,), dtype=w.dtype)
    out[..., 0] = 1.0
    out[..., 1:] = w[..., None]
    return np.multiply.accumulate(out, axis=-1, out=out)


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Sums along the last axis from the left: a row's sum ignores the other rows."""
    return np.add.accumulate(terms, axis=-1)[..., -1]


def _power_series(w: np.ndarray, coefficients: np.ndarray, rows=None) -> np.ndarray:
    """Sum_n c_n w^n at each w (1-D), summed from the lowest power.

    ``coefficients`` is one (terms,) set for every w or, with ``rows``,
    a (rows, terms) table of which w[i] takes row rows[i].  The power
    rows are formed _SERIES_CHUNK values of w at a time.
    """
    if w.size <= _SERIES_CHUNK:
        c = coefficients if rows is None else coefficients[rows]
        return _row_sums(_powers(w, c.shape[-1]) * c)
    out = np.empty_like(w)
    for i in range(0, w.size, _SERIES_CHUNK):
        part = slice(i, i + _SERIES_CHUNK)
        c = coefficients if rows is None else coefficients[rows[part]]
        out[part] = _row_sums(_powers(w[part], c.shape[-1]) * c)
    return out


def _k(w: np.ndarray, power: int, c: float = 1.0, small=None, phi1=None) -> np.ndarray:
    """(c - phi_{p-1}(w)) / w with phi_0 = e^{-w}; phi_p(w) itself for c = 1.

    Elementwise, Re w >= 0.  Below |w| = 1 (``small``, if the caller has
    it), phi_p comes from its Taylor series (only c = 1 gets there).  At
    power 2 the closed form goes through phi_1(w): ``phi1``, an array
    like w, receives it at every |w| >= 1 and is left as it is below.
    """
    if small is None:
        small = np.abs(w) < 1.0
    count = np.count_nonzero(small)
    if count == len(w):
        return _power_series(w, _TAYLOR[power])
    if not count:
        return _k_closed(w, power, c, phi1)
    out = np.empty_like(w)
    out[small] = _power_series(w[small], _TAYLOR[power])
    big = ~small
    w_big = w[big]
    if phi1 is None:
        out[big] = _k_closed(w_big, power, c)
    else:
        first = np.empty_like(w_big)
        out[big] = _k_closed(w_big, power, c, first)
        phi1[big] = first
    return out


def _k_closed(w: np.ndarray, power: int, c: float, phi1=None) -> np.ndarray:
    """_k at |w| >= 1, from exp resp. expm1; at power 2 phi_1 goes to ``phi1`` if given."""
    minus = -w
    if power == 1:
        return (np.expm1(minus) if c else np.exp(minus)) / minus
    first = np.divide(np.expm1(minus), minus, out=phi1)
    return (c - first) / w


def _exp_divided(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """(e^{-w1} - e^{-w2}) / (w1 - w2) = -e^{-a} phi_1(b - a), Re a <= Re b.

    w1 and w2 share their imaginary part (the row's -t), so the complex
    (real part first) minimum and maximum order them by real part.
    """
    a = np.minimum(w1, w2)
    return -np.exp(-a) * _k(np.maximum(w1, w2) - a, 1)


_ALL = slice(None)  # every row of a kernel


class _Kernel:
    """The time kernel F = t^p k((lambda - i) t) and the summand G(nu), for a grid of t.

    k = _k(., p, c): c = 1 gives phi_p, c = 0 (``split``, every t >= 1 so
    |w| >= 1) gives phi_p - 1/w, the kernel without its Markovian part.
    Per-time quantities are arrays over the grid ``t``; a summand node
    names its time by a row index into them, or all nodes of one row
    share it as the slice of that row (its constants then broadcast over
    the nodes).  G needs the divided difference of k between w and w_c;
    it is formed without cancellation, from the same recurrence, so G is
    smooth through nu = wc.

    ``wc`` and ``theta`` (read by the Matsubara sums only) are the floats
    of one cell or arrays like ``t``, each row's own cell.  A constant of
    a cell (``per_cell``) is then computed once per distinct (wc, theta),
    by the expression a one-cell kernel evaluates, and gathered to the
    rows that need it (``at``), so every row is what its cell alone gives.
    """

    def __init__(self, wc, t: np.ndarray, power: int, split: bool, theta=0.0) -> None:
        self.t, self.power = t, power
        self.c = 0.0 if split else 1.0
        self.one_cell = not isinstance(wc, np.ndarray)
        if self.one_cell:
            self.wc_rows = wc  # the float of one cell
        else:  # the distinct cells, by (wc, theta) as one complex key
            cells, self._cell_of = np.unique(wc + 1j * theta, return_inverse=True)
            wc, theta = cells.real, cells.imag
            self._cells = list(zip(wc.tolist(), theta.tolist()))
            self.wc_rows = wc[self._cell_of]
        self.wc, self.theta = wc, theta
        self.tp = t**power
        self.w_c = (self.wc_rows - 1j) * t
        # Rows whose k(w_c), and divided differences near w_c, take the Taylor form.
        self.taylor_rows = np.abs(self.w_c) < 1.0
        self.k_c = _k(self.w_c, power, self.c, self.taylor_rows)
        self.f_c = self.tp * self.k_c  # t^p k(w_c): gamma-like and h(wc) / wc
        self.h_c = self.wc_rows * self.f_c.real
        # Power 2 rows outside the Taylor form take phi_1(w) in their recurrence.
        self.needs_phi1 = power == 2 and np.count_nonzero(self.taylor_rows) < len(t)
        self._divided_taylor = None

    def per_cell(self, function):
        """function(wc, theta) of one cell, or over the distinct cells: an array (a tuple
        of arrays where the function returns a tuple)."""
        if self.one_cell:
            return function(self.wc, self.theta)
        values = [function(wc, theta) for wc, theta in self._cells]
        if isinstance(values[0], tuple):
            return tuple(np.array(column) for column in zip(*values))
        return np.array(values)

    def at(self, value, rows):
        """A per-cell value (``per_cell``, ``wc``, ``theta``) at the given rows."""
        if self.one_cell:
            return value
        index = self._cell_of[rows]
        return tuple(v[index] for v in value) if isinstance(value, tuple) else value[index]

    def cell(self, function, rows):
        """function(wc, theta) of each row's cell, at the given rows."""
        if self.one_cell:
            return function(self.wc, self.theta)
        return self.at(self.per_cell(function), rows)

    def divided_taylor(self) -> np.ndarray:
        """Per Taylor row, the coefficients b_j of (k(w) - k(w_c)) / (w - w_c) in w.

        From Sum_n a_n (w^n - w_c^n) / (w - w_c) = Sum_j b_j w^j with
        b_j = Sum_{m >= 0} a_{j+1+m} w_c^m, summed over m from the left.
        """
        if self._divided_taylor is None:
            hankel = _DIVIDED_TAYLOR[self.power]
            b = np.empty((len(self.t), len(hankel)), dtype=complex)  # set at taylor_rows only
            rows = np.flatnonzero(self.taylor_rows)
            for r0 in range(0, len(rows), _TAYLOR_ROWS):
                part = rows[r0:r0 + _TAYLOR_ROWS]
                terms = _powers(self.w_c[part], len(hankel))[:, :, None] * hankel
                b[part] = np.add.reduce(terms, axis=1)  # over m in order: not the contiguous axis
            self._divided_taylor = b
        return self._divided_taylor

    def divided(self, w: np.ndarray, k: np.ndarray, rows, phi1) -> np.ndarray:
        """(k(w) - k(w_c)) / (w - w_c) with the w_c of each node's row, also at w = w_c.

        ``k`` is k(w), already evaluated, and ``phi1`` phi_1(w) where |w|
        >= 1 (power 2, from k's closed form) or None.
        """
        taylor = self.taylor_rows[rows]
        count = np.count_nonzero(taylor)
        if count == 0:
            return self._divided_recurrence(w, k, self.w_c[rows], phi1)
        if count == len(taylor):
            return self._divided_quotient(w, k, rows)
        out = np.empty_like(w)
        other = ~taylor
        out[other] = self._divided_recurrence(w[other], k[other], self.w_c[rows[other]],
                                              None if phi1 is None else phi1[other])
        out[taylor] = self._divided_quotient(w[taylor], k[taylor], rows[taylor])
        return out

    def _divided_quotient(self, w: np.ndarray, k: np.ndarray, rows) -> np.ndarray:
        """|w_c| < 1: the quotient itself, and within 0.5 of w_c its Taylor form in w."""
        offset = w - self.w_c[rows]
        near = np.abs(offset) < 0.5
        out = k - self.k_c[rows]
        np.divide(out, offset, out=out, where=~near)
        if np.count_nonzero(near):
            if isinstance(rows, slice):  # one row's coefficients for every node
                out[near] = _power_series(w[near], self.divided_taylor()[rows])
            else:
                out[near] = _power_series(w[near], self.divided_taylor(), rows[near])
        return out

    def _divided_recurrence(self, w: np.ndarray, k: np.ndarray, w2: np.ndarray,
                            phi1) -> np.ndarray:
        """|w_c| >= 1: [k] = -(k(w) + [phi_{p-1}]) / w_c, and [phi_1] likewise from [phi_0].

        At power 2, phi_1(w) is ``phi1`` where |w| >= 1 and its Taylor series below.
        """
        previous = _exp_divided(w, w2)
        if self.power == 2:
            small = np.abs(w) < 1.0
            if np.count_nonzero(small):
                phi1[small] = _power_series(w[small], _TAYLOR[1])
            previous = -(phi1 + previous) / w2
        return -(k + previous) / w2

    def summand(self, nu: np.ndarray, rows) -> np.ndarray:
        """G(nu) = (h(nu) - h(wc)) / (nu^2 - wc^2) with h(lambda) = lambda Re F.

        At 1-D nodes ``nu`` of the times ``t[rows]``, ``rows`` the row of
        each node or the slice of the one row of them all.  Below nu =
        wc/2 as written; from there on as Re[F(nu) + wc (F(nu) - F(wc)) /
        (nu - wc)] / (nu + wc), which is smooth through nu = wc but
        cancels like nu/wc below it.
        """
        t, tp = self.t[rows], self.tp[rows]
        wc = self.wc_rows if self.one_cell else self.wc_rows[rows]
        w = nu - 1j
        w *= t
        phi1 = np.empty_like(w) if self.needs_phi1 else None
        k = _k(w, self.power, self.c, phi1=phi1)
        f = tp * k
        low = nu < 0.5 * wc
        if not np.count_nonzero(low):
            f += (wc * tp * t) * self.divided(w, k, rows, phi1)
            return f.real / (nu + wc)
        shared = isinstance(rows, slice)

        def nodes(value, mask):
            """A value per node at the masked nodes; as it is if the nodes share it."""
            return value if shared or np.ndim(value) == 0 else value[mask]

        out = np.empty(nu.shape)
        nu_low, wc_low = nu[low], nodes(wc, low)
        out[low] = (nu_low * f.real[low] - self.h_c[nodes(rows, low)]) / (
            (nu_low - wc_low) * (nu_low + wc_low)
        )
        high = ~low
        if np.count_nonzero(high):
            nu, wc = nu[high], nodes(wc, high)
            gain = wc * nodes(tp, high) * nodes(t, high)
            f = f[high] + gain * self.divided(w[high], k[high], nodes(rows, high),
                                              None if phi1 is None else phi1[high])
            out[high] = f.real / (nu + wc)
        return out

    def asymptotic(self, rows: np.ndarray) -> tuple[np.ndarray, float]:
        """(a1, a2) of the large-nu form F -> a1/z + a2/z^2, z = nu - i, per row."""
        return self.c * self.t[rows] ** (self.power - 1), -1.0 if self.power == 2 else 0.0


_FIRST = np.zeros(1, dtype=np.int64)  # the offset of a block's first row


def _blocks(counts: np.ndarray):
    """Consecutive row ranges [i0, i1) of about _BLOCK_TERMS terms (one row at least)."""
    i0 = 0
    while i0 < len(counts):
        i1, total = i0 + 1, counts[i0]
        while i1 < len(counts) and total + counts[i1] <= _BLOCK_TERMS:
            total += counts[i1]
            i1 += 1
        yield i0, i1
        i0 = i1


def _terms(counts: np.ndarray, rows: np.ndarray):
    """k = 1 .. counts[i] for each row i, concatenated in blocks of about _BLOCK_TERMS.

    Yields (i0, i1, k, index, nodes, starts): the terms of rows i0 .. i1
    - 1 one after the other, the row of each term (its position in
    ``counts``, and in the kernel: ``rows`` there) and the offset of each
    row's first term.  A block of one row gives the row as slices, whose
    values broadcast over its terms; a single row is one block, without
    the block search.
    """
    for i0, i1 in ((0, 1),) if len(counts) == 1 else _blocks(counts):
        if i1 - i0 == 1:
            row = rows[i0]
            yield i0, i1, np.arange(1, counts[i0] + 1), slice(i0, i1), slice(row, row + 1), _FIRST
            continue
        lengths = counts[i0:i1]
        starts = np.concatenate([_FIRST, np.cumsum(lengths)[:-1]])
        k = np.arange(int(lengths.sum())) - np.repeat(starts, lengths) + 1
        index = np.repeat(np.arange(i0, i1), lengths)
        yield i0, i1, k, index, rows[index], starts


def _direct_sums(kernel: _Kernel, rows: np.ndarray, last: np.ndarray, step) -> np.ndarray:
    """Sum_{k=1}^{last} G(k step) per row, each over its own segment (``step`` per cell)."""
    out = np.empty(len(rows))
    for i0, i1, k, _, nodes, starts in _terms(last, rows):
        values = kernel.summand(kernel.at(step, nodes) * k, nodes)
        out[i0:i1] = np.add.reduceat(values, starts)
    return out


def _series_table() -> np.ndarray:
    """E[l, i, m] with (P, Q, R)_m = Sum_l E[l, i, m] wc^(2l) over the orders m = 2 .. _SERIES_ORDER.

    With h(nu) -> nu Re[a1/z + a2/z^2] = Sum_j (a1 Re i^j + a2 j Re
    i^(j-1)) nu^-j and 1/(nu^2 - wc^2) = Sum_l wc^(2l) nu^(-2l-2), the
    1/nu series of G is Sum_m nu^-m (a1 P_m + a2 Q_m - h(wc) R_m).
    """
    re_i = [(-1.0) ** (j // 2) if j % 2 == 0 else 0.0 for j in range(_SERIES_ORDER + 1)]
    table = np.zeros((_SERIES_ORDER // 2, 3, len(_ORDERS)))
    for col, m in enumerate(_ORDERS.tolist()):
        for level in range((m - 2) // 2 + 1):
            j = m - 2 - 2 * level  # the order of h in this product
            table[level, 0, col] = re_i[j]
            table[level, 1, col] = j * re_i[j - 1] if j >= 1 else 0.0
            table[level, 2, col] = 1.0 if j == 0 else 0.0
    return table


_SERIES_TABLE = _series_table()
_WC_POWERS = np.arange(0, _SERIES_ORDER, 2)[:, None, None]


def _zeta_remainder() -> np.ndarray:
    """Q[n, m] of Sum_{j >= 0} (b + j)^-m ~ Sum_n Q[n, m] b^(1-m-n), m = 2 .. _SERIES_ORDER.

    Euler-Maclaurin for f(x) = x^-m: the integral b^(1-m)/(m-1), half
    the end term b^-m/2 and B_2k/(2k)! (m)_(2k-1) b^(1-m-2k).
    """
    table = np.zeros((2 * len(_BERNOULLI) + 1, len(_ORDERS)))
    for col, m in enumerate(_ORDERS.tolist()):
        table[:2, col] = 1.0 / (m - 1), 0.5
        for k, (num, den) in enumerate(_BERNOULLI, 1):
            pochhammer = math.perm(m + 2 * k - 2, 2 * k - 1)  # (m)_(2k-1)
            table[2 * k, col] = num * pochhammer / (den * math.factorial(2 * k))
    return table


_ZETA_REMAINDER = _zeta_remainder()
_ZETA_OFFSETS = np.arange(_ZETA_SHIFT + 1.0)
# Index of b^(1-m-n) among the powers b^-1, b^-2, ... of _hurwitz_zeta.
_ZETA_HANKEL = np.arange(len(_ZETA_REMAINDER))[:, None] + _ORDERS - 2


def _hurwitz_zeta(a: np.ndarray) -> np.ndarray:
    """zeta(m, a) for m = 2 .. _SERIES_ORDER (columns) at each a >= 2 (rows).

    The first _ZETA_SHIFT terms (a + j)^-m as they are, the rest by
    Euler-Maclaurin at b = a + _ZETA_SHIFT (``_ZETA_REMAINDER``), with
    fixed term counts; within 2e-15 of mpmath for a in [2, 1e6].  The
    terms lie along the middle axis, not the contiguous one, so numpy
    adds them row by row in order, and a row does not depend on the
    others; _ZETA_ROWS rows at a time.
    """
    if len(a) > _ZETA_ROWS:
        return np.concatenate([_hurwitz_zeta(a[i:i + _ZETA_ROWS])
                               for i in range(0, len(a), _ZETA_ROWS)])
    y = 1.0 / (a[:, None] + _ZETA_OFFSETS)
    powers = np.multiply.accumulate(y[..., None].repeat(_ZETA_HANKEL[-1, -1] + 1, axis=-1), axis=-1)
    remainder = _ZETA_REMAINDER * powers[:, -1, _ZETA_HANKEL]
    terms = np.concatenate((powers[:, :-1, 1:_SERIES_ORDER], remainder), axis=1)
    return np.add.reduce(terms, axis=1)


# zeta(m, K + 1) at the bounds K = 1 .. _MAX_TERMS of the direct rows:
# universal constants, each row computed by _hurwitz_zeta the first time a
# zeta tail needs it and kept for the process (at most 0.16 MB, nothing at
# import).  The rows are stored in the order they are filled (_ZETA_ROW[K],
# -1 until then), so a process touches only the memory of the rows it uses.
# A row of _hurwitz_zeta does not depend on the other rows of its call, so
# a row is the same whichever rows were filled with it, and in what order.
_ZETA_TABLE = np.empty((_MAX_TERMS, len(_ORDERS)))
_ZETA_ROW = np.full(_MAX_TERMS + 1, -1, dtype=np.intp)


def _zeta_rows(last: np.ndarray) -> np.ndarray:
    """zeta(m, K + 1) for m = 2 .. _SERIES_ORDER (columns) at each bound K of ``last``
    (integers 1 .. _MAX_TERMS), from the table; a missing row is computed once."""
    row = _ZETA_ROW[last]
    if np.count_nonzero(row < 0):
        missing = np.array(sorted(set(last[row < 0].tolist())), dtype=np.intp)
        start = np.count_nonzero(_ZETA_ROW >= 0)
        _ZETA_TABLE[start:start + len(missing)] = _hurwitz_zeta(missing + 1.0)
        _ZETA_ROW[missing] = np.arange(start, start + len(missing))
        row = _ZETA_ROW[last]
    return _ZETA_TABLE[row]


def _series_coefficients(wc: float, _) -> np.ndarray:
    """(P, Q, R) of a cell, (3, orders): the 1/nu series of G per unit a1, a2 and h(wc).

    Summed over the levels l in order, along the first (not the contiguous) axis.
    """
    return np.add.reduce(_SERIES_TABLE * wc**_WC_POWERS, axis=0)


def _zeta_tails(kernel: _Kernel, rows: np.ndarray, last: np.ndarray, scale) -> np.ndarray:
    """Sum_{k > last} G(k step) per row from the 1/nu series of G (exponentials dropped).

    With G = Sum_m C_m nu^-m, Sum_{k > K} G(k step) = Sum_m C_m step^-m
    zeta(m, K + 1); the bound K keeps nu > _SERIES_MARGIN max(1, wc), so
    the terms fall off like (wc / nu_K)^m.  ``scale`` is step^-m per cell.
    The zeta rows come from the process-wide table of ``_zeta_rows``: a
    direct row has K <= _MAX_TERMS.
    """
    a1, a2 = kernel.asymptotic(rows)
    # (P, Q, R) of the row's cell: (3, orders), or (rows, 3, orders) for rows of several cells.
    pqr = kernel.cell(_series_coefficients, rows)
    p, q, r = pqr[..., 0, :], pqr[..., 1, :], pqr[..., 2, :]
    coeff = a1[:, None] * p + a2 * q - kernel.h_c[rows][:, None] * r
    return _row_sums(coeff * (kernel.at(scale, rows) * _zeta_rows(last)))


def _gregory(kernel: _Kernel, rows: np.ndarray, start: np.ndarray, step):
    """Gregory's parts of Sum_{k >= 1} G(k step) per row, all but the integral.

    Sum_{k >= K} f(k) = Int_K^inf f + f(K)/2 + Sum_n c_n Delta^n f(K), so
    the row's sum is head + Int_{K step}^inf G / step + correction; returns
    (head, correction).
    """
    head = np.empty(len(rows))
    correction = np.empty(len(rows))
    counts = start + len(_GREGORY)
    for i0, i1, k, _, nodes, starts in _terms(counts, rows):
        values = kernel.summand(kernel.at(step, nodes) * k, nodes)
        first = starts + start[i0:i1] - 1  # the term at K
        head[i0:i1] = np.add.reduceat(values, np.ravel([starts, first], order="F"))[::2]
        diffs = values[first[:, None] + np.arange(len(_GREGORY) + 1)]
        ends = np.empty((i1 - i0, len(_GREGORY)))
        for n in range(len(_GREGORY)):
            diffs = np.diff(diffs, axis=1)
            ends[:, n] = diffs[:, 0]
        correction[i0:i1] = 0.5 * values[first] + _row_sums(_GREGORY * ends)
    return head, correction


def _tail_integrals(kernel: _Kernel, rows: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Int_lower^inf G(nu) dnu per row, the Gregory tails of the Matsubara sums.

    The trapezoid rule in x = ln(nu - lower), step _TAIL_STEP, over the
    row's own range ln(min(1, wc, 1/t)) - _TAIL_SPAN .. ln(max(1, wc,
    1/t)) + _TAIL_SPAN, each row summed from the left over its segment.
    """
    inverse = 1.0 / kernel.t[rows]
    low, high = (kernel.cell(lambda wc, _: bound(1.0, wc), rows) for bound in (min, max))
    first = np.log(np.minimum(inverse, low)) - _TAIL_SPAN
    width = np.log(np.maximum(inverse, high)) + _TAIL_SPAN - first
    counts = np.ceil(width / _TAIL_STEP).astype(np.int64)
    out = np.empty(len(rows))
    for i0, i1, k, index, nodes, starts in _terms(counts, rows):
        gap = np.exp(first[index] + _TAIL_STEP * k)
        values = kernel.summand(lower[index] + gap, nodes) * gap
        out[i0:i1] = np.add.reduceat(values, starts)
    return _TAIL_STEP * out


def _exponential_integrals(x: np.ndarray, t: np.ndarray) -> tuple:
    """e^{-x} Ei(x) (Ei as the principal value) and e^{x} E1(x) at x > 0, and E1(-it) at t > 0.

    Ei from the series S(x) of positive terms below _ASYMPTOTIC_X, from
    there on (1/x) Sum_k k! x^-k over _ASYMPTOTIC_TERMS terms, the last
    of which is below 1e-16 of the first; E1(x) from S(-x) below x = 1
    and from ``_exp_e1`` above; E1(-it) = -gamma_E - ln(-it) - S(it)
    below t = 1 and e^{it} _exp_e1(-it) above.  One series call takes
    every series argument, as complex numbers (a real argument's sum is
    the same bits) and with the asymptotic series as a second coefficient
    row (padded with zeros).  The rule takes x and -it in two calls: a
    real z rounds differently in the complex division.
    """
    near, small, t_small = x < _ASYMPTOTIC_X, x < 1.0, t < 1.0
    x_far, t_series = x[~near], t[t_small]
    y = np.concatenate((x[near], -x[small]))  # S(x) and S(-x)
    count, split = np.count_nonzero(near), len(y)
    end = split + len(t_series)  # S(it) in between, the asymptotic series after
    args = np.concatenate((y, 1j * t_series, 1.0 / x_far))
    if len(x_far):
        rows = np.zeros(len(args), dtype=np.intp)
        rows[end:] = 1
        series = _power_series(args, _EXP_SERIES, rows)
    else:
        series = _power_series(args, _EI_SERIES)
    ei, e1, e1_it = np.empty(len(x)), np.empty(len(x)), np.empty(len(t), dtype=complex)
    if split:
        logs = _EULER_GAMMA + np.log(np.abs(y)) + series[:split].real
        ei[near] = np.exp(-y[:count]) * logs[:count]
        e1[small] = -np.exp(-y[count:]) * logs[count:]
    if len(x_far):
        ei[~near] = series[end:].real / x_far
    if len(t_series):
        e1_it[t_small] = (complex(-_EULER_GAMMA, 0.5 * np.pi) - np.log(t_series)
                          - series[split:end])
    if split - count < len(x):  # some x >= 1
        large = ~small
        e1[large] = _exp_e1(x[large])
    if len(t_series) < len(t):  # some t >= 1
        large = ~t_small
        t_large = t[large]
        e1_it[large] = np.exp(1j * t_large) * _exp_e1(-1j * t_large)
    return ei, e1, e1_it


def _exp_e1(z: np.ndarray) -> np.ndarray:
    """e^z E1(z) for |z| >= 1 with Re z >= 0 (z = x > 0 or z = -it), by the rule of _E1_NODES."""
    return _row_sums(_E1_WEIGHTS / (z[:, None] + _E1_NODES))


def _theta0_delta(kernel: _Kernel) -> np.ndarray:
    """(wc^2/pi) Int_0^inf G(nu) dnu for every t of ``kernel``, in closed form.

    With z = nu - i, the kernel is a sum of 1/z, e^{-zt}/z and (for p =
    2) 1/z^2 terms; nu/(nu^2 - wc^2) splits into poles b = +-wc (h(wc)
    drops out: PV Int_0^inf dnu/(nu^2 - wc^2) = 0), so Delta = (wc^2/pi)
    Re Sum_b K_b / 2 with K_b = PV Int_0^inf F(nu) / (nu - b) dnu.  Partial
    fractions over {b, i}, d = b - i, leave logarithms, Lg = -ln wc -
    i pi/2, and exponential integrals, Phi_b = e^{it} E(b) - E1(-it) with
    E(b) = Int_0^inf e^{-nu t} / (nu - b) dnu:

      e^{it} E(wc) = -e^{it} e^{-wc t} Ei(wc t),  e^{it} E(-wc) = e^{it} e^{wc t} E1(wc t)
      p = 1:  K_b = (Lg - Phi_b) / d            (split: -Phi_b / d)
      p = 2:  K_b = (Phi_b - Lg) / d^2 + (t (Lg + E1(-it)) - i expm1(it)) / d
                                                (split: no Lg in the second part)

    Below t = _SMALL_T / max(1, wc) (only unsplit kernels get there) the
    forms cancel; there E1(x) = -gamma_E - ln x + Ein(x) takes the
    logarithms out analytically, with L = gamma_E + ln(wc t), so that
    every remaining term is of the order of the result (see _theta0_small).
    """
    t = kernel.t
    high, *constants = kernel.per_cell(_theta0)
    small = t <= _SMALL_T / kernel.at(high, _ALL)
    count = np.count_nonzero(small)
    if count == len(t):
        total = _theta0_small(kernel, _ALL, constants[1:])
    elif not count:
        total = _theta0_large(kernel, _ALL, constants)
    else:
        total = np.empty(len(t), dtype=complex)
        total[small] = _theta0_small(kernel, small, constants[1:])
        rest = ~small
        total[rest] = _theta0_large(kernel, rest, constants)
    wc = kernel.wc_rows
    return wc * wc / (2.0 * np.pi) * total.real


def _theta0(wc: float, _) -> tuple:
    """A cell's constants at theta = 0: max(1, wc), Lg = -ln wc - i pi/2, and
    d = b - i at the poles b = wc and -wc, then their squares."""
    d_plus, d_minus = complex(wc, -1.0), complex(-wc, -1.0)
    log_part = complex(-math.log(wc), -0.5 * math.pi)
    return max(1.0, wc), log_part, d_plus, d_minus, d_plus * d_plus, d_minus * d_minus


def _theta0_large(kernel: _Kernel, rows, constants) -> np.ndarray:
    """Sum_b K_b of _theta0_delta at the given rows, in the form for t past the small-t bound.

    ``constants`` are the cells' Lg, d and d^2 of ``_theta0``.
    """
    t, power = kernel.t[rows], kernel.power
    log_part, d_plus, d_minus, d2_plus, d2_minus = kernel.at(tuple(constants), rows)
    e_it = np.exp(1j * t)
    ei, e1, e1_it = _exponential_integrals(kernel.at(kernel.wc, rows) * t, t)
    if power == 2:
        linear = -1j * np.expm1(1j * t) + t * (e1_it + log_part if kernel.c else e1_it)
    sums = np.zeros(len(t), dtype=complex)
    for d, d2, e_b in ((d_plus, d2_plus, -ei), (d_minus, d2_minus, e1)):
        phi = e_it * e_b - e1_it
        if power == 1:
            sums += ((log_part if kernel.c else 0.0) - phi) / d
        else:
            sums += (phi - log_part) / d2 + linear / d
    return sums


def _theta0_small(kernel: _Kernel, rows, poles) -> np.ndarray:
    """Sum_b K_b of _theta0_delta for the unsplit kernel at its small t, without cancellation.

    With Ein(x) = E1(x) + gamma_E + ln x and L = gamma_E + ln(wc t),
    Phi_b - Lg = -expm1(-dt) L + e^{-dt} Ein(-bt) - Ein(-it), and p = 1
    takes K_b = -(Phi_b - Lg) / d.  For p = 2 the terms linear in t
    cancel between Ein(-bt), Ein(-it) and expm1(it); written with
    Ein(x) - x, e^{-w} - 1 + w = w^2 phi_2(w) and expm1(x) - x = x^2
    phi_2(-x), d^2 K_b = -(dt)^2 phi_2(dt) L - bt expm1(-dt) + e^{-dt}
    (Ein(-bt) + bt) - (Ein(-it) + it) + dt Ein(-it) + i d t^2 phi_2(-it),
    each term of order t^2.  ``poles`` are the cells' d and d^2 of
    ``_theta0``.  Ein(x) - x = -x^2 Sum_n (-x)^n / ((n+2) (n+2)!) at x =
    -it and -bt, and phi_2 at -it and dt (all within 0.15 of 0, so in its
    Taylor form), are one series call, as complex numbers (a real
    argument's sum is the same bits).
    """
    t, power, wc = kernel.t[rows], kernel.power, kernel.at(kernel.wc, rows)
    d_plus, d_minus, d2_plus, d2_minus = kernel.at(tuple(poles), rows)
    log = _EULER_GAMMA + np.log(wc * t)
    it = 1j * t
    terms = ((wc, d_plus, d2_plus), (-wc, d_minus, d2_minus))
    x = [-it] + [-b * t for b, _, _ in terms]  # Ein(x) - x at these
    w = [d * t for _, d, _ in terms]
    args = [-xi for xi in x]
    if power == 1:
        series = np.split(_power_series(np.concatenate(args), _EI_TAIL), 3)
    else:  # and phi_2 at -it and dt
        args += [-it] + w
        series = np.split(_power_series(np.concatenate(args), _SMALL_SERIES,
                                        np.repeat(_SMALL_ROWS, 3 * len(t))), 6)
    tail_i = -x[0] * x[0] * series[0]  # Ein(-it) + it
    if power == 2:
        q = 1j * t * t * series[3]  # -i (expm1(it) - it)
    total = np.zeros(len(t), dtype=complex)
    for j, (b, d, d2) in enumerate(terms):
        w_b = w[j]
        e = np.exp(-w_b)
        tail_b = -x[j + 1] * x[j + 1] * series[j + 1].real  # Ein(-bt) + bt
        if power == 1:
            total += (np.expm1(-w_b) * log - e * (tail_b - b * t) + tail_i - it) / d
        else:
            total += (-w_b * w_b * series[j + 4] * log - b * t * np.expm1(-w_b) + e * tail_b
                      - tail_i + w_b * (tail_i - it) + d * q) / d2
    return total


def _thermal(wc: float, theta: float) -> tuple:
    """A cell's constants at theta > 0: the Matsubara step 2 pi theta, the bound
    k_series past which the 1/nu series of G holds, step^-m of the zeta tails
    and tanh(1 / 2 theta) of the Markovian Delta_M."""
    step = 2.0 * np.pi * theta
    k_series = float(max(math.ceil(_SERIES_MARGIN * max(1.0, wc) / step), 1))
    return step, k_series, step**_NEG_ORDERS, math.tanh(0.5 / theta)


def _matsubara_sums(kernel: _Kernel, step, k_series, scale) -> np.ndarray:
    """Sum_{k >= 1} G(k step) for every t of ``kernel``: direct up to a bound, completed past it.

    step, k_series and scale are per cell (``_thermal``).  Past the bound
    the zeta tail completes the direct sum; where the bound is over the
    cap, Gregory's formula does.
    """
    k_exp = np.ceil(_EXP_CUT / (kernel.at(step, _ALL) * kernel.t))
    last = np.maximum(k_exp, kernel.at(k_series, _ALL))
    direct = last <= _MAX_TERMS
    if np.count_nonzero(direct) == len(last):  # a single time is one of these, or Gregory's
        rows, count = np.arange(len(last)), last.astype(np.int64)
        return _direct_sums(kernel, rows, count, step) + _zeta_tails(kernel, rows, count, scale)
    total = np.empty(len(last))
    rows = np.flatnonzero(direct)
    if len(rows):
        count = last[rows].astype(np.int64)
        total[rows] = (_direct_sums(kernel, rows, count, step)
                       + _zeta_tails(kernel, rows, count, scale))
    rows = np.flatnonzero(~direct)
    # Gregory from K past the exponentials if the cap allows; otherwise
    # step * t < _EXP_CUT / _MAX_TERMS, so the first difference Gregory
    # neglects, about (step t)^11 of a term of e^{-nu t}, is below 3e-16.
    k = k_exp[rows]
    start = np.where(k <= _MAX_TERMS, np.maximum(k, _GREGORY_START), _GREGORY_START)
    start = start.astype(np.int64)
    head, correction = _gregory(kernel, rows, start, step)
    step = kernel.at(step, rows)
    total[rows] = head + _tail_integrals(kernel, rows, start * step) / step + correction
    return total


def pair(wc, theta, t: np.ndarray, power: int) -> tuple[np.ndarray, np.ndarray]:
    """Coupling-free (Delta, gamma) (power 1) or (IDelta, Igamma) (power 2) at w0 = 1.

    ``t`` is a 1-D array of positive times.  ``wc`` (the cutoff ratio r)
    and ``theta`` are floats, one cell for every time, or arrays like
    ``t``, row i being the cell (wc[i], theta[i]): its rows then go
    through one pass, grouped by theta = 0 or not and by the t >= 1
    split.  Returns two arrays like ``t``.  Each value is the same bit
    for bit whatever other rows, of its own cell or of others, share the
    call.  Multiply by alpha^2 (and by w0 for power 1, with t scaled by
    w0) for the physical values.  The gamma-like value depends on (wc,
    t) only.
    """
    split = t >= 1.0
    if isinstance(wc, np.ndarray) or isinstance(theta, np.ndarray):
        wc, theta = np.broadcast_to(wc, t.shape), np.broadcast_to(theta, t.shape)
        hot = theta != 0.0
        groups = [(np.flatnonzero((hot == thermal) & (split == late)), thermal, late)
                  for thermal in (False, True) for late in (False, True)]
        kernels = [(rows, thermal, _Kernel(wc[rows], t[rows], power, late, theta[rows]))
                   for rows, thermal, late in groups if len(rows)]
    else:
        thermal, late = theta != 0.0, np.count_nonzero(split)
        if late in (0, len(t)):  # one kernel, a single time among them
            return _kernel_pair(_Kernel(wc, t, power, late > 0, theta), thermal)
        kernels = [(rows, thermal, _Kernel(wc, t[rows], power, late, theta))
                   for rows, late in ((np.flatnonzero(~split), False),
                                      (np.flatnonzero(split), True))]
    delta, gamma = np.empty_like(t), np.empty_like(t)
    for rows, thermal, kernel in kernels:
        delta[rows], gamma[rows] = _kernel_pair(kernel, thermal)
    return delta, gamma


def _kernel_pair(kernel: _Kernel, thermal: bool) -> tuple[np.ndarray, np.ndarray]:
    """``pair`` at the times of one kernel: every row at theta > 0 (``thermal``) or at 0."""
    wc = kernel.wc_rows
    if thermal:
        step, k_series, scale, tanh = kernel.per_cell(_thermal)
        theta = kernel.at(kernel.theta, _ALL)
        delta = theta * (kernel.h_c + 2.0 * wc * wc * _matsubara_sums(kernel, step, k_series, scale))
    else:
        delta = _theta0_delta(kernel)
    gamma = 0.5 * wc * wc * kernel.f_c.imag
    if not kernel.c:
        markov = kernel.t ** (kernel.power - 1) * wc * wc / (2.0 * (wc * wc + 1.0))
        gamma = gamma + markov
        if thermal:
            markov = markov / kernel.at(tanh, _ALL)
        delta = delta + markov
    return delta, gamma
