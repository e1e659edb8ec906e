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
e^{-s} / (z + s) ds by a fixed trapezoid rule for |z| >= 1.

The Matsubara sum is direct up to an index set by (r, theta, t) and
capped at _MAX_TERMS.  Past it the summand is either a power series in
1/nu, summed with Hurwitz zeta functions (Euler-Maclaurin, DLMF 2.10.1
and 25.11), or (small theta t) it is
completed by Gregory's endpoint formula around Int_a^inf G dnu.  G is
analytic near the positive axis and falls like 1/nu^2, so in x = ln(nu
- a) the integrand decays exponentially at both ends and the plain
trapezoid rule converges geometrically (Trefethen and Weideman, SIAM
Rev. 56, 385 (2014)): step _TAIL_STEP over ln(min(1, wc, 1/t)) -
_TAIL_SPAN .. ln(max(1, wc, 1/t)) + _TAIL_SPAN, 500 to 800 nodes a t.
At ten corners from t = 1e-15 to 300, on both kernels and powers, with
a far above max(1, wc) and at a = wc, it is within 1e-13 of mpmath.

``pair`` takes a whole grid of times and evaluates it in one pass: the
direct terms and the Gregory integrals' nodes of every t in blocks of
about _BLOCK_TERMS entries, the zeta tails as one array per grid, and
theta = 0 elementwise.  A single time is the grid of one.  The value at
a given t is bit-identical whatever other times share its grid, because
nothing a t's value is made of depends on them: its terms and nodes are
formed elementwise, from constants that are the same for every t, and
summed over its own segment (``np.add.reduceat``) or along the term
axis from the left.
"""

from __future__ import annotations

import math

import numpy as np

# Taylor terms of phi_p (|w| < 1) and of its divided differences (|w| < 1.5).
_SERIES_TERMS = 24
# Direct Matsubara terms at most; an exponential is dropped past
# exp(-_EXP_CUT); the 1/nu series needs nu > _SERIES_MARGIN * max(1, wc).
_MAX_TERMS = 4096
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
# Gregory integrals: the trapezoid step in x = ln(nu - lower), and how far
# (in x) the nodes reach past G's scales 1, wc and 1/t on either side.
_TAIL_STEP = 0.15
_TAIL_SPAN = 40.0
# Summand entries evaluated at once, across the times of a grid, and
# values of w per block of Taylor power rows (24 powers each).
_BLOCK_TERMS = 4096
_SERIES_CHUNK = 128
# Hurwitz zeta: terms summed directly before the Euler-Maclaurin
# remainder, and the Bernoulli numbers B_2 .. B_12 of its correction.
_ZETA_SHIFT = 10
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
# Rows of divided-difference coefficients formed at once (23 x 23 terms each).
_TAYLOR_ROWS = 64


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
    out = np.empty_like(w)
    for i in range(0, w.size, _SERIES_CHUNK):
        part = slice(i, i + _SERIES_CHUNK)
        c = coefficients if rows is None else coefficients[rows[part]]
        out[part] = _row_sums(_powers(w[part], c.shape[-1]) * c)
    return out


def _k(w: np.ndarray, power: int, c: float = 1.0) -> np.ndarray:
    """(c - phi_{p-1}(w)) / w with phi_0 = e^{-w}; phi_p(w) itself for c = 1.

    Elementwise, Re w >= 0.  Below |w| = 1, phi_p comes from its Taylor
    series (only c = 1 gets there).
    """
    small = np.abs(w) < 1.0
    if not np.count_nonzero(small):
        return _k_closed(w, power, c)
    out = np.empty_like(w)
    out[small] = _power_series(w[small], _TAYLOR[power])
    big = ~small
    out[big] = _k_closed(w[big], power, c)
    return out


def _k_closed(w: np.ndarray, power: int, c: float) -> np.ndarray:
    """_k at |w| >= 1, from exp resp. expm1."""
    if power == 1:
        minus = -w
        return (np.expm1(minus) if c else np.exp(minus)) / minus
    return (c - _k_closed(w, 1, 1.0)) / w


def _exp_divided(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """(e^{-w1} - e^{-w2}) / (w1 - w2) = -e^{-a} phi_1(b - a), Re a <= Re b.

    w1 and w2 share their imaginary part (the row's -t), so the complex
    (real part first) minimum and maximum order them by real part.
    """
    a = np.minimum(w1, w2)
    return -np.exp(-a) * _k(np.maximum(w1, w2) - a, 1)


class _Kernel:
    """The time kernel F = t^p k((lambda - i) t) and the summand G(nu), for a grid of t.

    k = _k(., p, c): c = 1 gives phi_p, c = 0 (``split``, every t >= 1 so
    |w| >= 1) gives phi_p - 1/w, the kernel without its Markovian part.
    Per-time quantities are arrays over the grid ``t``; a summand node
    names its time by a row index into them.  G needs the divided
    difference of k between w and w_c; it is formed without
    cancellation, from the same recurrence, so G is smooth through
    nu = wc.
    """

    def __init__(self, wc: float, t: np.ndarray, power: int, split: bool) -> None:
        self.wc, self.t, self.power = wc, t, power
        self.c = 0.0 if split else 1.0
        self.tp = t**power
        self.w_c = complex(wc, -1.0) * t
        self.k_c = _k(self.w_c, power, self.c)
        self.f_c = self.tp * self.k_c  # t^p k(w_c): gamma-like and h(wc) / wc
        self.h_c = wc * self.f_c.real
        # Rows whose divided differences near w_c take the Taylor form.
        self.taylor_rows = np.abs(self.w_c) < 1.0
        self._divided_taylor = None

    def k(self, w: np.ndarray) -> np.ndarray:
        return _k(w, self.power, self.c)

    def divided_taylor(self) -> np.ndarray:
        """Per row, the Taylor coefficients b_j of (k(w) - k(w_c)) / (w - w_c) in w.

        From Sum_n a_n (w^n - w_c^n) / (w - w_c) = Sum_j b_j w^j with
        b_j = Sum_{m >= 0} a_{j+1+m} w_c^m, summed over m from the left.
        """
        if self._divided_taylor is None:
            hankel = _DIVIDED_TAYLOR[self.power]
            b = np.empty((len(self.t), len(hankel)), dtype=complex)
            for r0 in range(0, len(b), _TAYLOR_ROWS):
                w_c = self.w_c[r0:r0 + _TAYLOR_ROWS]
                terms = _powers(w_c, len(hankel))[:, :, None] * hankel
                b[r0:r0 + _TAYLOR_ROWS] = np.cumsum(terms, axis=1)[:, -1, :]
            self._divided_taylor = b
        return self._divided_taylor

    def divided(self, w: np.ndarray, k: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """(k(w) - k(w_c)) / (w - w_c) with the w_c of each node's row, also at w = w_c.

        ``k`` is k(w), already evaluated.
        """
        taylor = self.taylor_rows[rows]
        count = np.count_nonzero(taylor)
        if count == 0:
            return self._divided_recurrence(w, k, self.w_c[rows])
        if count == len(w):
            return self._divided_quotient(w, k, rows)
        out = np.empty_like(w)
        other = ~taylor
        out[other] = self._divided_recurrence(w[other], k[other], self.w_c[rows[other]])
        out[taylor] = self._divided_quotient(w[taylor], k[taylor], rows[taylor])
        return out

    def _divided_quotient(self, w: np.ndarray, k: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """|w_c| < 1: the quotient itself, and within 0.5 of w_c its Taylor form in w."""
        offset = w - self.w_c[rows]
        near = np.abs(offset) < 0.5
        out = k - self.k_c[rows]
        np.divide(out, offset, out=out, where=~near)
        if np.count_nonzero(near):
            out[near] = _power_series(w[near], self.divided_taylor(), rows[near])
        return out

    def _divided_recurrence(self, w: np.ndarray, k: np.ndarray, w2: np.ndarray) -> np.ndarray:
        """|w_c| >= 1: [k] = -(k(w) + [phi_{p-1}]) / w_c, and [phi_1] likewise from [phi_0]."""
        previous = _exp_divided(w, w2)
        if self.power == 2:
            previous = -(_k(w, 1) + previous) / w2
        return -(k + previous) / w2

    def summand(self, nu: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """G(nu) = (h(nu) - h(wc)) / (nu^2 - wc^2) with h(lambda) = lambda Re F.

        At 1-D nodes ``nu`` of the times ``t[rows]``.  Below nu = wc/2 as
        written; from there on as Re[F(nu) + wc (F(nu) - F(wc)) / (nu -
        wc)] / (nu + wc), which is smooth through nu = wc but cancels like
        nu/wc below it.
        """
        t, tp = self.t[rows], self.tp[rows]
        w = nu - 1j
        w *= t
        k = self.k(w)
        f = tp * k
        low = nu < 0.5 * self.wc
        if not np.count_nonzero(low):
            f += (self.wc * tp * t) * self.divided(w, k, rows)
            return f.real / (nu + self.wc)
        out = np.empty(nu.shape)
        nu_low = nu[low]
        out[low] = (nu_low * f.real[low] - self.h_c[rows[low]]) / (
            (nu_low - self.wc) * (nu_low + self.wc)
        )
        high = ~low
        if np.count_nonzero(high):
            rows, nu = rows[high], nu[high]
            f = f[high] + (self.wc * tp[high] * t[high]) * self.divided(w[high], k[high], rows)
            out[high] = f.real / (nu + self.wc)
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


def _terms(counts: np.ndarray):
    """k = 1 .. counts[i] for each row i, concatenated in blocks of about _BLOCK_TERMS.

    Yields (i0, i1, k, index, starts): the terms of rows i0 .. i1 - 1 one
    after the other, the row of each term and the offset of each row's
    first term.
    """
    for i0, i1 in _blocks(counts):
        lengths = counts[i0:i1]
        if i1 - i0 == 1:
            starts, k = _FIRST, np.arange(1, lengths[0] + 1)
        else:
            starts = np.concatenate([_FIRST, np.cumsum(lengths)[:-1]])
            k = np.arange(int(lengths.sum())) - np.repeat(starts, lengths) + 1
        yield i0, i1, k, np.repeat(np.arange(i0, i1), lengths), starts


def _direct_sums(kernel: _Kernel, rows: np.ndarray, last: np.ndarray, step: float) -> np.ndarray:
    """Sum_{k=1}^{last} G(k step) per row, each over its own segment."""
    out = np.empty(len(rows))
    for i0, i1, k, index, starts in _terms(last):
        out[i0:i1] = np.add.reduceat(kernel.summand(step * k, rows[index]), starts)
    return out


def _series_table() -> np.ndarray:
    """E[i, m, l] with (P, Q, R)_m = Sum_l E[i, m, l] wc^(2l) over the orders m = 2 .. _SERIES_ORDER.

    With h(nu) -> nu Re[a1/z + a2/z^2] = Sum_j (a1 Re i^j + a2 j Re
    i^(j-1)) nu^-j and 1/(nu^2 - wc^2) = Sum_l wc^(2l) nu^(-2l-2), the
    1/nu series of G is Sum_m nu^-m (a1 P_m + a2 Q_m - h(wc) R_m).
    """
    re_i = [(-1.0) ** (j // 2) if j % 2 == 0 else 0.0 for j in range(_SERIES_ORDER + 1)]
    table = np.zeros((3, len(_ORDERS), _SERIES_ORDER // 2))
    for col, m in enumerate(_ORDERS.tolist()):
        for level in range((m - 2) // 2 + 1):
            j = m - 2 - 2 * level  # the order of h in this product
            table[0, col, level] = re_i[j]
            table[1, col, level] = j * re_i[j - 1] if j >= 1 else 0.0
            table[2, col, level] = 1.0 if j == 0 else 0.0
    return table


_SERIES_TABLE = _series_table()
_WC_POWERS = np.arange(0, _SERIES_ORDER, 2)


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
    others.
    """
    y = 1.0 / (a[:, None] + _ZETA_OFFSETS)
    powers = np.multiply.accumulate(y[..., None].repeat(_ZETA_HANKEL[-1, -1] + 1, axis=-1), axis=-1)
    remainder = _ZETA_REMAINDER * powers[:, -1, _ZETA_HANKEL]
    terms = np.concatenate((powers[:, :-1, 1:_SERIES_ORDER], remainder), axis=1)
    return np.add.reduce(terms, axis=1)


def _zeta_tails(kernel: _Kernel, rows: np.ndarray, last: np.ndarray, step: float) -> np.ndarray:
    """Sum_{k > last} G(k step) per row from the 1/nu series of G (exponentials dropped).

    With G = Sum_m C_m nu^-m, Sum_{k > K} G(k step) = Sum_m C_m step^-m
    zeta(m, K + 1); the bound K keeps nu > _SERIES_MARGIN max(1, wc), so
    the terms fall off like (wc / nu_K)^m.
    """
    a1, a2 = kernel.asymptotic(rows)
    p, q, r = _row_sums(_SERIES_TABLE * kernel.wc**_WC_POWERS)
    coeff = a1[:, None] * p + a2 * q - kernel.h_c[rows][:, None] * r
    scale = step**_NEG_ORDERS
    return _row_sums(coeff * (scale * _hurwitz_zeta(last + 1.0)))


def _gregory(kernel: _Kernel, rows: np.ndarray, start: np.ndarray, step: float):
    """Gregory's parts of Sum_{k >= 1} G(k step) per row, all but the integral.

    Sum_{k >= K} f(k) = Int_K^inf f + f(K)/2 + Sum_n c_n Delta^n f(K), so
    the row's sum is head + Int_{K step}^inf G / step + correction; returns
    (head, correction).
    """
    head = np.empty(len(rows))
    correction = np.empty(len(rows))
    counts = start + len(_GREGORY)
    for i0, i1, k, index, starts in _terms(counts):
        values = kernel.summand(step * k, rows[index])
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
    inverse, wc = 1.0 / kernel.t[rows], kernel.wc
    first = np.log(np.minimum(inverse, min(1.0, wc))) - _TAIL_SPAN
    width = np.log(np.maximum(inverse, max(1.0, wc))) + _TAIL_SPAN - first
    counts = np.ceil(width / _TAIL_STEP).astype(np.int64)
    out = np.empty(len(rows))
    for i0, i1, k, index, starts in _terms(counts):
        gap = np.exp(first[index] + _TAIL_STEP * k)
        values = kernel.summand(lower[index] + gap, rows[index]) * gap
        out[i0:i1] = np.add.reduceat(values, starts)
    return _TAIL_STEP * out


def _scaled_exponential_integrals(x: np.ndarray) -> np.ndarray:
    """e^{-x} Ei(x) (Ei as the principal value) and e^{x} E1(x) for x > 0, as rows.

    Ei from the series S(x) of positive terms below _ASYMPTOTIC_X, from
    there on (1/x) Sum_k k! x^-k over _ASYMPTOTIC_TERMS terms, the last
    of which is below 1e-16 of the first; E1 from S(-x) below x = 1 and
    from ``_exp_e1`` above.  One series call takes both S(x) and S(-x).
    """
    out = np.empty((2, len(x)))
    near, small = x < _ASYMPTOTIC_X, x < 1.0
    count = np.count_nonzero(near)
    y = np.concatenate((x[near], -x[small]))
    if len(y):
        logs = _EULER_GAMMA + np.log(np.abs(y)) + _power_series(y, _EI_SERIES)
        out[0, near] = np.exp(-y[:count]) * logs[:count]
        out[1, small] = -np.exp(-y[count:]) * logs[count:]
    if count < len(x):
        x_far = x[~near]
        out[0, ~near] = _power_series(1.0 / x_far, _FACTORIALS) / x_far
    if len(y) - count < len(x):
        out[1, ~small] = _exp_e1(x[~small])
    return out


def _exp_e1(z: np.ndarray) -> np.ndarray:
    """e^z E1(z) for |z| >= 1 with Re z >= 0 (z = x > 0 or z = -it), by the rule of _E1_NODES."""
    return _row_sums(_E1_WEIGHTS / (z[:, None] + _E1_NODES))


def _e1_imaginary(t: np.ndarray) -> np.ndarray:
    """E1(-it) for t > 0: -gamma_E - ln(-it) - S(it) below t = 1, e^{it} _exp_e1(-it) above."""
    out = np.empty(len(t), dtype=complex)
    small = t < 1.0
    if np.count_nonzero(small):
        t_small = t[small]
        series = _power_series(1j * t_small, _EI_SERIES)
        out[small] = complex(-_EULER_GAMMA, 0.5 * np.pi) - np.log(t_small) - series
    large = ~small
    if np.count_nonzero(large):
        t_large = t[large]
        out[large] = np.exp(1j * t_large) * _exp_e1(-1j * t_large)
    return out


def _ein_tail(x: np.ndarray) -> np.ndarray:
    """Ein(x) - x = -S(-x) - x = -x^2 Sum_n (-x)^n / ((n+2) (n+2)!), for |x| <= _SMALL_T."""
    return -x * x * _power_series(-x, _EI_SERIES[2:14])


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
    wc, t, power = kernel.wc, kernel.t, kernel.power
    total = np.empty(len(t), dtype=complex)
    small = t <= _SMALL_T / max(1.0, wc)
    if np.count_nonzero(small):
        total[small] = _theta0_small(wc, t[small], power)
    rest = ~small
    if np.count_nonzero(rest):
        t = t[rest]
        e_it = np.exp(1j * t)
        e1_it = _e1_imaginary(t)
        log_part = complex(-math.log(wc), -0.5 * math.pi)
        if power == 2:
            linear = -1j * np.expm1(1j * t) + t * (e1_it + log_part if kernel.c else e1_it)
        ei, e1 = _scaled_exponential_integrals(wc * t)
        sums = np.zeros(len(t), dtype=complex)
        for b, e_b in ((wc, -ei), (-wc, e1)):
            d = complex(b, -1.0)
            phi = e_it * e_b - e1_it
            if power == 1:
                sums += ((log_part if kernel.c else 0.0) - phi) / d
            else:
                sums += (phi - log_part) / (d * d) + linear / d
        total[rest] = sums
    return wc * wc / (2.0 * np.pi) * total.real


def _theta0_small(wc: float, t: np.ndarray, power: int) -> np.ndarray:
    """Sum_b K_b of _theta0_delta for the unsplit kernel at small t, without cancellation.

    With Ein(x) = E1(x) + gamma_E + ln x and L = gamma_E + ln(wc t),
    Phi_b - Lg = -expm1(-dt) L + e^{-dt} Ein(-bt) - Ein(-it), and p = 1
    takes K_b = -(Phi_b - Lg) / d.  For p = 2 the terms linear in t
    cancel between Ein(-bt), Ein(-it) and expm1(it); written with
    Ein(x) - x, e^{-w} - 1 + w = w^2 phi_2(w) and expm1(x) - x = x^2
    phi_2(-x), d^2 K_b = -(dt)^2 phi_2(dt) L - bt expm1(-dt) + e^{-dt}
    (Ein(-bt) + bt) - (Ein(-it) + it) + dt Ein(-it) + i d t^2 phi_2(-it),
    each term of order t^2.
    """
    log = _EULER_GAMMA + np.log(wc * t)
    it = 1j * t
    tail_i = _ein_tail(-it)  # Ein(-it) + it
    if power == 2:
        q = 1j * t * t * _k(-it, 2)  # -i (expm1(it) - it)
    total = np.zeros(len(t), dtype=complex)
    for b in (wc, -wc):
        d = complex(b, -1.0)
        w = d * t
        e = np.exp(-w)
        tail_b = _ein_tail(-b * t)  # Ein(-bt) + bt
        if power == 1:
            total += (np.expm1(-w) * log - e * (tail_b - b * t) + tail_i - it) / d
        else:
            total += (-w * w * _k(w, 2) * log - b * t * np.expm1(-w) + e * tail_b - tail_i
                      + w * (tail_i - it) + d * q) / (d * d)
    return total


def _matsubara_sums(kernel: _Kernel, step: float) -> np.ndarray:
    """Sum_{k >= 1} G(k step) for every t of ``kernel``: direct up to a bound, completed past it.

    Past the bound the zeta tail completes the direct sum; where the
    bound is over the cap, Gregory's formula does.
    """
    k_series = max(math.ceil(_SERIES_MARGIN * max(1.0, kernel.wc) / step), 1)
    k_exp = np.ceil(_EXP_CUT / (step * kernel.t))
    last = np.maximum(k_exp, k_series)
    direct = last <= _MAX_TERMS
    total = np.empty(len(last))
    rows = np.flatnonzero(direct)
    if len(rows):
        count = last[rows].astype(np.int64)
        total[rows] = (_direct_sums(kernel, rows, count, step)
                       + _zeta_tails(kernel, rows, count, step))
    if len(rows) == len(last):
        return total
    rows = np.flatnonzero(~direct)
    # Gregory from K past the exponentials if the cap allows; otherwise
    # step * t < _EXP_CUT / _MAX_TERMS and the differences of e^{-nu t}
    # vanish quickly.
    k = k_exp[rows]
    start = np.where(k <= _MAX_TERMS, np.maximum(k, _GREGORY_START), _GREGORY_START)
    start = start.astype(np.int64)
    head, correction = _gregory(kernel, rows, start, step)
    total[rows] = head + _tail_integrals(kernel, rows, start * step) / step + correction
    return total


def pair(wc: float, theta: float, t: np.ndarray, power: int) -> tuple[np.ndarray, np.ndarray]:
    """Coupling-free (Delta, gamma) (power 1) or (IDelta, Igamma) (power 2) at w0 = 1.

    ``wc`` is the cutoff ratio r and ``t`` a 1-D array of positive
    times; returns two arrays like ``t``.  Each value is the same bit
    for bit whatever other times share ``t``.  Multiply by alpha^2 (and
    by w0 for power 1, with t scaled by w0) for the physical values.
    The gamma-like value depends on (wc, t) only.
    """
    split = t >= 1.0
    late = np.count_nonzero(split)
    if late in (0, len(t)):
        groups = None
        kernels = [_Kernel(wc, t, power, late > 0)]
    else:
        groups = [np.flatnonzero(~split), np.flatnonzero(split)]
        kernels = [_Kernel(wc, t[rows], power, late) for rows, late in zip(groups, (False, True))]
    if theta == 0.0:
        deltas = [_theta0_delta(kernel) for kernel in kernels]
    else:
        step = 2.0 * np.pi * theta
        deltas = [theta * (kernel.h_c + 2.0 * wc * wc * _matsubara_sums(kernel, step))
                  for kernel in kernels]
    pairs = []
    for kernel, delta in zip(kernels, deltas):
        gamma = 0.5 * wc * wc * kernel.f_c.imag
        if not kernel.c:
            markov = kernel.t ** (power - 1) * wc * wc / (2.0 * (wc * wc + 1.0))
            gamma = gamma + markov
            delta = delta + (markov if theta == 0.0 else markov / math.tanh(0.5 / theta))
        pairs.append((delta, gamma))
    if groups is None:
        return pairs[0]
    delta, gamma = np.empty_like(t), np.empty_like(t)
    for rows, (d, g) in zip(groups, pairs):
        delta[rows], gamma[rows] = d, g
    return delta, gamma
