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
so G is as smooth at nu = wc as anywhere else.  From t = 1 on, the t^{p-1}/z part of each kernel (the
Markovian growth) is summed in closed form, t^{p-1} times Delta_M resp.
gamma_M, so that (2n+1) IDelta - Igamma keeps its digits when the two
nearly cancel (theta = 0, n = 0).

The Matsubara sum is direct up to an index set by (r, theta, t) and
capped at _MAX_TERMS.  Past it the summand is either a power series in
1/nu, summed with Hurwitz zeta functions, or (small theta t) it is
completed by Gregory's endpoint formula around Int G dnu, which is
smooth and non-oscillatory and goes to numerics.integrate_adaptive.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import zeta

from . import numerics

# Taylor terms of phi_p (|w| < 1) and of its divided differences (|w| < 1.5).
_SERIES_TERMS = 24
# Direct Matsubara terms at most; an exponential is dropped past
# exp(-_EXP_CUT); the 1/nu series needs nu > _SERIES_MARGIN * max(1, wc).
_MAX_TERMS = 4096
_EXP_CUT = 40.0
_SERIES_MARGIN = 8.0
_SERIES_ORDER = 20
# Gregory's formula: head terms before it, and its coefficients for the
# forward differences Delta^1 .. Delta^10.
_GREGORY_START = 64
_GREGORY = np.array([
    -1 / 12, 1 / 24, -19 / 720, 3 / 160, -863 / 60480, 275 / 24192,
    -33953 / 3628800, 8183 / 1036800, -3250433 / 479001600, 4671 / 788480,
])
_INTEGRAL_REL_TOL = 1e-12
_BREAK_RATIO = 4.0


def _taylor(power: int) -> np.ndarray:
    """Taylor coefficients of phi_p, (-1)^n / (n + p)!, lowest first."""
    return np.array([(-1) ** n / math.factorial(n + power) for n in range(_SERIES_TERMS)])


_TAYLOR = {p: _taylor(p) for p in (1, 2)}


def _k(w: np.ndarray, power: int, c: float = 1.0) -> np.ndarray:
    """(c - phi_{p-1}(w)) / w with phi_0 = e^{-w}; phi_p(w) itself for c = 1.

    Re w >= 0.  Below |w| = 1, phi_p comes from its Taylor series (only
    c = 1 gets there).
    """
    small = np.abs(w) < 1.0
    if np.any(small):
        out = np.polyval(_TAYLOR[power][::-1], w)
        big = ~small
        out[big] = _k(w[big], power, c)
        return out
    if power == 1:
        return (-np.expm1(-w) if c else -np.exp(-w)) / w
    return (c - _k(w, 1)) / w


def _exp_divided(w1: np.ndarray, w2: complex) -> np.ndarray:
    """(e^{-w1} - e^{-w2}) / (w1 - w2) = -e^{-a} phi_1(b - a), Re a <= Re b."""
    first = w1.real < w2.real
    a = np.where(first, w1, w2)
    b = np.where(first, w2, w1)
    return -np.exp(-a) * _k(b - a, 1)


class _Kernel:
    """The time kernel F = t^p k((lambda - i) t) and the summand G(nu).

    k = _k(., p, c): c = 1 gives phi_p, c = 0 (``split``, t >= 1 so
    |w| >= 1) gives phi_p - 1/w, the kernel without its Markovian part.
    G needs the divided difference of k between w and w_c; it is formed
    without cancellation, from the same recurrence, so G is smooth
    through nu = wc.
    """

    def __init__(self, wc: float, t: float, power: int, split: bool) -> None:
        self.wc, self.t, self.power = wc, t, power
        self.c = 0.0 if split else 1.0
        self.tp = t**power
        self.w_c = complex(wc, -1.0) * t
        self.k_c = complex(_k(np.array([self.w_c]), power, self.c)[0])
        self.f_c = self.tp * self.k_c  # t^p k(w_c): gamma-like and h(wc) / wc
        self.h_c = wc * self.f_c.real

    def k(self, w: np.ndarray) -> np.ndarray:
        return _k(w, self.power, self.c)

    def divided(self, w: np.ndarray) -> np.ndarray:
        """(k(w) - k(w_c)) / (w - w_c), also at w = w_c."""
        w2 = self.w_c
        if abs(w2) >= 1.0:
            # [k] = -(k(w) + [phi_{p-1}]) / w_c, and [phi_1] likewise from [phi_0].
            previous = _exp_divided(w, w2)
            if self.power == 2:
                previous = -(_k(w, 1) + previous) / w2
            return -(self.k(w) + previous) / w2
        offset = w - w2
        near = np.abs(offset) < 0.5
        far = ~near
        out = np.empty_like(w)
        out[far] = (self.k(w[far]) - self.k_c) / offset[far]
        if not np.any(near):
            return out
        # Taylor: Sum_n a_n (w^n - w_c^n) / (w - w_c), a sum of w^j w_c^(n-1-j).
        w1 = w[near]
        power_sum = np.zeros_like(w1)
        total = np.zeros_like(w1)
        w2_power = 1.0 + 0.0j
        for coefficient in _TAYLOR[self.power][1:]:
            power_sum = w1 * power_sum + w2_power
            w2_power *= w2
            total += coefficient * power_sum
        out[near] = total
        return out

    def summand(self, nu) -> np.ndarray:
        """G(nu) = (h(nu) - h(wc)) / (nu^2 - wc^2) with h(lambda) = lambda Re F.

        As Re[F(nu) + wc (F(nu) - F(wc)) / (nu - wc)] / (nu + wc).
        """
        nu = np.asarray(nu, dtype=float)
        w = (nu - 1j) * self.t
        f = self.tp * self.k(w) + (self.wc * self.tp * self.t) * self.divided(w)
        return f.real / (nu + self.wc)

    def asymptotic(self) -> tuple[float, float]:
        """(a1, a2) of the large-nu form F -> a1/z + a2/z^2, z = nu - i."""
        return self.c * self.t ** (self.power - 1), -1.0 if self.power == 2 else 0.0


def _zeta_tail(kernel: _Kernel, step: float, last: int) -> float:
    """Sum_{k > last} G(k step) from the 1/nu series of G (exponentials dropped).

    In X = nu_K / nu (nu_K = last * step) every coefficient is at most one
    in size, and Sum_{k > K} X^m = K^m zeta(m, K + 1).
    """
    a1, a2 = kernel.asymptotic()
    q = 1.0 / (last * step)
    j = np.arange(_SERIES_ORDER + 1)
    re_i = np.where(j % 2 == 0, (-1.0) ** (j // 2), 0.0)  # Re i^j
    # nu Re[a1/z + a2/z^2] with 1/z = (X q) Sum (i X q)^j.
    h = a1 * q**j * re_i
    h[1:] += a2 * j[1:] * q ** j[1:] * re_i[:-1]
    h[0] -= kernel.h_c
    # 1/(nu^2 - wc^2) = (X q)^2 Sum (wc X q)^(2l).
    pole = np.zeros_like(h)
    pole[2::2] = q**2 * (kernel.wc * q) ** (2 * np.arange(len(pole[2::2])))
    coeff = np.convolve(h, pole)[2:_SERIES_ORDER + 1]
    m = np.arange(2, _SERIES_ORDER + 1)
    return float(np.sum(coeff * float(last) ** m * zeta(m, last + 1)))


def _integral(kernel: _Kernel, lower: float) -> float:
    """Int_lower^inf G(nu) dnu with nu = lower + s u / (1 - u), u in [0, 1)."""
    t, wc = kernel.t, kernel.wc
    s = 1.0 + lower
    # G falls like 1/nu between its scales (wc, 1, 1/t): panels a factor
    # _BREAK_RATIO apart in nu span them, from below the lowest to past
    # the exponential cut.
    low = max(lower, min(1.0, wc, 1.0 / t) / _BREAK_RATIO)
    high = max(_EXP_CUT / t, _BREAK_RATIO * max(1.0, wc))
    count = math.ceil(math.log(high / low) / math.log(_BREAK_RATIO)) + 1
    nodes = np.concatenate([np.geomspace(low, high, count), [wc, 1.0, 1.0 / t]])
    gaps = nodes[nodes > lower] - lower
    breaks = gaps / (gaps + s)

    def integrand(u: np.ndarray) -> np.ndarray:
        gap = 1.0 - u
        return kernel.summand(lower + s * u / gap) * (s / gap**2)

    probe = np.unique(np.concatenate([breaks, [0.25, 0.5, 0.75]]))
    abs_tol = 1e-14 * float(np.max(np.abs(integrand(probe)))) or 1e-300
    spec = numerics.QuadratureSpec(abs_tol=abs_tol, rel_tol=_INTEGRAL_REL_TOL)
    value, _ = numerics.integrate_adaptive(integrand, 0.0, 1.0, spec, breakpoints=breaks)
    return value


def _matsubara_sum(kernel: _Kernel, step: float) -> float:
    """Sum_{k >= 1} G(k step), direct up to a bound and completed past it."""
    t = kernel.t
    k_exp = math.ceil(_EXP_CUT / (step * t))
    k_series = math.ceil(_SERIES_MARGIN * max(1.0, kernel.wc) / step)
    last = max(k_exp, k_series, 1)
    if last <= _MAX_TERMS:
        head = kernel.summand(step * np.arange(1, last + 1))
        return float(np.sum(head)) + _zeta_tail(kernel, step, last)
    # Gregory: Sum_{k >= K} f(k) = Int_K^inf f + f(K)/2 + Sum_n c_n Delta^n f(K),
    # with K past the exponentials if the cap allows; otherwise step * t <
    # _EXP_CUT / _MAX_TERMS and the differences of e^{-nu t} vanish quickly.
    start = max(k_exp, _GREGORY_START) if k_exp <= _MAX_TERMS else _GREGORY_START
    values = kernel.summand(step * np.arange(1, start + len(_GREGORY) + 1))
    diffs = values[start - 1:]
    ends = np.empty(len(_GREGORY))
    for n in range(len(_GREGORY)):
        diffs = np.diff(diffs)
        ends[n] = diffs[0]
    correction = 0.5 * values[start - 1] + float(np.dot(_GREGORY, ends))
    head = float(np.sum(values[:start - 1]))
    return head + _integral(kernel, start * step) / step + correction


def pair(wc: float, theta: float, t: float, power: int) -> tuple[float, float]:
    """Coupling-free (Delta, gamma) (power 1) or (IDelta, Igamma) (power 2) at w0 = 1.

    ``wc`` is the cutoff ratio r.  Multiply by alpha^2 (and by w0 for
    power 1, with t scaled by w0) for the physical values.  The
    gamma-like value depends on (wc, t) only.
    """
    split = t >= 1.0
    kernel = _Kernel(wc, t, power, split)
    gamma = 0.5 * wc * wc * kernel.f_c.imag
    if theta == 0.0:
        delta = wc * wc / np.pi * _integral(kernel, 0.0)
    else:
        step = 2.0 * np.pi * theta
        delta = theta * (kernel.h_c + 2.0 * wc * wc * _matsubara_sum(kernel, step))
    if split:
        markov = t ** (power - 1) * wc * wc / (2.0 * (wc * wc + 1.0))
        gamma += markov
        delta += markov if theta == 0.0 else markov / math.tanh(0.5 / theta)
    return float(delta), float(gamma)
