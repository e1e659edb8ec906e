"""Engine-independent reference values for the running integrals.

Everything here is evaluated in mpmath and never touches ``qbmzeno``.
The running integrals are taken in their time-domain forms

  IDelta(tau) = alpha^2 Int_0^tau (tau - s) cos(w0 s) nu(s)  ds
  Igamma(tau) = alpha^2 Int_0^tau (tau - s) sin(w0 s) eta(s) ds

with the bath correlation functions nu(s) = Int J coth cos(ws) dw and
eta(s) = Int J sin(ws) dw written as sums of exponentials (Lorentz-Drude:
the cutoff pole plus the Matsubara poles) or of inverse squares
(exponential Ohmic: the Bose expansion of coth).  Each term's s-integral
is then closed form, so no oscillatory quadrature is needed at any tau:

  Int_0^tau (tau - s) exp(-z s) ds = tau/z - (1 - exp(-z tau))/z^2.

The Matsubara and Bose sums converge only like 1/k^2; they are summed
directly up to an index beyond every pole and by Euler-Maclaurin above
it.  At theta = 0 the Matsubara sum becomes an integral over the decay
rate, which has no oscillation at any tau.  Units: w0 = 1, hbar = k_B = 1.
"""

from __future__ import annotations

import mpmath as mp

DPS = 40


def _g(z, tau):
    """Int_0^tau (tau - s) exp(-z s) ds for complex z != 0."""
    return (z * tau + mp.expm1(-z * tau)) / z**2


def ld_int_gamma(r, tau, alpha):
    """Igamma for Lorentz-Drude: eta(s) = (wc^2/2) exp(-wc s), elementary."""
    with mp.workdps(DPS):
        wc = mp.mpf(r)
        return alpha**2 * wc**2 / 2 * mp.im(_g(wc - 1j, mp.mpf(tau)))


def _euler_maclaurin_tail(f, k0, derivs):
    """Sum_{k >= k0} f(k) for smooth f: integral, f(k0)/2 and Bernoulli terms.

    ``derivs(j)`` returns the j-th derivative of f at k0 for j = 1, 3, 5, 7.
    """
    coeffs = {1: mp.mpf(-1) / 12, 3: mp.mpf(1) / 720, 5: mp.mpf(-1) / 30240,
              7: mp.mpf(1) / 1209600}
    return f(k0) / 2 + mp.fsum(c * derivs(j) for j, c in coeffs.items())


def ld_int_delta(r, theta, tau, alpha):
    """IDelta for Lorentz-Drude through the Matsubara decomposition of nu(s).

    theta > 0:
      nu(s) = (wc^2/2) cot(wc/2T) e^{-wc s}
              - (2 wc^2 T) Sum_k nu_k e^{-nu_k s} / (wc^2 - nu_k^2),
      nu_k = 2 pi k T;
    theta = 0 (T -> 0, the sum becomes an integral over nu):
      nu(s) = (wc^2/pi) Int_0^inf (wc e^{-wc s} - nu e^{-nu s}) / (wc^2 - nu^2) dnu.
    """
    with mp.workdps(DPS):
        wc = mp.mpf(r)
        tau = mp.mpf(tau)
        g_c = _g(wc - 1j, tau)
        if theta == 0:
            def integrand(nu):
                return mp.re(wc * g_c - nu * _g(nu - 1j, tau)) / (wc**2 - nu**2)

            # Split away from the removable point nu = wc (never a node)
            # and at the 1/tau scale where exp(-nu tau) switches off.
            points = sorted({mp.mpf(0), wc * mp.mpf("0.61"), wc * mp.mpf("1.73"),
                             1 / tau, 10 / tau})
            total = mp.quad(integrand, points + [mp.inf])
            return alpha**2 * wc**2 / mp.pi * total
        temp = mp.mpf(theta)
        nu1 = 2 * mp.pi * temp

        def term(k):
            nu = nu1 * k
            return nu * mp.re(_g(nu - 1j, tau)) / (wc**2 - nu**2)

        # Direct sum up to k0, beyond twice the cutoff pole; Euler-Maclaurin
        # for the smooth remainder.
        k0 = max(int(mp.floor(2 * wc / nu1)) + 2, 32)
        head = mp.fsum(term(k) for k in range(1, k0))
        scale = 1 / (nu1 * tau)
        points = sorted({mp.mpf(k0), k0 + scale, k0 + 10 * scale, k0 + 100 * scale})
        integral = mp.quad(term, points + [mp.inf])
        tail = integral + _euler_maclaurin_tail(term, k0, lambda j: mp.diff(term, k0, j))
        total = wc**2 / 2 * mp.cot(wc / (2 * temp)) * mp.re(g_c) - 2 * wc**2 * temp * (head + tail)
        return alpha**2 * total


def _h(a, sigma, tau, p):
    """Int_0^tau (tau - s) exp(i sigma s) (a + i s)^-p ds, closed form.

    With w = a + i s this is -i e^{-sigma a} [(tau - i a) F_p + i F_{p-1}],
    F_q = Int e^{sigma w} w^-q dw along Re w = a > 0, from F_0, F_1 (Ei for
    sigma = +1, -E1 for sigma = -1; no branch cut is crossed) and the
    recurrence F_q = [-e^{sigma w} w^(1-q)]/(q-1) + sigma F_{q-1}/(q-1).
    The boundary terms cancel to O(tau/a) per order, so the working
    precision grows with a/tau.
    """
    extra = int((p + 2) * 3 * mp.log10(2 + a / tau)) + 10
    with mp.workdps(DPS + extra):
        a = mp.mpf(a)
        w1 = a + 1j * tau
        f_prev = (mp.exp(sigma * w1) - mp.exp(sigma * a)) / sigma
        f_cur = mp.ei(w1) - mp.ei(a) if sigma > 0 else mp.e1(a) - mp.e1(w1)
        for q in range(2, p + 1):
            bound = -(mp.exp(sigma * w1) * w1 ** (1 - q) - mp.exp(sigma * a) * a ** (1 - q))
            f_prev, f_cur = f_cur, (bound + sigma * f_cur) / (q - 1)
        return -1j * mp.exp(-sigma * a) * ((tau - 1j * a) * f_cur + 1j * f_prev)


def _cos_moment(a, tau, p):
    """Int_0^tau (tau - s) cos(s) Re (a + i s)^-p ds."""
    return mp.re((_h(a, 1, tau, p) + _h(a, -1, tau, p)) / 2)


def exp_int_gamma(r, tau, alpha):
    """Igamma for J = w exp(-w/wc)/pi: eta(s) = -(1/pi) Im (a + i s)^-2, a = 1/wc."""
    with mp.workdps(DPS):
        a = 1 / mp.mpf(r)
        tau = mp.mpf(tau)
        sin_part = (_h(a, 1, tau, 2) - _h(a, -1, tau, 2)) / 2j
        return -alpha**2 / mp.pi * mp.im(sin_part)


def exp_int_delta(r, theta, tau, alpha):
    """IDelta for J = w exp(-w/wc)/pi via coth = 1 + 2 Sum_m exp(-m w/T).

    nu(s) = (1/pi) Sum_m c_m Re (a_m + i s)^-2, a_m = a + m/T, c_0 = 1,
    c_m = 2.  The m-sum is direct below m0 and Euler-Maclaurin above it,
    where d^j/da^j (a + i s)^-2 = (-1)^j (j+1)! (a + i s)^-(2+j) and
    Int_A^inf (a + i s)^-2 da = (A + i s)^-1 keep every term closed form.
    """
    with mp.workdps(DPS):
        a = 1 / mp.mpf(r)
        tau = mp.mpf(tau)
        total = _cos_moment(a, tau, 2)
        if theta > 0:
            beta = 1 / mp.mpf(theta)
            m0 = 16
            head = mp.fsum(_cos_moment(a + m * beta, tau, 2) for m in range(1, m0))
            big_a = a + m0 * beta
            integral = _cos_moment(big_a, tau, 1) / beta
            tail = integral + _euler_maclaurin_tail(
                lambda k: _cos_moment(big_a, tau, 2),
                m0,
                lambda j: beta**j * (-1) ** j * mp.factorial(j + 1) * _cos_moment(big_a, tau, 2 + j),
            )
            total += 2 * (head + tail)
        return alpha**2 / mp.pi * total


def int_delta(bath, r, theta, tau, alpha):
    if bath == "ld":
        return ld_int_delta(r, theta, tau, alpha)
    return exp_int_delta(r, theta, tau, alpha)


def int_gamma(bath, r, tau, alpha):
    if bath == "ld":
        return ld_int_gamma(r, tau, alpha)
    return exp_int_gamma(r, tau, alpha)


def markov_rate(bath, r, theta, n, alpha):
    """(2n+1) Delta_M - gamma_M with Delta_M = (pi/2) alpha^2 J(1) coth(1/2T)."""
    with mp.workdps(DPS):
        wc = mp.mpf(r)
        j1 = wc**2 / (mp.pi * (wc**2 + 1)) if bath == "ld" else mp.exp(-1 / wc) / mp.pi
        gamma_m = mp.pi / 2 * alpha**2 * j1
        delta_m = gamma_m if theta == 0 else gamma_m * mp.coth(1 / (2 * mp.mpf(theta)))
        return (2 * n + 1) * delta_m - gamma_m
