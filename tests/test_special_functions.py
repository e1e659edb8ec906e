"""The numpy special functions of the closed-form path against mpmath and scipy.

``_matsubara`` needs three: the Hurwitz zeta functions zeta(m, a) of its
zeta tails (m = 2 .. 20, a = K + 1 >= 2), the scaled exponential
integrals e^{-x} Ei(x) and e^{x} E1(x) (x = wc t > 0) and E1(-it) (t > 0)
of the theta = 0 closed form.  Each is checked over the arguments the
module can produce, on both sides of every switch between its forms, to
1e-14 relative, and is the same bit for bit whatever array it sits in;
so is ``pair`` itself, whatever rows of other cells share its call.  The
zeta tails read their rows from a process-wide table, each row checked
against its own one-row evaluation and the rates against the order in
which the table was filled.
"""

import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from qbmzeno import _matsubara

SRC = Path(__file__).resolve().parent.parent / "src"
REL = 1e-14
ORDERS = list(range(2, _matsubara._SERIES_ORDER + 1))
# mpmath.zeta(20, 4097) is 5.8e-13 off at 60 digits (and zeta(20, 65) 3.7e-10
# off at 30): the oracle works at 120.
ZETA_DPS = 120
ZETA_POINTS = [2.0, 3.0, 9.0, 10.0, 11.0, 65.0, 4097.0, 1e6]
# Below and above the E1 series / rule switch at 1 and the Ei series /
# asymptotic switch at _ASYMPTOTIC_X = 40, and a log grid from 1e-6 to 40.
X_SWITCHES = [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0),
              np.nextafter(40.0, 0.0), 40.0, np.nextafter(40.0, 41.0)]
X_POINTS = sorted(np.geomspace(1e-6, 40.0, 49).tolist() + X_SWITCHES)
T_POINTS = sorted(np.geomspace(1e-15, 1e6, 43).tolist() + X_SWITCHES[:3])


def _relative(got, want):
    return abs(got - want) / abs(want)


class TestHurwitzZeta:
    def test_matches_mpmath(self):
        got = _matsubara._hurwitz_zeta(np.array(ZETA_POINTS))
        with mp.workdps(ZETA_DPS):
            for row, a in zip(got, ZETA_POINTS):
                for m, value in zip(ORDERS, row):
                    want = float(mp.zeta(m, a))
                    assert _relative(value, want) <= REL, (m, a, value, want)

    def test_matches_scipy(self):
        special = pytest.importorskip("scipy.special")
        a = np.unique(np.concatenate([np.arange(2.0, 4098.0), np.geomspace(2.0, 1e6, 400).round()]))
        want = special.zeta(np.array(ORDERS), a[:, None])
        assert np.max(np.abs(_matsubara._hurwitz_zeta(a) / want - 1.0)) <= REL


def _ei_condition(x):
    """|x d ln Ei / dx| = e^x / |Ei(x)|, at least 1."""
    return max(1.0, float(mp.exp(x) / abs(mp.ei(x))))


class TestExponentialIntegrals:
    def test_matches_mpmath(self):
        # Ei has a zero at x = 0.3725...; near it no evaluation from a
        # rounded x holds a relative bound, so there the bound is REL
        # times Ei's condition number (which is 1 to 2.7 for x >= 0.6).
        x = np.array(X_POINTS)
        ei, e1, _ = _matsubara._exponential_integrals(x, x)
        with mp.workdps(34):
            for x, got_ei, got_e1 in zip(X_POINTS, ei, e1):
                want_ei = float(mp.exp(-x) * mp.ei(x))
                want_e1 = float(mp.exp(x) * mp.e1(x))
                assert _relative(got_ei, want_ei) <= REL * _ei_condition(x), (x, got_ei, want_ei)
                assert _relative(got_e1, want_e1) <= REL, (x, got_e1, want_e1)

    def test_e1_imaginary_matches_mpmath(self):
        t = np.array(T_POINTS)
        got = _matsubara._exponential_integrals(t, t)[2]
        with mp.workdps(34):
            for t, value in zip(T_POINTS, got):
                want = complex(mp.e1(mp.mpc(0.0, -t)))
                assert _relative(value, want) <= REL, (t, value, want)

    def test_matches_scipy(self):
        special = pytest.importorskip("scipy.special")
        x = np.geomspace(1e-6, 40.0, 20001)[:-1]
        ei, e1, _ = _matsubara._exponential_integrals(x, x)
        away = np.abs(x - 0.372507) > 0.05  # Ei's zero: see test_matches_mpmath
        assert np.max(np.abs(ei / (np.exp(-x) * special.expi(x)) - 1.0)[away]) <= REL
        assert np.max(np.abs(e1 / (np.exp(x) * special.exp1(x)) - 1.0)) <= REL
        t = np.geomspace(1e-15, 1e6, 20001)
        e1_it = _matsubara._exponential_integrals(t, t)[2]
        assert np.max(np.abs(e1_it / special.exp1(-1j * t) - 1.0)) <= REL


class TestZetaTable:
    """The process-wide table of zeta(m, K + 1) rows behind the zeta tails."""

    @staticmethod
    def _empty_table(monkeypatch):
        monkeypatch.setattr(_matsubara, "_ZETA_TABLE", np.empty_like(_matsubara._ZETA_TABLE))
        monkeypatch.setattr(_matsubara, "_ZETA_ROW", np.full_like(_matsubara._ZETA_ROW, -1))

    def test_every_row_is_its_own_one_row_call(self, monkeypatch):
        # Filled by one call over every bound K = 1 .. _MAX_TERMS (so by
        # _hurwitz_zeta's blocks of rows), each row is bit for bit what
        # _hurwitz_zeta gives for a = K + 1 alone.
        self._empty_table(monkeypatch)
        bounds = np.arange(1, _matsubara._MAX_TERMS + 1)
        table = _matsubara._zeta_rows(bounds)
        assert (_matsubara._ZETA_ROW[1:] >= 0).all() and _matsubara._ZETA_ROW[0] == -1
        for k, row in zip(bounds.tolist(), table):
            assert np.array_equal(row, _matsubara._hurwitz_zeta(np.array([k + 1.0]))[0]), k

    def test_a_rate_does_not_depend_on_the_fill_order(self, monkeypatch):
        # Direct thermal rows with bounds K from 1 to 128, as one grid
        # and one by one: the same bits from an empty table, from one filled
        # in reverse order and from one filled row by row in random order.
        wc, theta = np.array([0.5, 1.0, 10.0, 2.0, 0.1]), np.array([10.0, 100.0, 1.0, 0.2, 0.05])
        t = np.array([0.3, 0.5, 0.05, 0.9, 2.0])

        def values():
            grid = [_matsubara.pair(wc, theta, t, power) for power in (1, 2)]
            alone = [_matsubara.pair(float(wc[i]), float(theta[i]), t[i:i + 1], power)
                     for i in range(len(t)) for power in (1, 2)]
            return np.concatenate([np.ravel(v) for v in grid + alone])

        self._empty_table(monkeypatch)
        first = values()
        assert 1 <= np.count_nonzero(_matsubara._ZETA_ROW >= 0) < 20
        bounds = np.arange(1, _matsubara._MAX_TERMS + 1)
        self._empty_table(monkeypatch)
        _matsubara._zeta_rows(bounds[::-1])
        assert np.array_equal(values(), first)
        self._empty_table(monkeypatch)
        for k in np.random.default_rng(23).permutation(bounds):
            _matsubara._zeta_rows(np.array([k]))
        assert np.array_equal(values(), first)

    def test_the_table_is_empty_at_import(self):
        # Nothing is computed at import; a rate fills only the rows it needs.
        code = ("from qbmzeno import _matsubara as m, zeno, spectral; "
                "assert (m._ZETA_ROW < 0).all(); "
                "p = spectral.ReservoirParams(r=0.5, theta=10.0, alpha=0.1); "
                "zeno.effective_decay_rate(p, p.spectral_model(), 0, 0.3); "
                "print((m._ZETA_ROW >= 0).nonzero()[0].tolist())")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["[3]"]


class TestGridIndependence:
    """A value is the same bit for bit alone and inside a 1000-element array."""

    @staticmethod
    def _check(function, grid, points):
        for value in points:
            for i in (0, 437, len(grid) - 1):
                embedded = grid.copy()
                embedded[i] = value
                alone = function(np.array([value]))
                assert np.array_equal(function(embedded)[..., i], alone[..., 0]), (value, i)

    def test_hurwitz_zeta(self):
        grid = np.geomspace(2.0, 4097.0, 1000).round()
        self._check(lambda a: _matsubara._hurwitz_zeta(a).T, grid, ZETA_POINTS)

    def test_mixed_cell_rows(self):
        # Rows of different (wc, theta) in one pair call, over the README
        # map's r and theta (theta = 0 included) and t from 1e-4 to 1e4 on
        # both sides of the t = 1 split: each row is its one-row call.
        rng = np.random.default_rng(20)
        wc = rng.choice([0.1, 0.5, 1.0, 2.0, 10.0], 240)
        theta = rng.choice([0.0, 1.0, 10.0, 100.0], 240)
        t = 10.0 ** rng.uniform(-4.0, 4.0, 240)
        t[:6] = [1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 1e-4, 1e4, 0.5]
        for power in (1, 2):
            delta, gamma = _matsubara.pair(wc, theta, t, power)
            for i in range(len(t)):
                alone = _matsubara.pair(float(wc[i]), float(theta[i]), t[i:i + 1], power)
                assert delta[i] == alone[0][0] and gamma[i] == alone[1][0], (wc[i], theta[i], t[i])

    def test_rows_on_both_sides_of_the_direct_cap(self):
        # Bounds K from 64 to 4096 around _MAX_TERMS (K = 40 / (2 pi theta t)
        # rounded up, or the series bound at theta = 0.005 and 0.01, r = 10),
        # several cells in one call: direct rows and Gregory rows side by
        # side, each its one-row call.
        cap = _matsubara._MAX_TERMS
        bounds = np.array([64, 500, cap - 1, cap, cap + 1, 2000, 4096])
        cells = [(0.1, 1.0), (1.0, 10.0), (10.0, 0.2), (2.0, 1.0)]
        wc = np.repeat([c[0] for c in cells], len(bounds))
        theta = np.repeat([c[1] for c in cells], len(bounds))
        t = 40.0 / (2.0 * np.pi * theta * (np.tile(bounds, len(cells)) - 0.5))
        wc, theta = np.append(wc, [10.0, 10.0]), np.append(theta, [0.005, 0.01])
        t = np.append(t, [3.0, 1.5])
        k_exp = np.ceil(_matsubara._EXP_CUT / (2.0 * np.pi * theta * t))
        k_series = np.ceil(_matsubara._SERIES_MARGIN * np.maximum(1.0, wc) / (2.0 * np.pi * theta))
        last = np.maximum(k_exp, k_series)
        assert np.count_nonzero(last <= cap) and np.count_nonzero(last > cap)
        for power in (1, 2):
            delta, gamma = _matsubara.pair(wc, theta, t, power)
            for i in range(len(t)):
                alone = _matsubara.pair(float(wc[i]), float(theta[i]), t[i:i + 1], power)
                assert delta[i] == alone[0][0] and gamma[i] == alone[1][0], (wc[i], theta[i], t[i])

    def test_exponential_integrals(self):
        # x and t share one series call: each value is what it is alone
        # whatever else either argument holds.
        grid = np.geomspace(1e-6, 1e3, 1000)
        self._check(lambda x: np.array(_matsubara._exponential_integrals(x, x)[:2]), grid,
                    X_POINTS[::4] + X_SWITCHES)
        grid = np.geomspace(1e-15, 1e6, 1000)
        self._check(lambda t: _matsubara._exponential_integrals(t, t)[2], grid,
                    T_POINTS[::4] + X_SWITCHES[:3])
