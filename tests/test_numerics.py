"""The numpy replacements in ``fourierjacobi._numerics`` against mpmath and scipy.

mpmath at 40 digits is the independent oracle; scipy, which the library
no longer imports, is the reference each replacement stands in for.
"""

import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
import scipy.interpolate
import scipy.special

from fourierjacobi import _numerics
from fourierjacobi.errors import DomainError
from fourierjacobi.special import _series_2f1

EPS = np.finfo(float).eps
SRC = Path(__file__).resolve().parents[1] / "src"


def _mp_array(func, zs):
    with mp.workdps(40):
        return np.array([complex(func(mp.mpc(z.real, z.imag))) for z in zs])


def _points(rng, re, im, n):
    return rng.uniform(*re, n) + 1j * rng.uniform(*im, n)


class TestLogGamma:
    ZONES = {
        "lanczos": ((0.5, 40.0), (-50.0, 50.0)),
        "near-imaginary-axis": ((0.0, 0.5), (-5.0, 5.0)),
        "reflection": ((-30.0, 0.0), (-50.0, 50.0)),
        "near-negative-axis": ((-12.0, 0.0), (-1e-3, 1e-3)),
        "large-imaginary": ((-10.0, 10.0), (-1000.0, 1000.0)),
    }

    @pytest.mark.parametrize("zone", ZONES)
    def test_matches_mpmath_and_scipy_branch(self, zone):
        # exp(log_gamma) = Gamma to a few ulps of |log Gamma| (at most 6.2
        # eps here, scipy up to 12.8 eps near the imaginary axis), and the
        # imaginary part is scipy's continuous branch, not just equal mod 2 pi
        z = _points(np.random.default_rng(7), *self.ZONES[zone], 300)
        got = _numerics.loggamma(z)
        want = _mp_array(mp.loggamma, z)
        scale = np.maximum(1.0, np.abs(want))
        assert np.max(np.abs(got - want) / scale) <= 8 * EPS
        assert np.max(np.abs(got.imag - scipy.special.loggamma(z).imag) / scale) <= 16 * EPS

    def test_sides_of_the_cut(self):
        # real z < 0: Im z = +0 is the upper side, -0 the lower, as in scipy
        x = np.array([-0.5, -2.5, -3.3, -40.2, -1e-3])
        for side in (0.0, -0.0):
            z = x + 1j * np.full(x.size, side)
            got = _numerics.loggamma(z)
            want = scipy.special.loggamma(z)
            assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))
            assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 4 * EPS

    def test_shapes(self):
        z = np.array([[0.5 + 1j, -2.5 - 3j], [7.0 + 0j, 1e-3j]])
        assert _numerics.loggamma(z).shape == (2, 2)
        assert _numerics.loggamma(np.complex128(3.0)).shape == ()
        assert abs(_numerics.loggamma(np.complex128(5.0)) - np.log(24.0)) <= 2 * EPS * np.log(24.0)


class TestDigamma:
    @pytest.mark.parametrize("re, im", [((0.0, 40.0), (-50.0, 50.0)), ((-30.0, 0.0), (-50.0, 50.0)),
                                        ((-5.0, 5.0), (-500.0, 500.0)), ((1e-3, 3.0), (0.0, 0.0))])
    def test_matches_mpmath(self, re, im):
        # at most 6 eps of max(1, |psi|) here; scipy reaches 11.6 eps
        z = _points(np.random.default_rng(11), re, im, 300)
        want = _mp_array(mp.digamma, z)
        assert np.max(np.abs(_numerics.digamma(z) - want) / np.maximum(1.0, np.abs(want))) <= 8 * EPS

    @pytest.mark.parametrize("abc", [(0.4 + 1.5j, 0.4 - 1.5j, 1.3), (1.1 + 0.2j, 1.1 - 0.2j, 2.7)])
    def test_log_series_block_increments(self, abc):
        # the logarithmic series sum_n tau_n (log w - psi_n) advances psi_n
        # block by block by psi(x+1) = psi(x) + 1/x; at w = 0.99 and tol
        # 1e-15 it runs about 100 blocks of 32 terms, all of one sign, so
        # the sum checks psi_n along the whole run against mpmath (5.2e-14
        # at worst here)
        a, b, c = abc
        w = np.array([0.3, 0.9, 0.99])
        got = _series_2f1(a, b, c, w, 1e-15, log=True)[0]
        # the same parameters as per-point arrays: psi_n is carried per run
        per_point = _series_2f1(np.full(3, a), np.full(3, b), np.full(3, c), w, 1e-15, log=True)[0]
        assert np.array_equal(per_point, got)
        with mp.workdps(30):
            for x, value in zip(w, got):
                lw = mp.log(x)
                psi = mp.digamma(1) + mp.digamma(c) - mp.digamma(a) - mp.digamma(b)
                tau, total = mp.mpf(1), mp.mpf(0)
                for n in range(4000):
                    total += tau * (lw - psi)
                    tau *= (a + n) * (b + n) / ((c + n) * (n + 1)) * x
                    psi += 1 / mp.mpf(n + 1) + 1 / (n + c) - 1 / (a + n) - 1 / (b + n)
                want = complex(total)
                assert abs(value - want) <= 1e-13 * abs(want)


class TestRootsJacobi:
    @staticmethod
    def _mp_rule(n, a, b, start):
        # Newton on P_n in 40 digits from the given nodes; weights from
        # 2^(a+b+1) G(n+a+1) G(n+b+1) / (G(n+a+b+1) n! (1-x^2) P_n'(x)^2)
        with mp.workdps(40):
            const = (2 ** mp.mpf(a + b + 1) * mp.gamma(n + a + 1) * mp.gamma(n + b + 1)
                     / (mp.gamma(n + a + b + 1) * mp.factorial(n)))
            nodes, weights = [], []
            for x0 in start:
                x = mp.mpf(x0)
                for _ in range(4):
                    slope = (n + a + b + 1) / mp.mpf(2) * mp.jacobi(n - 1, a + 1, b + 1, x)
                    x -= mp.jacobi(n, a, b, x) / slope
                slope = (n + a + b + 1) / mp.mpf(2) * mp.jacobi(n - 1, a + 1, b + 1, x)
                nodes.append(float(x))
                weights.append(float(const / ((1 - x * x) * slope ** 2)))
        return np.array(nodes), np.array(weights)

    @pytest.mark.parametrize("ab", [(0.2, -0.2), (-0.95, 0.0), (0.6, 0.7), (-0.5, -0.5), (-0.3, -0.7)])
    def test_matches_mpmath(self, ab):
        # scipy's weights are off by up to 1.6e-12 at the first three pairs;
        # (-0.3, -0.7) has a + b = -1, the 0/0 of the first off-diagonal
        # entry, which scipy's rule divides out numerically (0/0 warning)
        a, b = ab
        x, w = _numerics.roots_jacobi(32, a, b)
        xr, wr = self._mp_rule(32, a, b, x)
        assert np.max(np.abs(x - xr)) <= 4 * EPS
        assert np.max(np.abs(w - wr) / wr) <= 3e-13

    def test_mass_and_symmetry(self):
        with mp.workdps(30):
            mass = float(2 ** mp.mpf(0.1 + 0.7 + 1) * mp.beta(1.1, 1.7))
        assert abs(np.sum(_numerics.roots_jacobi(17, 0.1, 0.7)[1]) - mass) <= 4 * EPS * mass
        x, w = _numerics.roots_jacobi(16, 0.3, 0.3)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


class TestSpline:
    @pytest.mark.parametrize("n", [16, 41, 129, 1001])
    @pytest.mark.parametrize("grid", ["uniform", "graded"])
    def test_matches_scipy(self, n, grid):
        # the same not-a-knot system as scipy's, solved in another order:
        # slopes to 2e-15 of their largest, values to 1e-15 of max |y|; the
        # cubic coefficients, difference quotients of the slopes over dx^2,
        # are not compared
        s = np.linspace(0.0, 1.0, n)
        x = 3.0 * (s if grid == "uniform" else s * s)
        y = np.cos(x) + 1j * np.sin(3.0 * x)
        ours = _numerics.CubicSpline(x, y)
        ref = scipy.interpolate.CubicSpline(x, y)
        assert ours.c.shape == ref.c.shape == (4, n - 1)
        assert np.max(np.abs(ours.c[2] - ref.c[2])) <= 2e-15 * np.max(np.abs(ref.c[2]))
        assert np.array_equal(ours.c[3], y[:-1])
        t = np.concatenate([x, np.random.default_rng(2).uniform(0.0, 3.0, 500)])
        assert np.max(np.abs(ours(t) - ref(t))) <= 1e-15 * np.max(np.abs(y))

    def test_real_samples_give_real_coefficients(self):
        x = np.linspace(0.0, 2.0, 20)
        assert _numerics.spline_coefficients(x, np.exp(x)).dtype == float

    def test_three_knots_rejected(self):
        # the not-a-knot system is singular below 4 knots
        with pytest.raises(DomainError):
            _numerics.spline_coefficients(np.arange(3.0), np.ones(3))


class TestCumulativeSimpson:
    @pytest.mark.parametrize("n", [17, 1000, 1001])
    def test_matches_scipy(self, n):
        # scipy's per-interval three-point formulas, to 4e-15 of the largest value
        s = np.linspace(0.0, 1.0, n)
        y = np.stack([np.exp(s) + 1j * s**3, np.cos(5.0 * s) + 0j])
        got = _numerics.cumulative_simpson(y, s[1])
        want = scipy.integrate.cumulative_simpson(y, x=s, initial=0)
        assert got.shape == y.shape and np.all(got[:, 0] == 0)
        assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(want))
        # rows are summed on their own: stacking changes nothing
        assert np.array_equal(got[0], _numerics.cumulative_simpson(y[0], s[1]))

    def test_exact_on_quadratics(self):
        s = np.linspace(0.0, 2.0, 12)
        got = _numerics.cumulative_simpson(s**2 - s, s[1])
        assert np.max(np.abs(got - (s**3 / 3 - s**2 / 2))) <= 1e-15


@pytest.mark.parametrize("code", [
    "import fourierjacobi",
    "from fourierjacobi.cli import main; assert main(['verify', 'lemma31']) == 0",
])
def test_runtime_loads_no_scipy(code):
    # in a fresh interpreter: pytest itself has scipy loaded
    check = "; import sys; bad = [m for m in sys.modules if m.split('.')[0] == 'scipy']; assert not bad, bad"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code + check], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
