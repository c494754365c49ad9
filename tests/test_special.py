"""Hypergeometric and gamma building blocks against independent oracles."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourierjacobi import JacobiParams, phi, special
from fourierjacobi.errors import DomainError
from fourierjacobi.special import (
    euler_integral_2f1,
    gamma_ratio,
    gauss_2f1,
    gauss_2f1_array,
    hyp2f1_near_one,
    log_gamma,
)


def mp_2f1(a, b, c, z):
    with mp.workdps(40):
        return complex(mp.hyp2f1(a, b, c, z))


@pytest.fixture
def no_mpmath(monkeypatch):
    """Make the library's mpmath fallback raise; mp_2f1 above is unaffected."""

    def refuse(*args):
        raise AssertionError("gauss_2f1 reached the mpmath fallback")

    monkeypatch.setattr(special, "_mp_2f1", refuse)


class TestGamma:
    @pytest.mark.parametrize(
        "z,want",
        [
            (0.5, math.sqrt(math.pi)),
            (5.0, 24.0),
            (1.0, 1.0),
            (7.5, 1871.254305797788),
        ],
    )
    def test_known_real_values(self, z, want):
        assert cmath.exp(log_gamma(z)) == pytest.approx(want, rel=1e-13)

    def test_modulus_identity_on_imaginary_axis(self):
        # |Gamma(1+iy)|^2 = pi y / sinh(pi y)
        for y in (0.5, 1.0, 2.7):
            got = abs(cmath.exp(log_gamma(1.0 + 1j * y))) ** 2
            want = math.pi * y / math.sinh(math.pi * y)
            assert got == pytest.approx(want, rel=1e-12)

    def test_reflection(self):
        z = 0.3 + 0.7j
        lhs = cmath.exp(log_gamma(z) + log_gamma(1.0 - z))
        rhs = np.pi / np.sin(np.pi * z)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)

    def test_poles(self):
        # log_gamma refuses a pole; a pole in a denominator makes a Gamma ratio 0
        for n in (0, -1, -2, -7):
            with pytest.raises(DomainError):
                log_gamma(float(n))
            assert gamma_ratio((1.0,), (float(n),)) == 0.0

    def test_log_gamma_matches_mpmath(self):
        # only defined up to 2 pi i (the library always exponentiates it)
        # far from the real axis sin(pi z) in the reflection formula
        # overflows (past |Im z| ~ 225)
        for z in (0.2 + 3j, 4.5 - 1j, -2.3 + 0.4j, 0.1 + 300j, 0.2 - 1000j, -5.5 + 40j):
            with mp.workdps(30):
                want = complex(mp.loggamma(z))
            diff = log_gamma(z) - want
            k = round(diff.imag / (2.0 * math.pi))
            assert abs(diff - 2j * math.pi * k) < 1e-11 * max(1.0, abs(want))


class TestGauss2F1:
    @pytest.mark.parametrize("z", [-0.3, -1.4, -7.0, -40.0, 0.4])
    def test_complex_parameters_vs_mpmath(self, z):
        a, b, c = (1.5 - 1.1j), (1.5 + 1.1j), 2.0
        got = gauss_2f1(a, b, c, z)
        assert got == pytest.approx(mp_2f1(a, b, c, z), rel=1e-10)

    @pytest.mark.parametrize("z", [-0.8, -6.0, -25.0, -300.0])
    def test_integer_parameter_difference(self, z):
        # a - b integral degenerates the generic 1/z connection
        a, b, c = (1.0 - 0.7j), (1.0 - 0.7j), 3.3
        got = gauss_2f1(a, b, c, z)
        assert got == pytest.approx(mp_2f1(a, b, c, z), rel=1e-9)

    def test_large_imaginary_parameters(self):
        # cancellation-heavy regime routed through the high-precision path
        lam = 75.0
        a, b, c = (2.0 - 1j * lam) / 2, (2.0 + 1j * lam) / 2, 1.5
        for z in (-0.4, -1.4, -3.0):
            got = gauss_2f1(a, b, c, z)
            assert got == pytest.approx(mp_2f1(a, b, c, z), rel=1e-9)

    @pytest.mark.parametrize("lam", [20.0, 40.0])
    def test_connection_route_for_large_imaginary_parameters(self, lam, no_mpmath):
        # the series cancel here; the 1/(1-z) connection does not
        a, b, c = (2.0 - 1j * lam) / 2, (2.0 + 1j * lam) / 2, 1.5
        for z in (-0.5, -1.4, -2.6, -3.5):
            assert gauss_2f1(a, b, c, z) == pytest.approx(mp_2f1(a, b, c, z), rel=1e-10)

    def test_one_signed_series_needs_no_mpmath(self, no_mpmath):
        # real a, c-b, c > 0: the Pfaff series has no cancellation to lose
        a, b, c = 20.0, 1.0, 12.0
        for z in (-0.7, -2.0, -3.5):
            assert gauss_2f1(a, b, c, z) == pytest.approx(mp_2f1(a, b, c, z), rel=1e-12)

    def test_argument_on_cut_rejected(self):
        with pytest.raises(DomainError):
            gauss_2f1(0.5, 0.5, 1.5, 1.0)

    def test_nonpositive_integer_c_rejected(self):
        with pytest.raises(DomainError):
            gauss_2f1(0.5, 0.5, -2.0, 0.3)

    def test_vectorized_matches_scalar(self):
        a, b, c = 0.7 - 0.2j, 1.1 + 0.2j, 1.8
        zs = np.array([-0.2, -1.1, -9.0])
        vec = gauss_2f1_array(a, b, c, zs)
        for z, v in zip(zs, vec):
            assert v == pytest.approx(gauss_2f1(a, b, c, z), rel=1e-12)

    def test_sum_does_not_depend_on_batching(self):
        # each point's terms are summed along their own row of the block
        z = -0.453325
        alone = special._series_2f1(12.0, 3.5, 4.0, [z], 1e-12)[0][0]
        batch = special._series_2f1(12.0, 3.5, 4.0, [-0.3, z, 0.2], 1e-12)[0][1]
        assert alone == batch
        p = JacobiParams(2.3, 0.7)
        ts = np.linspace(0.05, 6.0, 40)
        for lam in (7.3, 35.15, 3j):
            batch = phi(p, lam, ts)
            assert all(phi(p, lam, t) == v for t, v in zip(ts, batch)), lam

    @given(
        st.floats(min_value=-30.0, max_value=0.9),
        st.floats(min_value=0.2, max_value=2.5),
        st.floats(min_value=-1.5, max_value=1.5),
    )
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_symmetry_in_upper_parameters(self, z, ar, ai):
        a = complex(ar, ai)
        b = complex(ar, -ai)
        assert gauss_2f1(a, b, 2.1, z) == pytest.approx(
            gauss_2f1(b, a, 2.1, z), rel=1e-12
        )


# a - b = 2: the Pfaff series serves -4 < z < -0.5, and z <= -4 takes the
# integral-(a-b) route, Pfaff onto the near-one logarithmic series in
# x = 1/(1-z) (DLMF 15.8.10)
INTEGRAL_AB = (3.0 + 5j, 1.0 + 5j, 2.0, np.linspace(-60.0, 0.9, 400))


class TestRoutes:
    """One route table: ``_routes`` picks each point's route, each runs once."""

    def test_route_codes(self):
        z = np.array([0.5, -0.5, -0.51, -3.99, -4.0, -19.0, -20.0])
        route, certified = special._routes(0.3 + 0j, 0.6 + 0j, 1.4 + 0j, z, 1e-12)
        D, P, V = special.DIRECT, special.PFAFF, special.INVZ
        assert list(route) == [D, D, P, P, V, V, V]
        assert certified.all()
        route, _ = special._routes(0.3 + 0j, 0.3 + 0j, 1.4 + 0j, z, 1e-12)
        G = special.DEGENERATE
        assert list(route) == [D, D, P, P, G, G, G]

    @pytest.mark.parametrize("args", [
        INTEGRAL_AB,
        # certified and uncertified points on the same routes, and the
        # 1/(1-z) connection
        (1.0 - 20j, 1.0 + 20j, 1.5, np.linspace(-60.0, 0.9, 400)),
    ])
    def test_each_route_runs_at_most_once(self, monkeypatch, args):
        names = ("_pfaff_2f1", "_invz_2f1", "_conn_2f1", "_invz_degenerate")
        calls = dict.fromkeys(names, 0)
        active = []  # routes running now: a route inside another is not counted

        def wrap(name, fn):
            def wrapped(*a):
                if not active:
                    calls[name] += 1
                active.append(name)
                try:
                    return fn(*a)
                finally:
                    active.pop()
            return wrapped

        for name in names:
            monkeypatch.setattr(special, name, wrap(name, getattr(special, name)))
        gauss_2f1_array(*args)
        assert max(calls.values()) == 1, calls

    def test_integral_detour_matches_mpmath(self):
        a, b, c, z = INTEGRAL_AB
        got = gauss_2f1_array(a, b, c, z)
        with mp.workdps(20):  # enough for 1e-10, and half the time of 40 digits
            want = np.array([complex(mp.hyp2f1(a, b, c, x)) for x in z])
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))

    def test_offset_from_integral_goes_to_mpmath(self):
        # at a - b = 2 + 1e-9 the 1/z connection sits at a Gamma pole and
        # the log series would sum at a - b = 2, off by about 1e-9
        a, b, c = 3.0 + 5j + 1e-9, 1.0 + 5j, 2.0
        z = np.array([-5.0, -20.0, -60.0])
        route, certified = special._routes(a, b, c, z, 1e-12)
        assert list(route) == [special.MPMATH] * 3 and not certified.any()
        got = gauss_2f1_array(a, b, c, z)
        with mp.workdps(30):
            want = np.array([complex(mp.hyp2f1(a, b, c, x)) for x in z])
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    @pytest.mark.parametrize("abc", [
        (1.0, -10.0, 50.0),  # only the polynomial in w = z/(z-1) ends; it cancels
        (12.0, 3.0, 2.0),  # c-a = -10 and c-b = -1: two polynomials in w
        (-5.0, -17.0, 6.0 + 1j),  # the degree-17 polynomial in w cancels
    ])
    def test_integral_polynomial_keeps_tol(self, abc):
        z = np.array([-5.0, -20.0, -60.0, -1e5])
        got = gauss_2f1_array(*abc, z)
        want = np.array([mp_2f1(*abc, x) for x in z])
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


class TestNearOne:
    def test_generic_connection(self):
        a, b, c = 0.8 - 0.5j, 1.1 + 0.5j, 2.05
        for w in (1e-6, 1e-3, 0.3):
            got = hyp2f1_near_one(a, b, c, w)[0]
            assert got == pytest.approx(mp_2f1(a, b, c, 1.0 - w), rel=1e-9)

    def test_logarithmic_case(self):
        # c - a - b integral (the log expansion)
        a, b, c = 0.8 - 0.5j, 1.2 + 0.5j, 3.0
        for w in (1e-8, 1e-4, 0.2):
            got = hyp2f1_near_one(a, b, c, w)[0]
            assert got == pytest.approx(mp_2f1(a, b, c, 1.0 - w), rel=1e-8)

    def test_w_outside_unit_interval_rejected(self):
        with pytest.raises(DomainError):
            hyp2f1_near_one(0.5, 0.5, 1.5, np.array([1.5]))


class TestEulerIntegral:
    def test_agrees_with_series(self):
        a, b, c = 0.9 - 0.4j, 1.3, 2.6
        for z in (-0.7, -2.0, 0.3):
            got = euler_integral_2f1(a, b, c, z)
            assert got == pytest.approx(gauss_2f1(a, b, c, z), rel=1e-9)

    def test_requires_real_part_ordering(self):
        with pytest.raises(DomainError):
            euler_integral_2f1(0.5, 3.0, 2.0, -0.5)
