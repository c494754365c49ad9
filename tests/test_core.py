"""Jacobi functions, the c-function, and the differential operators."""

import math

import mpmath as mp
import numpy as np
import pytest

from fourierjacobi import (
    DomainError,
    JacobiParams,
    c_function,
    phi,
    phi_dx_at_rho,
    phi_second_kind,
    strip_region,
    weight_delta,
)
from fourierjacobi import special
from fourierjacobi.core import (
    apply_L,
    apply_cherednik_T,
    heckman_opdam_g,
    phi_dx_at_rho_closed_form,
    phi_second_kind_sinh_form,
)

def high_band_grid(seed=20170401, n_lam=5, n_t=8):
    """Seeded (params, lambda, ts): Re lambda in [20, 40], |Im lambda| <= 0.6 rho."""
    rng = np.random.default_rng(seed)
    cases = []
    # generic, alpha = beta, beta = -1/2 with integer alpha, integer alpha
    for ab in [(2.3, 0.7), (1.2, 1.2), (3.0, -0.5), (1.0, 0.0)]:
        p = JacobiParams(*ab)
        for _ in range(n_lam):
            lam = complex(rng.uniform(20.0, 40.0), rng.uniform(-0.6, 0.6) * p.rho)
            cases.append((p, lam, np.sort(rng.uniform(0.0, 3.0, n_t))))
    # the points the former fixed |abz| < 100 threshold left to a cancelling
    # series: Pfaff route at |a(c-b)w| = 94, direct route at |abz| = 81
    cases.append((JacobiParams(3.0, -0.5), 22.1 - 1.72j, np.array([1.35])))
    cases.append((JacobiParams(2.3, 0.7), 37.4 + 0j, np.array([0.46])))
    return cases


def mp_phi(p, lam, t):
    with mp.workdps(30):
        lam = mp.mpc(lam)
        rho = mp.mpf(p.rho)
        z = -mp.sinh(mp.mpf(float(t))) ** 2
        return complex(mp.hyp2f1((rho - 1j * lam) / 2, (rho + 1j * lam) / 2,
                                 mp.mpf(p.alpha) + 1, z))


def mp_phi_second_kind(p, lam, t):
    with mp.workdps(30):
        lam = mp.mpc(lam)
        rho = mp.mpf(p.rho)
        t = mp.mpf(float(t))
        a = (rho - 1j * lam) / 2
        b = (mp.mpf(p.alpha) - mp.mpf(p.beta) + 1 - 1j * lam) / 2
        val = mp.power(2 * mp.cosh(t), 1j * lam - rho) * mp.hyp2f1(
            a, b, 1 - 1j * lam, mp.cosh(t) ** -2)
        return complex(val)


class TestParams:
    def test_rho(self):
        assert JacobiParams(0.5, -0.5).rho == 1.0
        assert JacobiParams(2.3, 0.7).rho == 4.0

    @pytest.mark.parametrize("a,b", [(-0.5, -0.5), (0.0, 0.5), (-2.0, -3.0)])
    def test_invalid_rejected(self, a, b):
        with pytest.raises(DomainError):
            JacobiParams(a, b)

    def test_strip_classification(self):
        p = JacobiParams(0.5, -0.5)
        assert strip_region(p, 0.3 + 0.5j) == "interior"
        assert strip_region(p, 1j) == "boundary"
        assert strip_region(p, 2.0 - 1.5j) == "exterior"


class TestPhi:
    def test_normalized_at_origin(self, standard_params):
        assert complex(phi(standard_params, 1.3 + 0.2j, 0.0)) == pytest.approx(1.0)

    def test_closed_form_rank_one(self):
        p = JacobiParams(0.5, -0.5)
        for lam in (0.5, 1.0, 2.0, 5.0):
            for t in (0.25, 1.0, 2.5, 6.0):
                want = np.sin(lam * t) / (lam * np.sinh(t))
                assert complex(phi(p, lam, t)) == pytest.approx(want, abs=1e-11)

    def test_even_in_lambda(self, standard_params):
        lam = 1.1 + 0.4j
        ts = np.array([0.3, 1.0, 2.7])
        assert np.allclose(
            phi(standard_params, lam, ts), phi(standard_params, -lam, ts), atol=1e-12
        )

    def test_even_in_t(self, standard_params):
        lam = 0.8
        assert phi(standard_params, lam, -1.3) == pytest.approx(
            phi(standard_params, lam, 1.3)
        )

    def test_boundary_value_is_one(self, standard_params):
        # phi at lambda = i rho is identically 1
        ts = np.array([0.2, 1.0, 3.0])
        vals = phi(standard_params, 1j * standard_params.rho, ts)
        assert np.allclose(vals, 1.0, atol=1e-12)

    def test_high_band_matches_mpmath(self):
        for p, lam, ts in high_band_grid():
            got = phi(p, lam, ts)
            for t, g in zip(ts, got):
                want = mp_phi(p, lam, t)
                assert abs(g - want) <= 1e-10 * abs(want), (p, lam, t)

    def test_high_band_needs_no_mpmath(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("phi reached the mpmath fallback")

        # phi reaches mpmath only through gauss_2f1_array
        monkeypatch.setattr(special, "_mp_2f1", refuse)
        for p, lam, ts in high_band_grid():
            assert np.all(np.isfinite(phi(p, lam, ts)))

    @pytest.mark.parametrize("lam", [1000.0, 1000.0 + 0.3j, 450.0])
    def test_large_lambda_near_origin_matches_mpmath(self, lam):
        # |lam sinh t| is past ln(tol/eps), and the cosh^-2 t series of the
        # Harish-Chandra expansion would need more than MAX_TERMS terms
        for ab in [(2.3, 0.7), (1.0, 0.0)]:
            p = JacobiParams(*ab)
            ts = np.linspace(0.009, 0.03, 4)
            for t, g in zip(ts, phi(p, lam, ts)):
                want = mp_phi(p, lam, t)
                assert abs(g - want) <= 1e-10 * abs(want), (ab, t)

    @pytest.mark.parametrize("ab", [(2.3, 0.7), (1.2, 1.2), (3.0, -0.5), (1.0, 0.0), (0.5, -0.5)])
    def test_imaginary_integer_lambda_keeps_tol(self, ab):
        # lambda = ik makes a - b = k integral; from t = asinh 2 on, z <= -4
        # and the integral route (Pfaff onto DLMF 15.8.10) answers.  phi is
        # even in lambda, so k >= 0 covers the strip.
        p = JacobiParams(*ab)
        ts = np.linspace(1.4, 6.0, 8)
        for k in range(math.ceil(p.rho)):
            got = phi(p, 1j * k, ts, tol=1e-12)
            for t, g in zip(ts, got):
                want = mp_phi(p, 1j * k, t)
                assert abs(g - want) <= 1e-12 * abs(want), (k, t)
        if ab == (0.5, -0.5):
            np.testing.assert_allclose(phi(p, 0.0, ts), ts / np.sinh(ts), rtol=1e-12, atol=0)

    def test_tol_below_eps(self):
        # no double-precision series certifies tol = 1e-16
        p = JacobiParams(2.3, 0.7)
        assert abs(phi(p, 30.0, 0.0, tol=1e-16) - 1.0) <= 1e-15
        for lam in (5.0, 30.0):
            want = mp_phi(p, lam, 0.5)
            assert abs(phi(p, lam, 0.5, tol=1e-16) - want) <= 1e-13 * abs(want)


class TestSecondKind:
    def test_connection_formula(self, standard_params):
        p = standard_params
        lam = 1.1 + 0.4j
        for t in (0.2, 0.8, 2.0, 5.0):
            lhs = complex(phi(p, lam, t))
            rhs = complex(
                c_function(p, lam) * phi_second_kind(p, lam, t)
                + c_function(p, -lam) * phi_second_kind(p, -lam, t)
            )
            assert lhs == pytest.approx(rhs, rel=1e-7)

    def test_cosh_and_sinh_forms_agree(self, standard_params):
        lam = 0.7 - 0.2j
        for t in (0.8, 1.5, 4.0):
            v1 = complex(phi_second_kind(standard_params, lam, t))
            v2 = complex(phi_second_kind_sinh_form(standard_params, lam, t))
            assert v1 == pytest.approx(v2, rel=1e-10)

    @pytest.mark.parametrize("ab", [(1.0, 0.0), (2.3, 0.7)])
    def test_large_lambda_below_split_matches_mpmath(self, ab):
        # below t = 0.7 the near-one expansion cancels at large |lambda|
        p = JacobiParams(*ab)
        lam, t = 30.0 + 0.5j, 0.69
        want = mp_phi_second_kind(p, lam, t)
        assert abs(phi_second_kind(p, lam, t) - want) <= 1e-10 * abs(want)

    def test_cosh_series_keeps_tol_near_its_lower_end(self):
        # cosh^-2 t -> 1: the geometric tail of the series must stay below tol
        p = JacobiParams(2.3, 0.7)
        for t in (0.22, 0.25, 0.3):
            want = mp_phi_second_kind(p, 40.0, t)
            assert abs(phi_second_kind(p, 40.0, t) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("lam", [1000.0, 450.0])
    def test_large_lambda_near_origin_matches_mpmath(self, lam):
        # neither the near-one expansion nor the cosh^-2 t series ends
        # within MAX_TERMS here; the bound allows for the rounding of
        # cosh^-2 t, to which Phi is sensitive at large lambda near 1
        for ab in [(2.3, 0.7), (1.0, 0.0)]:
            p = JacobiParams(*ab)
            ts = np.linspace(0.009, 0.03, 4)
            for t, g in zip(ts, phi_second_kind(p, lam, ts)):
                want = mp_phi_second_kind(p, lam, t)
                assert abs(g - want) <= 1e-10 * abs(want), (ab, t)

    @pytest.mark.parametrize("ab", [(2.3, 0.7), (1.0, 0.0), (3.0, -0.5)])
    def test_near_one_coefficients_do_not_underflow(self, ab):
        # at t = 6/|lambda| the near-one expansion serves Phi; its Gamma
        # coefficients, formed as products, underflowed past |lambda| ~ 470
        p = JacobiParams(*ab)
        for lam in (470.0, 500.0, 600.0, 800.0 + 0.3j, -500.0, 700.0 - 0.4j):
            t = 6.0 / abs(lam)
            want = mp_phi_second_kind(p, lam, t)
            got = phi_second_kind(p, lam, t, tol=1e-12)
            assert abs(got - want) <= 1e-10 * abs(want), lam

    def test_exponential_asymptotics(self, standard_params):
        lam = 1.1 + 0.4j
        t = 10.0
        ratio = complex(phi_second_kind(standard_params, lam, t)) / np.exp(
            (1j * lam - standard_params.rho) * t
        )
        assert ratio == pytest.approx(1.0, abs=1e-6)

    def test_forbidden_lambda_rejected(self, standard_params):
        with pytest.raises(DomainError):
            phi_second_kind(standard_params, -1j, 1.0)

    def test_origin_rejected(self, standard_params):
        with pytest.raises(DomainError):
            phi_second_kind(standard_params, 0.5j, 0.0)


class TestCFunction:
    def test_normalization_at_minus_i_rho(self, standard_params):
        got = c_function(standard_params, -1j * standard_params.rho)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_closed_form(self):
        p = JacobiParams(0.5, -0.5)
        for lam in (0.5, 1.0, 3.0, 0.4 - 0.8j):
            assert c_function(p, lam) == pytest.approx(1.0 / (1j * lam), rel=1e-12)

    @pytest.mark.parametrize("lam", [300.0, 1000.0 - 0.5j])
    def test_large_lambda_matches_mpmath(self, lam):
        # Gamma(i lam) and 1/Gamma((rho + i lam)/2) leave the double range
        p = JacobiParams(2.3, 0.7)
        with mp.workdps(30):
            il = 1j * mp.mpc(lam)
            want = complex(mp.power(2, p.rho - il) * mp.gamma(p.alpha + 1) * mp.gamma(il)
                           * mp.rgamma((p.rho + il) / 2)
                           * mp.rgamma((il + p.alpha - p.beta + 1) / 2))
        assert c_function(p, lam) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("lam", [0.0, 1j, 3j])
    def test_gamma_poles_rejected(self, lam):
        with pytest.raises(DomainError):
            c_function(JacobiParams(1.0, 0.0), lam)


class TestWeight:
    def test_even_and_positive(self, standard_params):
        ts = np.array([0.5, 1.0, 2.0])
        w = weight_delta(standard_params, ts)
        assert np.all(w > 0)
        assert np.allclose(weight_delta(standard_params, -ts), w)

    def test_rank_one_value(self):
        p = JacobiParams(0.5, -0.5)
        assert weight_delta(p, 1.0) == pytest.approx((2 * np.sinh(1.0)) ** 2)


class TestOperators:
    def test_phi_eigenfunction_of_L(self, standard_params, rng):
        p = standard_params
        for _ in range(3):
            lam = complex(rng.uniform(0.3, 2.0), rng.uniform(-0.3, 0.3))
            t = rng.uniform(0.3, 3.0)
            res = apply_L(p, lambda u: phi(p, lam, u), t) + (
                lam**2 + p.rho**2
            ) * phi(p, lam, t)
            assert abs(res) < 1e-3

    def test_g_eigenfunction_of_cherednik(self, standard_params, rng):
        p = standard_params
        for _ in range(3):
            lam = complex(rng.uniform(0.3, 2.0), rng.uniform(-0.3, 0.3))
            t = rng.uniform(0.3, 3.0)
            res = apply_cherednik_T(
                p, lambda u: heckman_opdam_g(p, lam, u), t
            ) - 1j * lam * heckman_opdam_g(p, lam, t)
            assert abs(res) < 1e-3

    def test_L_near_origin_rejected(self, standard_params):
        with pytest.raises(DomainError):
            apply_L(standard_params, lambda u: u * u, 1e-4)


class TestBoundaryDerivative:
    def test_positive(self, standard_params):
        for t in (0.5, 1.0, 2.0, 5.0):
            assert phi_dx_at_rho(standard_params, t) > 0

    def test_closed_form_agreement(self, standard_params):
        for t in (0.5, 2.0):
            fd = phi_dx_at_rho(standard_params, t)
            cf = phi_dx_at_rho_closed_form(standard_params, t)
            assert fd == pytest.approx(cf, rel=1e-6)

    def test_requires_positive_t(self, standard_params):
        with pytest.raises(DomainError):
            phi_dx_at_rho(standard_params, 0.0)
