"""Second-kind kernels b_lambda, their transforms, and the T_lambda operator."""

import numpy as np
import pytest

from fourierjacobi import (
    DomainError,
    JacobiParams,
    PrecisionError,
    TLambdaOperator,
    b_hat,
    b_hat_exact,
    b_l1_norm,
    b_lambda,
    forward_transform,
    gaussian_bump,
    resolvent_transform,
    t_lambda,
    t_lambda_hat,
    wronskian_bracket,
    wronskian_exact,
)


class TestBLambda:
    def test_requires_upper_half_plane(self, standard_params):
        for lam in (1.0, 1.0 - 0.5j):
            with pytest.raises(DomainError):
                b_lambda(standard_params, lam, 1.0)

    def test_origin_rejected(self, standard_params):
        with pytest.raises(DomainError):
            b_lambda(standard_params, 1.0 + 0.5j, 0.0)

    def test_decay_rate(self, standard_params):
        # |b_lambda(t)| ~ e^{-(rho + Im lam) t}
        lam = 0.7 + 0.6j
        t1, t2 = 10.0, 12.0
        ratio = abs(b_lambda(standard_params, lam, t2)) / abs(
            b_lambda(standard_params, lam, t1)
        )
        want = np.exp(-(standard_params.rho + lam.imag) * (t2 - t1))
        assert ratio == pytest.approx(want, rel=1e-6)


class TestBHat:
    def test_exact_resolvent_form(self, standard_params):
        # bhat_lam(xi) = 1/(xi^2 - lam^2) once Im lam > rho
        lam = 0.5 + 1j * (standard_params.rho + 1.0)
        for xi in (0.4, 2.0, 1.0 + 0.2j):
            got = b_hat(standard_params, lam, xi)
            assert got == pytest.approx(b_hat_exact(lam, xi), rel=1e-8)

    def test_nonintegrable_lambda_rejected(self, standard_params):
        with pytest.raises(DomainError):
            b_hat(standard_params, 0.5 + 0.3j, 1.0)

    def test_l1_norm_finite_above_rho(self, standard_params):
        lam = 1j * (standard_params.rho + 0.5)
        assert b_l1_norm(standard_params, lam) > 0

    def test_l1_norm_rejected_inside_strip(self, standard_params):
        with pytest.raises(DomainError):
            b_l1_norm(standard_params, 0.5j * standard_params.rho)

    def test_overflowing_integrand_raises(self):
        # rho = 4: Delta overflows near t = 89, short of the cutoff 140,
        # where b_lambda has underflowed; inf * 0 must not become the norm
        with pytest.raises(PrecisionError):
            b_l1_norm(JacobiParams(2.3, 0.7), 1.0 + 4.2j)

    def test_capped_tail_raises(self):
        # rate Im lam - |Im xi| = 0.011 needs t ~ 2,500; the cap at 240
        # leaves exp(-2.64) of the tail, a 27 % miss when cut silently
        with pytest.raises(PrecisionError) as err:
            b_hat(JacobiParams(0.5, -0.5), 1.01j, 0.999j)
        assert err.value.achieved == pytest.approx(np.exp(-0.011 * 240.0))


def test_rail_is_one_rule():
    # within STRIP_TIE_TOL of Im lambda = rho every resolvent entry point
    # sees the rail, from either side
    p = JacobiParams(0.5, -0.5)
    f = gaussian_bump(4.0, 129, width=0.6, center=1.0)
    below, above = 1j * (p.rho - 5e-13), 1j * (p.rho + 5e-13)
    with pytest.raises(DomainError):
        TLambdaOperator(p, f, below)
    with pytest.raises(DomainError):
        b_hat(p, above, 0.0)
    with pytest.raises(DomainError):
        b_l1_norm(p, above)
    for lam in (below, above):
        with pytest.raises(DomainError):
            resolvent_transform(p, np.cos, f, lam)


class TestWronskian:
    @pytest.mark.parametrize("t", [0.05, 0.5, 2.0, 6.0])
    def test_constant_in_t(self, standard_params, t):
        lam = 0.8 + 0.4j
        got = wronskian_bracket(standard_params, lam, t)
        assert got == pytest.approx(
            wronskian_exact(standard_params, lam), rel=1e-5
        )

    def test_seeded_spread(self, standard_params, rng):
        p = standard_params
        for _ in range(3):
            lam = complex(rng.uniform(0.3, 2.0), rng.uniform(0.1, 0.8))
            vals = [wronskian_bracket(p, lam, t) for t in (0.3, 1.0, 3.0)]
            spread = max(abs(v - vals[0]) for v in vals)
            assert spread < 1e-5 * abs(vals[0])


@pytest.fixture(scope="module")
def setup():
    p = JacobiParams(2.3, 0.7)
    f = gaussian_bump(8.0, 1025, width=1.0)
    lam = 1.0 + 0.5j * p.rho
    return p, f, lam, TLambdaOperator(p, f, lam)


class TestTLambda:

    def test_hat_identity(self, setup):
        # (T_lam f)^(xi) = (fhat(lam) - fhat(xi)) / (xi^2 - lam^2)
        p, f, lam, op = setup
        for xi in (0.5, 1.7, 3.0):
            got = t_lambda_hat(p, op, lam, xi)
            want = (op.fhat_lam - forward_transform(p, f, xi)) / (
                xi**2 - lam**2
            )
            assert got == pytest.approx(want, rel=1e-6)

    def test_fhat_cached_value(self, setup):
        p, f, lam, op = setup
        assert op.fhat_lam == pytest.approx(
            forward_transform(p, f, lam), rel=1e-8
        )

    def test_vanishes_beyond_support(self, setup):
        p, f, lam, op = setup
        assert op(f.tmax + 1.0) == 0.0

    def test_scalar_entry_point(self, setup):
        p, f, lam, op = setup
        assert t_lambda(p, f, lam, 1.3) == pytest.approx(op(1.3), rel=1e-10)

    def test_operator_built_at_another_lambda_rejected(self):
        p = JacobiParams(0.5, -0.5)
        f = gaussian_bump(4.0, 129, width=0.6, center=1.0)
        op = TLambdaOperator(p, f, 0.5j)
        with pytest.raises(DomainError):
            t_lambda_hat(p, op, 0.3j, 1.0)

    def test_requires_interior_lambda(self):
        p = JacobiParams(1.0, 0.0)
        f = gaussian_bump(6.0, 257)
        for lam in (1.0, 1.0 + 1j * (p.rho + 0.1)):
            with pytest.raises(DomainError):
                TLambdaOperator(p, f, lam)
