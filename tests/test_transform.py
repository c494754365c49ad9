"""Forward/inverse transforms and their oracles."""

import numpy as np
import pytest

from fourierjacobi import (
    DomainError,
    EvenMeasure,
    GridFunction,
    JacobiParams,
    forward_transform,
    forward_transform_measure,
    gaussian_bump,
    inverse_transform,
    inversion_tail_estimate,
    l1_norm,
    phi,
    plancherel_density,
    riemann_lebesgue_check,
    weight_delta,
)
from fourierjacobi.quadrature import composite_gauss, integrate

# the four benchmark regimes and an alpha < 0 one
BENCH_REGIMES = [(2.3, 0.7), (1.2, 1.2), (3.0, -0.5), (1.0, 0.0), (-0.25, -0.5)]


class TestForward:
    def test_trapezoid_oracle_at_zero(self):
        # at lambda = 0 for (1/2,-1/2) the integrand is explicit:
        # 2 int e^{-t^2} (t / sinh t) (2 sinh t)^2 dt
        p = JacobiParams(0.5, -0.5)
        f = gaussian_bump(8.0, 1025, width=1.0)
        ts = np.linspace(0.0, 8.0, 400001)
        integrand = np.exp(-(ts**2)) * 4.0 * ts * np.sinh(ts)
        want = 2.0 * np.trapezoid(integrand, ts)
        assert forward_transform(p, f, 0.0).real == pytest.approx(want, abs=1e-9)

    def test_outside_strip_rejected(self, standard_params):
        f = gaussian_bump(6.0, 257)
        with pytest.raises(DomainError):
            forward_transform(
                standard_params, f, 1j * (standard_params.rho + 0.5)
            )

    def test_callable_without_support_bound_rejected(self, standard_params):
        with pytest.raises(DomainError):
            forward_transform(standard_params, lambda t: np.exp(-t * t), 1.0)

    def test_even_in_lambda(self, standard_params):
        f = gaussian_bump(6.0, 257, width=0.8)
        lam = 0.9 + 0.2j
        assert forward_transform(standard_params, f, lam) == pytest.approx(
            forward_transform(standard_params, f, -lam), rel=1e-12
        )


class TestMeasureTransform:
    def test_pair_measure_is_phi(self, standard_params):
        mu = EvenMeasure(atoms=[(1.3, 1.0)])
        for lam in (0.5, 1.2 + 0.3j):
            got = forward_transform_measure(standard_params, mu, lam)
            assert got == pytest.approx(complex(phi(standard_params, lam, 1.3)))

    def test_atom_at_zero_constant(self, standard_params):
        mu = EvenMeasure(atom0=1.0)
        assert forward_transform_measure(standard_params, mu, 2.0) == pytest.approx(
            1.0
        )

    def test_mass_at_i_rho(self, standard_params):
        mu = EvenMeasure(atom0=0.25, atoms=[(1.0, 0.75)])
        got = forward_transform_measure(
            standard_params, mu, 1j * standard_params.rho
        )
        assert got == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("measure", ["lebesgue", "delta-weighted"])
    def test_mass_is_muhat_at_i_rho_exactly(self, standard_params, measure):
        # total_mass and the transform read the same points, and phi_{i rho} = 1
        p = standard_params
        mu = EvenMeasure(atom0=0.2, atoms=[(0.5, 0.3), (1.1, 0.1)],
                         density=gaussian_bump(0.8, 33, width=0.4), density_measure=measure)
        assert mu.total_mass(p) == forward_transform_measure(p, mu, 1j * p.rho)

    @pytest.mark.parametrize("measure", ["lebesgue", "delta-weighted"])
    def test_density_against_fine_reference(self, standard_params, measure):
        p = standard_params
        d = gaussian_bump(0.8, 33, width=0.4)
        mu = EvenMeasure(atom0=0.2, atoms=[(0.5, 0.3)], density=d, density_measure=measure)
        lams = np.array([0.6, 1.8, 0.9 + 0.3j])

        def integrand(t):
            dens = d(t) * (weight_delta(p, t) if measure == "delta-weighted" else 1.0)
            return dens * phi(p, lams[:, None], t[None, :])

        want = (0.2 + 0.3 * phi(p, lams, 0.5)
                + 2.0 * composite_gauss(integrand, 0.0, d.tmax, n_segments=4096))
        got = forward_transform_measure(p, mu, lams)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-7


@pytest.mark.parametrize("ab", BENCH_REGIMES, ids=lambda ab: f"a{ab[0]}b{ab[1]}")
class TestFunctionAsMeasure:
    """A function's transform and L1 norm are those of the measure f Delta dt."""

    def test_transform_is_composite_gauss(self, ab):
        p = JacobiParams(*ab)
        f = gaussian_bump(4.0, 129, width=0.7)
        # real, complex, both rails and i rho
        lams = np.array([0.0, 3.0, 17.5, 1.1 + 0.4j * p.rho, 2.0 + 1j * p.rho,
                         0.6 - 1j * p.rho, 1j * p.rho])

        def integrand(t):
            return f(t) * phi(p, lams[:, None], t[None, :]) * weight_delta(p, t)

        # integrate's rule: 8 order-10 segments per unit of tmax
        want = 2.0 * composite_gauss(integrand, 0.0, f.tmax, n_segments=32)
        got = forward_transform(p, f, lams)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_l1_norm_is_integrate(self, ab):
        p = JacobiParams(*ab)
        bump = gaussian_bump(4.0, 129, width=0.7, center=1.0)
        f = GridFunction(4.0, (bump.values - 0.2) * np.exp(1j * bump.ts))
        want = 2.0 * integrate(lambda t: np.abs(f(t)) * weight_delta(p, t), 0.0, f.tmax).real
        got = l1_norm(p, f)
        assert got == pytest.approx(want, rel=1e-14)
        # the same points: |fhat| <= ||f||_1 on the real line, term by term
        assert np.all(np.abs(forward_transform(p, f, [0.0, 0.7, 4.0, 11.0])) <= got)


class TestPlancherelDensity:
    def test_vanishes_at_zero(self, standard_params):
        assert plancherel_density(standard_params, 0.0) == 0.0

    def test_rank_one_is_lambda_squared(self):
        p = JacobiParams(0.5, -0.5)
        for lam in (0.5, 2.0, 7.0):
            assert plancherel_density(p, lam) == pytest.approx(lam * lam, rel=1e-12)


class TestInversion:
    def test_roundtrip(self, standard_params):
        p = standard_params
        f = gaussian_bump(8.0, 1025, width=1.0)

        ts = np.array([0.0, 0.5, 1.2, 2.5])
        got = inverse_transform(p, lambda lams: forward_transform(p, f, lams), ts,
                                lambda_max=16.0)
        assert np.max(np.abs(got - f(ts))) < 1e-5

    def test_tail_estimate_small_for_smooth_bump(self, standard_params):
        p = standard_params
        f = gaussian_bump(8.0, 1025, width=1.0)
        tail = inversion_tail_estimate(
            p, lambda x: forward_transform(p, f, x), 16.0
        )
        assert tail < 1e-3


class TestRiemannLebesgue:
    def test_narrow_bump_decreasing(self, standard_params):
        f = gaussian_bump(8.0, 1025, width=0.5)
        values, monotone = riemann_lebesgue_check(
            standard_params, f, [10.0, 12.0, 14.0, 16.0]
        )
        assert monotone
        assert values[0] > values[-1]

    def test_requires_increasing_lambdas(self, standard_params):
        f = gaussian_bump(8.0, 1025)
        with pytest.raises(DomainError):
            riemann_lebesgue_check(standard_params, f, [2.0, 1.0])
