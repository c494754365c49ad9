"""Decay indicators, strip scans, the resolvent glue, and span density."""

import numpy as np
import pytest

from fourierjacobi import (
    DomainError,
    JacobiParams,
    PrecisionError,
    StripScanGrid,
    b_lambda,
    cauchy_riemann_residual,
    delta_inf_plus,
    delta_irho,
    forward_transform,
    gaussian_bump,
    report_to_json,
    resolvent_transform,
    scan_common_zeros,
    span_density_demo,
    weight_delta,
)
from fourierjacobi.quadrature import integrate
from fourierjacobi.suites import l10_projection


class BTarget:
    """Even callable with a support bound, sampling a fixed b_lambda."""

    def __init__(self, params, lam, tmax):
        self.params = params
        self.lam = lam
        self.tmax = tmax

    def __call__(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros(t.shape, dtype=complex)
        pos = np.abs(t) > 0.0
        out[pos] = b_lambda(self.params, self.lam, np.abs(t[pos]))
        return out if out.size > 1 else complex(out[0])


class TestDeltaInfPlus:
    @pytest.mark.parametrize("rho", [0.5, 1.0, 3.5])
    @pytest.mark.parametrize("c", [0.25, 1.0])
    def test_exact_on_double_exponential(self, rho, c):
        # |F(t)| = exp(-c e^{pi t / 2 rho}) has indicator exactly c
        horizon = 2 * rho * np.log(600.0 / c) / np.pi
        ts = np.linspace(0.1, horizon, 500)
        est, window = delta_inf_plus(
            ts, np.exp(-c * np.exp(np.pi * ts / (2 * rho))), rho
        )
        assert est == pytest.approx(c, rel=1e-12)
        assert window == (pytest.approx(horizon / 2), pytest.approx(horizon))

    def test_zero_samples_tolerated(self):
        ts = np.linspace(0.1, 4.0, 50)
        vals = np.exp(-ts)
        vals[30] = 0.0
        est, _ = delta_inf_plus(ts, vals, 1.0)
        assert np.isfinite(est)

    def test_bad_grid_rejected(self):
        with pytest.raises(DomainError):
            delta_inf_plus([1.0, 0.5], [1.0, 1.0], 1.0)


class TestDeltaIrho:
    @pytest.mark.parametrize("rho", [0.5, 1.0, 3.5])
    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_exact_on_essential_singularity(self, rho, c):
        # F(ix) = exp(-c/(rho-x)) has (rho-x) log|F| identically -c
        est, xs, vals = delta_irho(
            lambda l: np.exp(-c / (rho - l.imag)), rho, n_steps=8
        )
        assert est == pytest.approx(-c, rel=1e-12)
        assert np.all(np.diff(xs) > 0)

    def test_bounded_transform_indicator_zero(self):
        # F bounded away from 0 and oo: (rho-x) log|F| -> 0
        est, _, _ = delta_irho(lambda l: 2.0 + 0j, 1.0, n_steps=20)
        assert est == pytest.approx(0.0, abs=1e-5)

    def test_bad_start_rejected(self):
        with pytest.raises(DomainError):
            delta_irho(lambda l: 1.0, 1.0, x0=1.5)


@pytest.fixture(scope="module")
def rank_one():
    return JacobiParams(0.5, -0.5)


@pytest.fixture(scope="module")
def scan_setup(rank_one):
    grid = StripScanGrid(re_max=3.0, re_n=13, im_margin=0.02, im_n=7)
    return rank_one, grid


@pytest.fixture(scope="module")
def glue_setup(rank_one):
    return rank_one, l10_projection(rank_one)


class TestScan:
    def test_positive_bump_no_common_zero(self, scan_setup):
        p, grid = scan_setup
        bump = gaussian_bump(8.0, 513, width=0.5)
        rep = scan_common_zeros(
            p, [lambda l: forward_transform(p, bump, l)], grid, 1e-4
        )
        assert rep["no_common_zero"]

    def test_mean_zero_generator_flags_pm_irho(self, scan_setup):
        p, grid = scan_setup
        f0 = l10_projection(p)
        rep = scan_common_zeros(
            p, [lambda l: forward_transform(p, f0, l)], grid, 1e-4
        )
        assert rep["n_candidates"] > 0
        assert rep["only_pm_irho"]

    def test_joint_family_empties_hull(self, scan_setup):
        p, grid = scan_setup
        f0 = l10_projection(p)
        bump = gaussian_bump(8.0, 513, width=0.5)
        rep = scan_common_zeros(
            p,
            [
                lambda l: forward_transform(p, f0, l),
                lambda l: forward_transform(p, bump, l),
            ],
            grid,
            1e-4,
        )
        assert rep["no_common_zero"]

    def test_report_serializes(self, scan_setup):
        p, grid = scan_setup
        bump = gaussian_bump(8.0, 513, width=0.5)
        rep = scan_common_zeros(
            p, [lambda l: forward_transform(p, bump, l)], grid, 1e-4
        )
        assert report_to_json(rep) == report_to_json(rep)

    def test_scalar_only_member_falls_back(self, scan_setup):
        # a member that refuses arrays is called point by point; the report
        # is the one of a family called point by point throughout
        p, _ = scan_setup
        grid = StripScanGrid(re_max=3.0, re_n=5, im_margin=0.02, im_n=3)
        f0 = l10_projection(p)
        bump = gaussian_bump(8.0, 513, width=0.5)

        def scalar_only(fn):
            def call(lam):
                if np.ndim(lam):
                    raise TypeError("scalar lambda only")
                return fn(lam)
            return call

        for g in (f0, bump):
            whole = [lambda l: forward_transform(p, f0, l), lambda l: forward_transform(p, g, l)]
            mixed = scan_common_zeros(p, [whole[0], scalar_only(whole[1])], grid, 1e-4)
            pointwise = scan_common_zeros(p, [scalar_only(h) for h in whole], grid, 1e-4)
            assert report_to_json(mixed) == report_to_json(pointwise)
        assert mixed["no_common_zero"]  # the joint family, as above
        assert scan_common_zeros(p, [lambda l: 1.0], grid, 1e-4)["no_common_zero"]

    def test_bad_threshold_rejected(self, scan_setup):
        p, grid = scan_setup
        with pytest.raises(DomainError):
            scan_common_zeros(p, [lambda l: 1.0], grid, 0.0)


def _g_one(t):
    return np.ones_like(np.asarray(t, dtype=float))


class TestResolventGlue:
    def test_exterior_matches_resolvent(self, glue_setup):
        p, _ = glue_setup
        for lam in (2j, 3j, 0.5 + 2.5j):
            got = resolvent_transform(p, _g_one, None, lam)
            assert got == pytest.approx(-1.0 / (lam**2 + p.rho**2), rel=1e-5)

    def test_interior_matches_resolvent(self, glue_setup):
        p, f0 = glue_setup
        for lam in (0.8j, 0.4j, 0.3 + 0.6j):
            got = resolvent_transform(p, _g_one, f0, lam)
            assert got == pytest.approx(-1.0 / (lam**2 + p.rho**2), rel=1e-3)

    def test_seam_rejected(self, glue_setup):
        p, f0 = glue_setup
        with pytest.raises(DomainError):
            resolvent_transform(p, _g_one, f0, 1j * p.rho)

    def test_lower_half_plane_rejected(self, glue_setup):
        p, f0 = glue_setup
        with pytest.raises(DomainError):
            resolvent_transform(p, _g_one, f0, -0.5j)

    def test_division_unstable_flagged(self, glue_setup):
        p, _ = glue_setup
        zero = gaussian_bump(6.0, 257)
        zero = type(zero)(zero.tmax, np.zeros_like(zero.values))
        with pytest.raises(PrecisionError):
            resolvent_transform(p, _g_one, zero, 0.5j)

    def test_capped_tail_raises(self, glue_setup):
        # 0.01 above the rail the tail needs t ~ 2,800; cut at the cap of
        # 240 the value missed -1/(lam^2 + rho^2) by 9 %
        p, _ = glue_setup
        with pytest.raises(PrecisionError):
            resolvent_transform(p, _g_one, None, 1.01j)

    def test_compact_g_pairs_over_its_support(self, glue_setup):
        # a support bound ends the integral, so no tail cap applies
        p, _ = glue_setup
        g = gaussian_bump(4.0, 257, width=0.6, center=1.0)
        lam = 1.01j
        got = resolvent_transform(p, g, None, lam)
        want = 2.0 * integrate(
            lambda t: b_lambda(p, lam, t) * g(t) * weight_delta(p, t), 0.0, g.tmax
        )
        assert got == pytest.approx(want, rel=1e-6)

    def test_exterior_reflection_symmetry(self, rank_one):
        # -1/(lam^2 + rho^2) conjugates when Re lam flips sign
        p = rank_one
        a = resolvent_transform(p, _g_one, None, 1.0 + 2j)
        b = resolvent_transform(p, _g_one, None, -1.0 + 2j)
        assert a == pytest.approx(np.conj(b), rel=1e-10)

    def test_exterior_branch_holomorphic(self, glue_setup):
        p, _ = glue_setup
        res = cauchy_riemann_residual(
            lambda l: resolvent_transform(p, _g_one, None, l), 0.5 + 2.5j
        )
        assert res < 1e-4


class TestSpanDensity:
    def test_member_of_span_near_zero_residual(self, rank_one):
        p = rank_one
        lam0 = 1j * (p.rho + 1.0)
        target = BTarget(p, lam0, tmax=30.0)
        rep = span_density_demo(p, target, [lam0, 1j * (p.rho + 2.0)])
        assert rep["residuals"][0] < 1e-10 * rep["target_norm"]

    def test_nested_residuals_nonincreasing(self, rank_one):
        p = rank_one
        target = gaussian_bump(6.0, 513, width=0.8, center=1.0)
        lams = [1j * (p.rho + s) for s in (1.0, 0.5, 2.0, 0.25, 3.0, 0.125)]
        rep = span_density_demo(p, target, lams)
        res = rep["residuals"]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(res, res[1:]))
        assert res[-1] < res[0]

    def test_unbounded_target_rejected(self, rank_one):
        with pytest.raises(DomainError):
            span_density_demo(
                rank_one, np.exp, [2j, 3j]
            )

    def test_lambdas_inside_strip_rejected(self, rank_one):
        target = gaussian_bump(4.0, 129)
        with pytest.raises(DomainError):
            span_density_demo(rank_one, target, [0.5j, 2j])
