"""Second-kind kernels b_lambda, their transforms, and the T_lambda operator."""

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline
from scipy.special import roots_jacobi

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
    phi,
    phi_second_kind,
    resolvent_transform,
    t_lambda_hat,
    weight_delta,
    wronskian_bracket,
    wronskian_exact,
)
from fourierjacobi import resolvent
from fourierjacobi.core import _phi_rows
from fourierjacobi.quadrature import _grid_cutoff, decay_cutoff, singular_halfline_nodes


class TestBLambda:
    def test_requires_upper_half_plane(self, standard_params):
        for lam in (1.0, 1.0 - 0.5j):
            with pytest.raises(DomainError):
                b_lambda(standard_params, lam, 1.0)

    def test_origin_rejected(self, standard_params):
        with pytest.raises(DomainError):
            b_lambda(standard_params, 1.0 + 0.5j, 0.0)

    def test_lambda_grid_matches_scalar_calls(self, probe_params):
        p = probe_params
        lams = np.array([0.3 + 0.2j, 1.1 + 0.4j, 0.7j * p.rho, 0.8 + 2j * p.rho, -1.3 + 0.5j,
                         12.0 + 0.3j])
        ts = np.array([-0.8, 0.01, 0.05, 0.2, 0.69, 0.71, 1.0, 2.5, 6.0])
        rows = np.array([b_lambda(p, lam, ts) for lam in lams])
        assert np.array_equal(b_lambda(p, lams[:, None], ts), rows)
        assert np.array_equal(_phi_rows(p, lams, ts, b_lambda), rows)
        assert np.array_equal(b_lambda(p, lams, ts[4]), rows[:, 4])
        assert all(b_lambda(p, lam, ts[4]) == rows[k, 4] for k, lam in enumerate(lams))

    def test_array_lambda_rejected_anywhere_below_axis(self, standard_params):
        with pytest.raises(DomainError):
            b_lambda(standard_params, np.array([1.0 + 0.5j, -2j, 0.3j]), 1.0)

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

    @pytest.mark.parametrize("ab", [(2.3, 0.7), (1.0, 0.0), (1.2, 1.2), (3.0, -0.5), (0.5, -0.5),
                                    (-0.25, -0.5), (0.0, 0.0), (1.5, -0.5), (2.0, 1.0)])
    def test_closed_form_to_1e_10(self, ab):
        # on the 0.5-grid cutoff, with b_lambda Delta formed in log space,
        # every regime reads within 6e-11
        p = JacobiParams(*ab)
        lam = 0.5 + 1j * (p.rho + 1.0)
        xis = np.array([0.4, 1.0 + 0.2j])
        want = 1.0 / (xis**2 - lam**2)
        assert np.max(np.abs(b_hat(p, lam, xis) - want) / np.abs(want)) <= 1e-10

    def test_array_xi_matches_scalar_calls(self, monkeypatch):
        # the xi that share |Im xi| share one cutoff, hence one pairing
        p = JacobiParams(2.3, 0.7)
        lam = 0.5 + 1j * (p.rho + 1.0)
        xis = np.array([0.0, 0.5, 1.0 + 0.2j, 2.0, 3.0 - 0.2j, 0.4 + 0.5j])
        want = [b_hat(p, lam, xi) for xi in xis]
        pairs = []
        pair = resolvent._pair
        monkeypatch.setattr(resolvent, "_pair", lambda *a, **k: pairs.append(1) or pair(*a, **k))
        got = b_hat(p, lam, xis)
        assert np.array_equal(got, want)
        assert len(pairs) == 3
        assert np.array_equal(b_hat(p, lam, xis.reshape(2, 3)), got.reshape(2, 3))
        with pytest.raises(DomainError):
            b_hat(p, lam, np.array([0.5, 1j * (p.rho + 0.1)]))

    def test_nonintegrable_lambda_rejected(self, standard_params):
        with pytest.raises(DomainError):
            b_hat(standard_params, 0.5 + 0.3j, 1.0)

    def test_l1_norm_finite_above_rho(self, standard_params):
        lam = 1j * (standard_params.rho + 0.5)
        assert b_l1_norm(standard_params, lam) > 0

    def test_l1_norm_rejected_inside_strip(self, standard_params):
        with pytest.raises(DomainError):
            b_l1_norm(standard_params, 0.5j * standard_params.rho)

    def test_pairings_finite_where_delta_overflows(self):
        # rho = 4: Delta overflows near t = 89, short of the cutoff 140.5,
        # where b_lambda has underflowed; b_lambda Delta is formed in log
        # space, so both exterior pairings stay finite there
        p, lam = JacobiParams(2.3, 0.7), 1.0 + 4.2j
        want = -1.0 / (lam * lam + p.rho**2)
        got = resolvent_transform(p, lambda t: np.ones_like(t), None, lam)
        assert abs(got - want) <= 1e-10 * abs(want)
        norm = b_l1_norm(p, lam)
        assert np.isfinite(norm) and norm >= abs(want)
        # a g that is not finite somewhere still must not enter the sum
        with pytest.raises(PrecisionError):
            resolvent_transform(p, lambda t: np.where(t > 80.0, np.inf, 1.0), None, lam)

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

    def test_one_call_matches_scalar_calls(self, standard_params):
        # a point's phi does not depend on its batch, so evaluating the
        # stencil in one call changes no bit of the bracket
        p, lam, t, h = standard_params, 0.8 + 0.4j, 0.45, 1e-3
        offsets = np.array([-2.0, -1.0, 1.0, 2.0])
        stencil = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0

        def fd1(func):
            half = np.dot(stencil, [func(p, lam, t + o * 0.5 * h) for o in offsets]) / (0.5 * h)
            return (16.0 * half - np.dot(stencil, [func(p, lam, t + o * h) for o in offsets]) / h) / 15.0

        want = weight_delta(p, t) * (
            phi(p, lam, t) * fd1(phi_second_kind) - fd1(phi) * phi_second_kind(p, lam, t)
        )
        assert wronskian_bracket(p, lam, t) == want

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
            assert got == pytest.approx(want, rel=1e-8)

    def test_fhat_cached_value(self, setup):
        p, f, lam, op = setup
        assert op.fhat_lam == pytest.approx(
            forward_transform(p, f, lam), rel=1e-8
        )

    def test_vanishes_beyond_support(self, setup):
        p, f, lam, op = setup
        assert op(f.tmax + 1.0) == 0.0

    def test_fhat_lam_matches_graded_gauss(self):
        # alpha = -1/4: Delta ~ t^(1/2) at 0, where a rule in t loses order;
        # in s = sqrt(t/tmax) the integrand f phi Delta dt/ds is smooth between
        # f's knots, so Gauss-Legendre there is the reference
        p = JacobiParams(-0.25, -0.5)
        f = gaussian_bump(4.0, 129, width=0.6, center=1.0)
        x, w = np.polynomial.legendre.leggauss(12)
        edges = np.sqrt(np.linspace(0.0, 1.0, len(f.values)))
        half = 0.5 * np.diff(edges)
        s = ((edges[:-1] + half)[:, None] + half[:, None] * x).ravel()
        t = f.tmax * s * s
        base = 4.0 * f.tmax * (half[:, None] * w).ravel() * s * f(t) * weight_delta(p, t)
        for lam in (0.1j, 0.3 + 0.05j, 1.1 + 0.2j):
            want = np.sum(base * phi(p, lam, t))
            assert TLambdaOperator(p, f, lam).fhat_lam == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("ab", [(-0.4, -0.5), (-0.45, -0.45), (-0.1, -0.5), (2.3, 0.7),
                                    (-0.49, -0.5)])
    def test_hat_identity_against_graded_gauss(self, ab):
        # the reference fhat takes order-12 Gauss on each knot interval of
        # f, Gauss-Jacobi with weight t^(2 alpha + 1) on the first, so the
        # identity is read against fhat, not against the grid's own Simpson
        # sums; for alpha < 0 the grid pairing needs its endpoint term (without
        # it alpha = -0.4 and -0.45 read 4.7e-8 and 1.0e-7), and so does
        # fhat_lam (2.3e-9 to 6.2e-9 without it); at (2.3, 0.7) the grid's
        # own Simpson error in fhat(lambda), 7e-10, puts the identity near
        # 1.3e-9
        p = JacobiParams(*ab)
        f = gaussian_bump(4.0, 129, width=0.6, center=1.0)
        dt, a = f.dt, 2.0 * p.alpha + 1.0
        x, w = np.polynomial.legendre.leggauss(12)
        mid = (np.arange(1, len(f.values) - 1) + 0.5) * dt
        xj, wj = roots_jacobi(12, 0.0, a)
        t0 = 0.5 * dt * (1.0 + xj)
        t = np.concatenate([t0, (mid[:, None] + 0.5 * dt * x).ravel()])
        w = np.concatenate([wj * (0.5 * dt) ** (a + 1.0) / t0**a, np.tile(0.5 * dt * w, len(mid))])
        base = 2.0 * w * f(t) * weight_delta(p, t)
        lam = 0.3 + 0.5j * p.rho
        xis = np.array([0.0, 0.9, 2.2, 1.3 + 0.4j * p.rho])
        fhat = np.sum(base * _phi_rows(p, np.concatenate([[lam], xis]), t), axis=-1)
        want = (fhat[0] - fhat[1:]) / (xis**2 - lam**2)
        op = TLambdaOperator(p, f, lam)
        got = t_lambda_hat(p, op, lam, xis)
        bound = 2e-9 if p.alpha > 0 else 1e-9
        assert np.max(np.abs(got - want) / np.abs(want)) <= bound
        if p.alpha < 0:
            assert abs(op.fhat_lam - fhat[0]) <= 2e-10 * abs(fhat[0])

    @pytest.mark.parametrize("n_grid", [1001, 1000])
    def test_grid_weights_are_the_tail_rule(self, n_grid):
        # the Simpson weights in s that build the measure (T_lambda f) Delta dt
        # give fhat(lambda) as the cumulative rule does, for odd and even
        # n_grid; the lazily built tail splines leave op(t) bit-identical to
        # the eager tail-integral formula, and the pairing builds no spline
        p = JacobiParams(2.3, 0.7)
        f = gaussian_bump(4.0, 129, width=0.6, center=1.0)
        lam = 0.7 + 0.4j * p.rho
        op = TLambdaOperator(p, f, lam, n_grid=n_grid)
        s = np.linspace(0.0, 1.0, n_grid)
        ts = f.tmax * s * s
        dt_ds = 2.0 * f.tmax * s
        fv, delta = np.asarray(f(ts), dtype=complex), weight_delta(p, ts)
        g1 = fv * phi(p, lam, ts) * delta
        simpson = 2.0 * np.sum(resolvent._simpson_weights(n_grid) * g1 * dt_ds)
        assert abs(simpson - op.fhat_lam) <= 1e-14 * abs(op.fhat_lam)
        t_lambda_hat(p, op, lam, np.array([0.4, 1.1 + 0.2j]))
        assert "_tail1" not in vars(op) and "_tail2" not in vars(op)
        g2 = fv * delta
        g2[1:] *= b_lambda(p, lam, ts[1:])
        g2[0] = 0.0
        cum1 = 2.0 * cumulative_simpson(g1 * dt_ds, x=s, initial=0)
        cum2 = 2.0 * cumulative_simpson(g2 * dt_ds, x=s, initial=0)
        assert op.fhat_lam == complex(cum1[-1])
        tq = np.linspace(0.03, f.tmax - 0.2, 23)
        want = (b_lambda(p, lam, tq) * CubicSpline(ts, cum1[-1] - cum1)(tq)
                - phi(p, lam, tq) * CubicSpline(ts, cum2[-1] - cum2)(tq))
        assert np.array_equal(op(tq), want)

    def test_array_xi_matches_scalar_calls(self, setup):
        p, _, lam, op = setup
        xis = np.array([0.0, 0.7 + 0.1j, 1.9, 2.5 - 0.3j])
        got = t_lambda_hat(p, op, lam, xis)
        assert np.array_equal(got, [t_lambda_hat(p, op, lam, xi) for xi in xis])

    def test_stored_prefactor_gives_b_lambda(self, setup):
        # the operator forms i/(4 lam c(-lam)) once; times Phi it is b_lambda
        p, f, lam, op = setup
        ts = np.linspace(0.05, f.tmax - 0.5, 9)
        assert np.array_equal(op._b_pre * phi_second_kind(p, lam, ts), b_lambda(p, lam, ts))
        want = b_lambda(p, lam, ts) * op._tail1(ts) - phi(p, lam, ts) * op._tail2(ts)
        assert np.array_equal(op(ts), want)

    def test_operator_built_at_another_lambda_rejected(self):
        p = JacobiParams(0.5, -0.5)
        f = gaussian_bump(4.0, 129, width=0.6, center=1.0)
        op = TLambdaOperator(p, f, 0.5j)
        with pytest.raises(DomainError):
            t_lambda_hat(p, op, 0.3j, 1.0)

    def test_function_instead_of_operator_rejected(self):
        p = JacobiParams(0.5, -0.5)
        f = gaussian_bump(4.0, 129, width=0.6, center=1.0)
        with pytest.raises(DomainError):
            t_lambda_hat(p, f, 0.5j, 1.0)

    def test_requires_interior_lambda(self):
        p = JacobiParams(1.0, 0.0)
        f = gaussian_bump(6.0, 257)
        for lam in (1.0, 1.0 + 1j * (p.rho + 0.1)):
            with pytest.raises(DomainError):
                TLambdaOperator(p, f, lam)


def _count_points(monkeypatch, module, names, where):
    # the number of points each call of a module.name is handed (argument where)
    seen = []
    for name in names:
        def counted(*args, _orig=getattr(module, name), **kwargs):
            seen.append(np.size(args[where]))
            return _orig(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return seen


class TestRowStores:
    """The one-entry stores of lambda-only rows serve every consumer at one lambda."""

    P = JacobiParams(1.0, 0.0)
    LAM = 0.6 + 0.4j
    LAM_EXT = 0.7 + 1j * (P.rho + 0.8)

    def test_second_operator_evaluates_no_phi(self, monkeypatch):
        f = gaussian_bump(4.0, 129, width=0.6, center=1.0)
        resolvent._grid_rows.cache_clear()
        TLambdaOperator(self.P, f, self.LAM)
        calls = _count_points(monkeypatch, resolvent, ["phi", "phi_second_kind"], 2)
        op = TLambdaOperator(self.P, f, self.LAM)
        resolvent_transform(self.P, np.cos, f, self.LAM)
        assert calls == []
        op(np.array([0.5, 1.5]))  # the tail splines evaluate phi and Phi at t
        assert len(calls) == 2

    def test_operators_of_two_f_match_cold_builds(self):
        fs = [gaussian_bump(4.0, 129, width=0.6, center=1.0), gaussian_bump(4.0, 65, width=0.9)]
        tq = np.linspace(0.05, 3.8, 11)
        warm = [TLambdaOperator(self.P, f, self.LAM) for f in fs]
        for f, op in zip(fs, warm):
            resolvent._grid_rows.cache_clear()
            cold = TLambdaOperator(self.P, f, self.LAM)
            assert op.fhat_lam == cold.fhat_lam
            for a, b in zip(op._points(), cold._points()):
                assert np.array_equal(a, b)
            assert np.array_equal(op(tq), cold(tq))

    @pytest.mark.parametrize("b_hat_first", [True, False])
    def test_pairings_at_one_lambda_evaluate_b_once(self, monkeypatch, b_hat_first):
        p, lam, xi = self.P, self.LAM_EXT, 1.3
        calls = [lambda: b_hat(p, lam, xi), lambda: resolvent_transform(p, np.cos, None, lam)]
        want = []
        for call in calls:
            resolvent._b_rows.clear()
            want.append(call())
        resolvent._b_rows.clear()
        seen = _count_points(monkeypatch, resolvent, ["_second_kind_2f1"], 2)
        got = [call() for call in (calls if b_hat_first else calls[::-1])]
        longer = _grid_cutoff(decay_cutoff(lam.imag - p.rho))
        assert sum(seen) == singular_halfline_nodes(longer)[0].size
        assert got == (want if b_hat_first else want[::-1])

    def test_stored_rows_are_read_only(self):
        f = gaussian_bump(4.0, 129, width=0.6, center=1.0)
        TLambdaOperator(self.P, f, self.LAM)
        b_l1_norm(self.P, self.LAM_EXT)
        rows = resolvent._grid_rows(self.P, self.LAM, f.tmax, 1001)
        (nodes, b_rows), = resolvent._b_rows.values()
        for row in [r for r in rows if isinstance(r, np.ndarray)] + [nodes, b_rows]:
            with pytest.raises(ValueError):
                row[0] = 0.0
