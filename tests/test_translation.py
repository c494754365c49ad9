"""Generalized translation, convolution, and the product formula."""

import numpy as np
import pytest

from fourierjacobi import translation
from fourierjacobi import (
    DomainError,
    EvenMeasure,
    GridFunction,
    JacobiParams,
    convolve,
    convolve_measure,
    forward_transform,
    forward_transform_measure,
    gaussian_bump,
    kernel_mass,
    l1_norm,
    l10_defect,
    phi,
    translate,
)
from oracles import translate_batch_complex

REGIMES = [
    JacobiParams(2.3, 0.7),   # alpha > beta > -1/2
    JacobiParams(1.2, 1.2),   # alpha = beta
    JacobiParams(1.5, -0.5),  # beta = -1/2
]


# generic, alpha = beta and beta = -1/2 kernels, down to alpha < 0
MOMENT_REGIMES = REGIMES + [JacobiParams(a, b) for a, b in [
    (3.0, -0.5), (1.0, 0.0), (0.5, -0.5), (0.3, 0.3), (2.0, 1.0), (-0.25, -0.5), (0.0, -0.5)]]


@pytest.mark.parametrize("params", MOMENT_REGIMES, ids=lambda p: f"{p.alpha},{p.beta}")
def test_kernel_mass_is_one(params):
    # dm is the law of u = r^2 ~ Beta(beta+1, alpha-beta) times that of
    # v = cos psi ~ Beta(beta+1/2, beta+1/2) on [-1, 1]; check its moments
    a, b = params.alpha, params.beta
    r, cos_psi, _, w = translation._kernel_nodes(a, b)
    u, v2 = r**2, cos_psi**2
    e_u, e_v2 = (b + 1.0) / (a + 1.0), 1.0 / (2.0 * b + 2.0)
    moments = [
        (kernel_mass(params), 1.0),
        (np.sum(w * u), e_u),
        (np.sum(w * u * u), e_u * (b + 2.0) / (a + 2.0)),
        (np.sum(w * cos_psi), 0.0),
        (np.sum(w * v2), e_v2),
        (np.sum(w * u * v2), e_u * e_v2),
    ]
    for got, want in moments:
        assert abs(got - want) <= 1e-13


@pytest.mark.parametrize("params", REGIMES, ids=lambda p: f"{p.alpha},{p.beta}")
def test_product_formula(params):
    # tau_s phi_lam(t) = phi_lam(s) phi_lam(t)
    lam = 0.9 + 0.3j
    for s, t in [(0.4, 0.9), (1.2, 0.3), (2.0, 1.7)]:
        got = translate(params, lambda u: phi(params, lam, u), s, t,
                        n_r=48, n_psi=48)
        want = complex(phi(params, lam, s) * phi(params, lam, t))
        assert got == pytest.approx(want, abs=2e-6)


def test_translate_at_zero_is_identity(standard_params):
    f = gaussian_bump(6.0, 513, width=0.8)
    for t in (0.3, 1.1, 2.4):
        assert translate(standard_params, f, 0.0, t) == pytest.approx(
            complex(f(t)), abs=1e-10
        )


def test_translate_symmetric_in_s_t(standard_params):
    f = gaussian_bump(6.0, 513, width=0.8)
    a = translate(standard_params, f, 0.7, 1.4)
    b = translate(standard_params, f, 1.4, 0.7)
    assert a == pytest.approx(b, rel=1e-8)


def test_translate_domain_guard(standard_params):
    f = gaussian_bump(3.0, 129)
    with pytest.raises(DomainError):
        translate(standard_params, f, 2.0, 1.5)


class TestBatchedKernel:
    @pytest.mark.parametrize("params", REGIMES, ids=lambda p: f"{p.alpha},{p.beta}")
    @pytest.mark.parametrize("kind", ["grid", "callable"])
    def test_matches_scalar_translate(self, params, kind, monkeypatch):
        # chunks of 2.5 kernels split the 30 (s, t) pairs unevenly
        nodes = translation._kernel_nodes(params.alpha, params.beta)[3].size
        monkeypatch.setattr(translation, "_CHUNK", int(2.5 * nodes))
        if kind == "grid":
            f = gaussian_bump(4.0, 129, width=0.9, center=0.5)
        else:
            def f(u):
                return np.exp(-u**2) * (1.0 + 0.3j * np.cos(u))
        s = np.linspace(0.0, 2.5, 6)
        t = np.linspace(0.0, 1.5, 5)  # s + t reaches tmax = 4 at the corner
        tau = translation._translate_batch(params, f, s, t)
        assert tau.shape == (s.size, t.size)
        r, cos_psi, sin_psi, w = translation._kernel_nodes(params.alpha, params.beta)
        for i, si in enumerate(s):
            for j, tj in enumerate(t):
                # the per-pair kernel sum, written out as the reference
                a, b = np.cosh(si) * np.cosh(tj), np.sinh(si) * np.sinh(tj)
                modulus = np.hypot(a + r * cos_psi * b, r * sin_psi * b)
                want = np.sum(w * f(np.arccosh(np.maximum(modulus, 1.0))))
                assert abs(tau[i, j] - want) <= 1e-13 * abs(want)
                assert abs(translate(params, f, si, tj) - want) <= 1e-13 * abs(want)


# the four regimes of the convolution-iteration benchmark
BENCH_REGIMES = [JacobiParams(2.3, 0.7), JacobiParams(1.2, 1.2), JacobiParams(3.0, -0.5),
                 JacobiParams(1.0, 0.0)]


class TestConvolve:
    def test_convolution_theorem(self, standard_params):
        p = standard_params
        f = gaussian_bump(8.0, 513, width=1.0)
        g = gaussian_bump(2.0, 129, width=0.5)
        fg = convolve(p, f, g, n_r=48, n_psi=48)
        for lam in (0.5, 1.5):
            lhs = forward_transform(p, fg, lam)
            rhs = forward_transform(p, f, lam) * forward_transform(p, g, lam)
            assert lhs == pytest.approx(rhs, rel=2e-4)

    @pytest.mark.parametrize("params", BENCH_REGIMES, ids=lambda p: f"{p.alpha},{p.beta}")
    def test_is_the_delta_weighted_measure_path(self, params):
        f = gaussian_bump(4.0, 65, width=0.6)
        g = gaussian_bump(0.75, 25, width=0.3)
        mu = EvenMeasure(density=g, density_measure="delta-weighted")
        assert np.array_equal(convolve(params, f, g).values,
                              convolve_measure(params, f, mu).values)

    def test_domain_shrinks(self, standard_params):
        f = gaussian_bump(8.0, 17)
        g = gaussian_bump(2.0, 129)
        out = convolve(standard_params, f, g)
        assert out.tmax == pytest.approx(6.0)
        assert out.n == 16

    def test_exhausted_domain_rejected(self, standard_params):
        f = gaussian_bump(2.0, 129)
        g = gaussian_bump(3.0, 129)
        with pytest.raises(DomainError):
            convolve(standard_params, f, g)


class TestConvolveMeasure:
    def test_atom_at_zero_identity(self, standard_params):
        f = gaussian_bump(5.0, 257, width=0.9)
        out = convolve_measure(standard_params, f, EvenMeasure(atom0=1.0))
        ts = np.array([0.0, 0.8, 2.2, 4.0])
        assert np.max(np.abs(out(ts) - f(ts))) < 1e-10

    def test_pair_atom_matches_translate(self, standard_params):
        f = gaussian_bump(5.0, 257, width=0.9)
        mu = EvenMeasure(atoms=[(1.0, 1.0)])
        out = convolve_measure(standard_params, f, mu)
        for t in (0.3, 1.7, 3.5):
            assert out(t) == pytest.approx(
                translate(standard_params, f, 1.0, t), rel=1e-6
            )

    def test_spectral_multiplier(self, standard_params):
        # (f * mu)^ = fhat * muhat for an atomic measure
        p = standard_params
        f = gaussian_bump(7.0, 513, width=1.0)
        mu = EvenMeasure(atom0=0.3, atoms=[(1.2, 0.7)])
        out = convolve_measure(p, f, mu)
        for lam in (0.6, 1.8):
            want = forward_transform(p, f, lam) * (
                0.3 + 0.7 * complex(phi(p, lam, 1.2))
            )
            assert forward_transform(p, out, lam) == pytest.approx(want, rel=2e-4)

    @pytest.mark.parametrize("measure", ["lebesgue", "delta-weighted"])
    def test_density_multiplier(self, standard_params, measure):
        # (f * mu)^ = fhat * muhat for a measure with atoms and a density
        p = standard_params
        f = gaussian_bump(5.0, 257, width=0.9)
        density = gaussian_bump(0.8, 33, width=0.4)
        mu = EvenMeasure(atom0=0.2, atoms=[(0.5, 0.3)], density=density,
                         density_measure=measure)
        out = convolve_measure(p, f, mu)
        for lam in (0.6, 1.8):
            want = forward_transform(p, f, lam) * forward_transform_measure(p, mu, lam)
            assert forward_transform(p, out, lam) == pytest.approx(want, rel=2e-4)

    def test_reach_exhausts_domain(self, standard_params):
        f = gaussian_bump(2.0, 129)
        with pytest.raises(DomainError):
            convolve_measure(standard_params, f, EvenMeasure(atoms=[(2.5, 1.0)]))


class TestRealArithmetic:
    @pytest.mark.parametrize("params", BENCH_REGIMES, ids=lambda p: f"{p.alpha},{p.beta}")
    def test_real_f_matches_complex_reduction(self, params, monkeypatch):
        # a real f is translated in real arithmetic; only the grouping of the
        # pairwise kernel sums differs from the all-complex route
        f = gaussian_bump(4.0, 65, width=0.6)
        g = gaussian_bump(0.75, 25, width=0.3)
        mu = EvenMeasure(atom0=0.5, atoms=[(0.2, 0.3), (0.45, 0.2)],
                         density=GridFunction(0.3, np.linspace(1.0, 0.2, 17)))
        assert translation._translate_batch(params, f, [0.4], [1.3]).dtype == np.float64

        def outputs():
            return [translate(params, f, 0.4, 1.3),
                    convolve(params, f, g, s_segments=1).values,
                    convolve_measure(params, f, mu).values]

        got = outputs()
        monkeypatch.setattr(translation, "_translate_batch", translate_batch_complex)
        for a, b in zip(got, outputs()):
            assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b))

    def test_complex_multiple_of_real_f(self):
        p = JacobiParams(2.3, 0.7)
        f = gaussian_bump(4.0, 65, width=0.6)
        fc = GridFunction(f.tmax, (1.0 + 0.5j) * f.values)
        s, t = np.linspace(0.0, 2.0, 7), np.linspace(0.0, 1.9, 11)
        real = translation._translate_batch(p, f, s, t)
        both = translation._translate_batch(p, fc, s, t)
        assert real.dtype == np.float64 and both.dtype == np.complex128
        assert np.max(np.abs(both - (1.0 + 0.5j) * real)) <= 1e-15 * np.max(np.abs(both))


class TestNorms:
    def test_l1_norm_positive_bump(self, standard_params):
        p = standard_params
        f = gaussian_bump(8.0, 513, width=1.0)
        # for f >= 0 the weighted L1 norm equals the integral of f Delta
        assert l1_norm(p, f) == pytest.approx(l10_defect(p, f).real, rel=1e-10)

    def test_l10_defect_is_fhat_at_i_rho(self, standard_params):
        p = standard_params
        f = gaussian_bump(8.0, 513, width=1.0)
        assert l10_defect(p, f) == forward_transform(p, f, 1j * p.rho)

    def test_requires_support_bound(self, standard_params):
        with pytest.raises(DomainError):
            l1_norm(standard_params, np.exp)
