"""Convolution fixed points: iteration, flattening, and spectral checks."""

import json

import numpy as np
import pytest

from fourierjacobi import (
    DomainError,
    EvenMeasure,
    GridFunction,
    JacobiParams,
    StripScanGrid,
    check_mu_conditions,
    harmonic_step,
    iterate_and_report,
    phi,
)


@pytest.fixture(scope="module")
def params():
    return JacobiParams(1.0, 0.0)


@pytest.fixture(scope="module")
def pair_measure():
    return EvenMeasure(atoms=[(1.0, 1.0)])


def phi_grid(params, lam, tmax=8.0, n=1025):
    ts = np.linspace(0.0, tmax, n)
    return GridFunction(tmax, np.asarray(phi(params, lam, ts), dtype=complex))


class TestHarmonicStep:
    def test_atom_at_zero_is_identity(self, params):
        f = phi_grid(params, 0.9)
        out = harmonic_step(params, f, EvenMeasure(atom0=1.0))
        ts = np.array([0.0, 1.1, 4.0])
        assert np.max(np.abs(out(ts) - f(ts))) < 1e-12

    def test_phi_is_eigenfunction(self, params, pair_measure):
        # (phi_lam * mu)(t) = muhat(lam) phi_lam(t) with muhat = phi_lam(1)
        lam = 2.0
        f = phi_grid(params, lam)
        out = harmonic_step(params, f, pair_measure)
        mult = complex(phi(params, lam, 1.0))
        ts = np.array([0.3, 1.5, 3.0, 5.5])
        assert np.max(np.abs(out(ts) - mult * f(ts))) < 1e-7

    def test_reach_exhaustion_rejected(self, params, pair_measure):
        f = phi_grid(params, 1.0, tmax=0.8, n=33)
        with pytest.raises(DomainError):
            harmonic_step(params, f, pair_measure)


class TestIterateAndReport:
    def test_eigenfunction_decay_matches_prediction(self, params, pair_measure):
        lam = 2.0
        f = phi_grid(params, lam)
        rep = iterate_and_report(params, f, pair_measure, n=4, probes=[lam])
        mult = abs(complex(phi(params, lam, 1.0)))
        flats = [s["flatness"] for s in rep.steps]
        ratios = [b / a for a, b in zip(flats, flats[1:])]
        # phi_lam * mu^(*k) = muhat^k phi_lam, so flatness contracts by |muhat|
        for r in ratios:
            assert r == pytest.approx(mult, rel=2e-2)
        assert rep.probes[0]["decay_seq"][1] == pytest.approx(mult, rel=1e-10)
        assert not rep.flatness_nondecreasing

    def test_domain_shrinks_by_reach(self, params, pair_measure):
        f = phi_grid(params, 1.0)
        rep = iterate_and_report(params, f, pair_measure, n=3)
        tmaxes = [s["valid_tmax"] for s in rep.steps]
        assert np.allclose(np.diff(tmaxes), -pair_measure.reach)

    def test_signed_measure_can_inflate(self, params):
        # mu = 2 delta_0 - pair(1): muhat(lam) = 2 - phi_lam(1), |muhat| > 1
        mu = EvenMeasure(atom0=2.0, atoms=[(1.0, -1.0)])
        f = phi_grid(params, 2.0)
        rep = iterate_and_report(params, f, mu, n=3, probes=[2.0])
        assert abs(complex(*rep.probes[0]["muhat"])) > 1.0
        assert rep.flatness_nondecreasing

    def test_too_many_steps_rejected(self, params, pair_measure):
        f = phi_grid(params, 1.0, tmax=2.5, n=129)
        with pytest.raises(DomainError):
            iterate_and_report(params, f, pair_measure, n=3)

    def test_report_json_deterministic(self, params, pair_measure):
        f = phi_grid(params, 1.5, tmax=4.0, n=257)
        a = iterate_and_report(params, f, pair_measure, n=2, probes=[1.5])
        b = iterate_and_report(params, f, pair_measure, n=2, probes=[1.5])
        assert a.to_json() == b.to_json()
        json.loads(a.to_json())


REGIMES = [
    JacobiParams(2.3, 0.7),   # alpha > beta > -1/2
    JacobiParams(1.2, 1.2),   # alpha = beta
    JacobiParams(1.5, -0.5),  # beta = -1/2
]


class TestConstantsAreFixedPoints:
    # every output point reduces identical kernel values in the same order,
    # so a constant stays exactly constant, not just to rounding
    @pytest.mark.parametrize("params", REGIMES, ids=lambda p: f"{p.alpha},{p.beta}")
    @pytest.mark.parametrize("kind", ["pair", "density"])
    def test_flatness_exactly_zero(self, params, kind):
        if kind == "pair":
            # many output t per kernel chunk, where a BLAS row reduction is not exact
            f = GridFunction(4.0, np.full(1025, 2.5 + 0j))
            mu = EvenMeasure(atoms=[(1.0, 1.0)])
        else:
            f = GridFunction(4.0, np.full(65, 2.5 + 0j))
            mu = EvenMeasure(atom0=0.2, atoms=[(0.3, 0.5), (0.6, 0.3)],
                             density=GridFunction(0.3, np.linspace(1.0, 0.2, 17)))
        step = harmonic_step(params, f, mu)
        assert np.ptp(step.values.real) == 0.0
        assert np.ptp(step.values.imag) == 0.0
        rep = iterate_and_report(params, f, mu, 3)
        assert [s["flatness"] for s in rep.steps] == [0.0, 0.0, 0.0, 0.0]
        assert rep.flatness_nondecreasing


class TestMuConditions:
    def test_probability_pair_measure(self, params, pair_measure):
        grid = StripScanGrid(re_max=3.0, re_n=9, im_margin=0.05, im_n=5)
        rep = check_mu_conditions(params, pair_measure, grid)
        assert rep["mass"] == pytest.approx(1.0)
        assert not rep["atom0_is_total"]
        assert rep["min_offcenter_abs_muhat_minus_1"] > 0.01
        # muhat -> 1 approaching i rho, so the flagged cells sit there
        assert rep["irho_cells"]
        # boundary indicator (rho - x) log|1 - muhat(ix)| tends to 0
        assert abs(rep["boundary_estimate"]) < 0.05

    def test_pure_atom_at_zero_flagged(self, params):
        grid = StripScanGrid(re_max=2.0, re_n=5, im_margin=0.05, im_n=3)
        rep = check_mu_conditions(params, EvenMeasure(atom0=1.0), grid)
        assert rep["atom0_is_total"]
        # muhat == 1 everywhere: the off-center minimum collapses to 0
        assert rep["min_offcenter_abs_muhat_minus_1"] == pytest.approx(0.0, abs=1e-12)
