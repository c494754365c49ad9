"""Grid functions, even measures, and their file formats."""

import cmath
import warnings

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from fourierjacobi import (
    DomainError,
    EvenMeasure,
    GridFunction,
    JacobiParams,
    gaussian_bump,
)
from oracles import complex_horner, complex_spline_coefficients

# real, purely imaginary and mixed samples on a 41-point grid of [0, 3]
_TS = np.linspace(0.0, 3.0, 41)
SAMPLES = {
    "real": 1.0 + 0.5 * np.cos(_TS),
    "imaginary": 1j * (2.0 + np.sin(3.0 * _TS)),
    "mixed": (1.0 + 0.5 * np.cos(_TS)) + 1j * (2.0 + np.sin(3.0 * _TS)),
}


class TestGridFunction:
    def test_even_evaluation(self):
        f = gaussian_bump(4.0, 129, width=0.7, center=1.0)
        assert f(-1.3) == pytest.approx(f(1.3))

    def test_beyond_tmax_rejected(self):
        f = gaussian_bump(4.0, 129)
        with pytest.raises(DomainError):
            f(4.5)

    def test_cubic_matches_scipy_spline(self):
        # Horner on the uniform grid against scipy's own CubicSpline
        tmax, n = 3.0, 41
        ts = np.linspace(0.0, tmax, n)
        vals = (1.0 + 0.5 * np.cos(ts)) + 1j * (2.0 + np.sin(3.0 * ts))
        f = GridFunction(tmax, vals)
        spline = CubicSpline(ts, vals)
        rng = np.random.default_rng(5)
        t = np.concatenate([
            [0.0, tmax, tmax * (1.0 + 0.5e-9), -0.7, -tmax],
            ts, -ts[::3], rng.uniform(0.0, tmax, 500),
        ])
        want = spline(np.minimum(np.abs(t), tmax))
        assert np.max(np.abs(f(t) - want) / np.abs(want)) <= 1e-14
        assert np.max(np.abs(f(ts) - vals)) <= 1e-12  # the nodes keep their samples
        got = f(1.234)
        assert type(got) is complex
        assert abs(got - spline(1.234)) <= 1e-14 * abs(got)

    def test_nan_gives_nan(self):
        f = gaussian_bump(4.0, 129)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cmath.isnan(f(np.nan))
            t = np.array([0.5, np.nan, 3.9, np.nan])
            out = f(t)
        assert np.isnan(out[[1, 3]]).all()
        assert np.array_equal(out[[0, 2]], f(t[[0, 2]]))

    @pytest.mark.parametrize("kind", SAMPLES)
    def test_planes_match_complex_horner(self, kind):
        # each plane's real Horner rounds as the complex-coefficient Horner
        # rounds that plane, so the two agree bit for bit
        f = GridFunction(3.0, SAMPLES[kind])
        t = np.concatenate([[0.0, 3.0, -1.1], _TS, np.random.default_rng(3).uniform(-3.0, 3.0, 300)])
        got = f(t)
        want = complex_horner(f, complex_spline_coefficients(f), t)
        assert np.array_equal(np.real(got), want.real)
        assert np.array_equal(np.imag(got), want.imag)
        # the complex-arithmetic fit differs from the per-plane one by rounding
        spline = CubicSpline(f.ts, f.values)
        assert np.max(np.abs(got - spline(np.abs(t)))) <= 1e-15 * np.max(np.abs(f.values))

    @pytest.mark.parametrize("kind, dtype", [("real", np.float64), ("imaginary", np.complex128),
                                             ("mixed", np.complex128)])
    def test_output_dtype(self, kind, dtype):
        f = GridFunction(3.0, SAMPLES[kind])
        assert f(_TS).dtype == dtype
        grid = _TS[:40].reshape(5, 8)[:, ::3]  # a strided 2-d argument keeps its shape
        assert np.array_equal(f(grid), f(grid.ravel()).reshape(5, 3))
        assert type(f(1.2)) is complex
        assert type(f(np.float64(1.2))) is complex
        assert cmath.isnan(f(np.nan))
        out = f(np.array([np.nan, 0.5]))
        assert np.isnan(out[0]) and not np.isnan(out[1])

    def test_complex_argument_rejected(self):
        # a complex t would lose its imaginary part in the float conversion
        f = gaussian_bump(4.0, 129)
        for t in (0.5 + 0.1j, 1.0 + 0.0j, np.complex128(0.5), np.array([0.5, 1.0 + 0.2j]),
                  np.array([0.5, 1.0], dtype=complex)):
            with pytest.raises(DomainError):
                f(t)

    def test_too_few_samples_rejected(self):
        with pytest.raises(DomainError):
            GridFunction(1.0, np.ones(8))

    def test_nonfinite_rejected(self):
        vals = np.ones(32)
        vals[3] = np.nan
        with pytest.raises(DomainError):
            GridFunction(1.0, vals)

    def test_csv_roundtrip(self, tmp_path):
        f = gaussian_bump(5.0, 65, width=1.2)
        path = tmp_path / "f.csv"
        f.to_csv(path)
        g = GridFunction.from_csv(path)
        assert g.tmax == f.tmax
        assert np.allclose(g.values, f.values)

    def test_csv_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,z\n0,1,0\n")
        with pytest.raises(DomainError):
            GridFunction.from_csv(path)

    def test_csv_nonuniform_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["t,re,im"] + [f"{t},1,0" for t in np.linspace(0, 1, 20) ** 2]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DomainError):
            GridFunction.from_csv(path)


class TestEvenMeasure:
    def test_reach(self):
        mu = EvenMeasure(atoms=[(1.0, 0.5), (2.5, 0.5)])
        assert mu.reach == 2.5
        assert EvenMeasure(atom0=1.0).reach == 0.0

    def test_atom_validation(self):
        with pytest.raises(DomainError):
            EvenMeasure(atoms=[(-1.0, 1.0)])
        with pytest.raises(DomainError):
            EvenMeasure(atoms=[(1.0, 0.5), (1.0, 0.5)])

    def test_total_mass_atoms(self):
        mu = EvenMeasure(atom0=0.25, atoms=[(1.0, 0.75)])
        assert complex(mu.total_mass()) == pytest.approx(1.0)

    def test_total_mass_with_density(self):
        dens = GridFunction(2.0, np.full(33, 0.25))
        mu = EvenMeasure(density=dens)  # 2 * 0.25 * 2 = 1
        assert complex(mu.total_mass(JacobiParams(0.5, -0.5))) == pytest.approx(1.0)
        with pytest.raises(DomainError):  # Delta needs the parameters
            EvenMeasure(density=dens, density_measure="delta-weighted").total_mass()

    def test_json_roundtrip(self, tmp_path):
        dens = gaussian_bump(1.5, 33, width=0.5)
        mu = EvenMeasure(atom0=0.1, atoms=[(1.0, 0.4)], density=dens,
                         density_measure="delta-weighted")
        path = tmp_path / "mu.json"
        mu.to_json(path, tmp_path / "dens.csv")
        back = EvenMeasure.from_json(path)
        assert back.atom0 == mu.atom0
        assert back.atoms == mu.atoms
        assert back.density_measure == "delta-weighted"
        assert np.allclose(back.density.values, dens.values)

    def test_density_without_sidecar_rejected(self, tmp_path):
        mu = EvenMeasure(density=gaussian_bump(1.0, 33))
        with pytest.raises(DomainError):
            mu.to_json(tmp_path / "mu.json")
