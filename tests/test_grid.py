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
