"""Even grid functions, even measures, and their file formats."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline

from .core import weight_delta
from .errors import DomainError
from .quadrature import integrate

@dataclass
class GridFunction:
    """An even function represented by uniform samples on [0, tmax].

    Evaluated by the cubic spline through the samples (scipy's CubicSpline,
    not-a-knot).  Evaluation at t < 0 uses |t|; evaluation beyond tmax is a
    DomainError.
    ``valid_tmax`` is metadata carried by convolution outputs (the part of
    the grid certified under the domain-shrinking convention).
    """

    tmax: float
    values: np.ndarray
    valid_tmax: float | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.tmax <= 0:
            raise DomainError("GridFunction: tmax must be positive")
        if self.values.ndim != 1 or self.values.size < 16:
            raise DomainError("GridFunction: need >= 16 samples")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("GridFunction: samples must be finite")
        self._coef = None

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def ts(self) -> np.ndarray:
        return np.linspace(0.0, self.tmax, self.n)

    @property
    def dt(self) -> float:
        return self.tmax / (self.n - 1)

    def __call__(self, t):
        """Interpolate at t (scalar or array); a scalar gives a Python complex.

        The CubicSpline pieces are evaluated directly on the uniform grid:
        piece k = floor(t / dt), capped at n - 2, by Horner in u = t - k dt.
        NaN gives NaN.
        """
        t = np.abs(np.asarray(t, dtype=float))
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        slack = 1e-9 * self.tmax
        if np.any(t > self.tmax + slack):
            raise DomainError(
                f"GridFunction: evaluation at t={float(np.max(t))} beyond tmax={self.tmax}"
            )
        t = np.minimum(t, self.tmax)
        if self._coef is None:
            # piecewise coefficients, highest degree first: c0 u^3 + ... + c3
            self._coef = [np.ascontiguousarray(c)
                          for c in CubicSpline(self.ts, self.values).c]
        c0, c1, c2, c3 = self._coef
        dt = self.dt
        # fmin sends NaN to the last piece, where u and so the value stay NaN
        k = np.fmin(t / dt, self.n - 2).astype(np.intp)
        u = t - k * dt
        out = c0[k] * u
        for c in (c1, c2):
            out += c[k]
            out *= u
        out += c3[k]
        return complex(out[0]) if scalar else out

    # --- CSV format: header "t,re,im", uniform increasing t from 0 ---

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "re", "im"])
            for t, v in zip(self.ts, self.values):
                writer.writerow([f"{t:.17g}", f"{v.real:.17g}", f"{v.imag:.17g}"])

    @classmethod
    def from_csv(cls, path):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if [h.strip() for h in header] != ["t", "re", "im"]:
                raise DomainError(f"{path}: expected header 't,re,im'")
            rows = [(float(r[0]), float(r[1]), float(r[2])) for r in reader]
        ts = np.array([r[0] for r in rows])
        if ts.size < 16:
            raise DomainError(f"{path}: need >= 16 samples")
        if abs(ts[0]) > 1e-12:
            raise DomainError(f"{path}: t must start at 0")
        steps = np.diff(ts)
        if np.any(steps <= 0) or np.max(np.abs(steps - steps[0])) > 1e-9 * ts[-1]:
            raise DomainError(f"{path}: t must be strictly increasing and uniform")
        vals = np.array([r[1] + 1j * r[2] for r in rows])
        return cls(float(ts[-1]), vals)


def gaussian_bump(tmax, n=257, width=1.0, center=0.0):
    """Smooth even bump exp(-((t-center)/width)^2) + mirror term, on [0, tmax]."""
    ts = np.linspace(0.0, float(tmax), int(n))
    vals = np.exp(-(((ts - center) / width) ** 2)) + (
        np.exp(-(((ts + center) / width) ** 2)) if center else 0.0
    )
    if center:
        vals = 0.5 * vals
    return GridFunction(float(tmax), vals.astype(complex))


@dataclass
class EvenMeasure:
    """Even complex measure: atom at 0, symmetric atom pairs, optional density.

    An ``atoms`` entry (t_j, w_j) stands for w_j (delta_{t_j} + delta_{-t_j})/2,
    so the pair contributes w_j * phi(t_j) to the transform.  The density is
    a GridFunction d with reference measure d(s) ds ("lebesgue") or
    d(s) Delta(s) ds ("delta-weighted"), extended evenly.
    """

    atom0: complex = 0.0 + 0.0j
    atoms: list = field(default_factory=list)
    density: GridFunction | None = None
    density_measure: str = "lebesgue"

    def __post_init__(self):
        self.atom0 = complex(self.atom0)
        self.atoms = [(float(t), complex(w)) for t, w in self.atoms]
        ts = [t for t, _ in self.atoms]
        if any(t <= 0 for t in ts):
            raise DomainError("EvenMeasure: atom positions must be > 0")
        if len(set(ts)) != len(ts):
            raise DomainError("EvenMeasure: atom positions must be distinct")
        if self.density_measure not in ("lebesgue", "delta-weighted"):
            raise DomainError(
                f"EvenMeasure: unknown density measure {self.density_measure!r}"
            )

    @property
    def reach(self) -> float:
        """Largest |s| the measure can translate by."""
        r = max((t for t, _ in self.atoms), default=0.0)
        if self.density is not None:
            r = max(r, self.density.tmax)
        return r

    def total_mass(self, params=None):
        """atom0 + sum of pair weights + density integral over R."""
        mass = self.atom0 + sum(w for _, w in self.atoms)
        if self.density is not None:
            if self.density_measure == "delta-weighted":
                if params is None:
                    raise DomainError(
                        "total_mass: delta-weighted density needs JacobiParams"
                    )
                mass += 2.0 * integrate(
                    lambda t: self.density(t) * weight_delta(params, t),
                    0.0,
                    self.density.tmax,
                )
            else:
                mass += 2.0 * integrate(self.density, 0.0, self.density.tmax)
        return mass

    # --- JSON format ---

    def to_json(self, path, density_path=None):
        obj = {
            "atom0": [self.atom0.real, self.atom0.imag],
            "atoms": [[t, w.real, w.imag] for t, w in self.atoms],
            "density": None,
        }
        if self.density is not None:
            if density_path is None:
                raise DomainError("to_json: density present but no density_path given")
            self.density.to_csv(density_path)
            obj["density"] = {
                "file": str(density_path),
                "measure": self.density_measure,
            }
        Path(path).write_text(json.dumps(obj, indent=2))

    @classmethod
    def from_json(cls, path):
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise DomainError(f"EvenMeasure.from_json: {exc}") from exc
        obj = json.loads(text)
        atom0 = obj.get("atom0", 0.0)
        if isinstance(atom0, (list, tuple)):
            atom0 = complex(atom0[0], atom0[1])
        atoms = [(row[0], complex(row[1], row[2] if len(row) > 2 else 0.0))
                 for row in obj.get("atoms", [])]
        density = None
        measure = "lebesgue"
        dens = obj.get("density")
        if dens:
            base = Path(path).parent
            fname = Path(dens["file"]) if isinstance(dens, dict) else Path(dens)
            if not fname.is_absolute():
                fname = base / fname
            density = GridFunction.from_csv(fname)
            if isinstance(dens, dict):
                measure = dens.get("measure", "lebesgue")
        return cls(atom0, atoms, density, measure)
