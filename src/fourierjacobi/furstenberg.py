"""Fixed points of convolution by an even probability measure.

Bounded even solutions of f * mu = f are constants when mu satisfies the
spectral conditions (mass 1, mu({0}) != 1, muhat != 1 off +-i rho); this
module iterates the convolution at desk scale and reports the flattening
of the iterates together with the spectral decay that drives it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import JacobiParams
from .errors import DomainError
from .grid import EvenMeasure, GridFunction
from .tauberian import _IRHO_RADIUS, StripScanGrid
from .transform import forward_transform_measure
from .translation import convolve_measure


def harmonic_step(params: JacobiParams, f: GridFunction,
                  mu: EvenMeasure) -> GridFunction:
    """One convolution step f -> f * mu on the shrunken certified domain.

    Raises DomainError (from ``convolve_measure``) when the measure's reach
    exhausts the domain of f.
    """
    return convolve_measure(params, f, mu)


def _flatness(values) -> float:
    """Spread of the value set: ptp of real and imaginary parts combined."""
    v = np.asarray(values, dtype=complex)
    return float(np.hypot(np.ptp(v.real), np.ptp(v.imag)))


@dataclass
class HarmonicIterationReport:
    """Per-step domain/flatness data plus spectral-decay probes."""

    n: int
    steps: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    flatness_nondecreasing: bool = False

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "steps": self.steps,
                "probes": self.probes,
                "flatness_nondecreasing": self.flatness_nondecreasing,
            },
            sort_keys=True,
        )


def iterate_and_report(params: JacobiParams, f: GridFunction, mu: EvenMeasure,
                       n: int, probes=()) -> HarmonicIterationReport:
    """Iterate f -> f * mu for n steps and report flatness per step.

    probes are real spectral points lambda; for each the report carries
    muhat(lambda) and the predicted decay |muhat(lambda)|^k, k = 0..n.
    Requires n * reach < f.tmax so every step retains a valid domain.
    """
    if n < 1:
        raise DomainError("iterate_and_report: need n >= 1")
    if n * mu.reach >= f.tmax:
        raise DomainError(
            f"iterate_and_report: {n} steps of reach {mu.reach} exhaust "
            f"tmax={f.tmax}"
        )
    report = HarmonicIterationReport(n=n)
    flats = [_flatness(f.values)]
    report.steps.append({"step": 0, "valid_tmax": f.tmax, "flatness": flats[0]})
    cur = f
    for k in range(1, n + 1):
        cur = harmonic_step(params, cur, mu)
        flats.append(_flatness(cur.values))
        report.steps.append(
            {"step": k, "valid_tmax": cur.tmax, "flatness": flats[-1]}
        )
    probes = np.asarray(probes, dtype=complex)
    for lam, mh in zip(probes, forward_transform_measure(params, mu, probes)):
        mh = complex(mh)
        report.probes.append(
            {
                "lambda": float(lam.real),
                "muhat": [mh.real, mh.imag],
                "decay_seq": [abs(mh) ** k for k in range(n + 1)],
            }
        )
    report.flatness_nondecreasing = all(
        b >= a * (1.0 - 1e-12) for a, b in zip(flats, flats[1:])
    )
    return report


def check_mu_conditions(params: JacobiParams, mu: EvenMeasure,
                        grid: StripScanGrid, x_sequence=None):
    """Report on the spectral hypotheses of the fixed-point theorem.

    Checks mass, the atom at 0, the minimum of |muhat - 1| over the scan
    grid away from +-i rho (where muhat = mass makes muhat - 1 vanish for
    probability measures), and the boundary indicator sequence
    (rho - x) log|1 - muhat(ix)|.
    """
    mass = mu.total_mass(params)
    pts = np.array(grid.points(params))
    dist = np.abs(forward_transform_measure(params, mu, pts) - 1.0)
    near = np.minimum(np.abs(pts - 1j * params.rho), np.abs(pts + 1j * params.rho)) <= _IRHO_RADIUS
    flagged = [{"re": float(lam.real), "im": float(lam.imag), "abs_muhat_minus_1": float(v)}
               for lam, v in zip(pts[near], dist[near])]
    offcenter = dist[~near]
    if x_sequence is None:
        ks = np.arange(1, 21)
        x_sequence = params.rho * (1.0 - 0.5**ks)
    xs = np.asarray(x_sequence, dtype=float)
    mh = forward_transform_measure(params, mu, 1j * xs)
    with np.errstate(divide="ignore"):
        seq = ((params.rho - xs) * np.log(np.abs(1.0 - mh))).tolist()
    return {
        "mass": complex(mass).real if abs(complex(mass).imag) < 1e-12 else complex(mass),
        "atom0": mu.atom0,
        "atom0_is_total": abs(complex(mu.atom0) - complex(mass)) < 1e-12,
        "min_offcenter_abs_muhat_minus_1": float(offcenter.min()) if offcenter.size else None,
        "irho_cells": flagged,
        "boundary_xs": xs.tolist(),
        "boundary_sequence": seq,
        "boundary_estimate": seq[-1] if seq else None,
    }
