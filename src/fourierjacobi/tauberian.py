"""Decay indicators, strip zero scanning, the two-branch resolvent
transform, and a least-squares density demonstration for span{b_lambda}.

The limsup-type indicators are finite-horizon surrogates: windowed maxima
over the tail of the sampled range.  They are exact on synthetic families
where the expression under the limsup is eventually constant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import JacobiParams, _on_array, strip_region, weight_delta
from .errors import DomainError, PrecisionError
from .quadrature import TAIL_CUTOFF, decay_cutoff, singular_halfline_nodes
from .resolvent import TLambdaOperator, _pair, _require_exterior, b_lambda

_IRHO_RADIUS = 0.25  # zeros this close to +-i rho are the expected ones (mean-zero f, mass-1 mu)
_COND_LIMIT = 1e12  # span_density_demo solves Gram systems past this by truncated SVD


def delta_inf_plus(t_grid, abs_f, rho):
    """Decay-at-infinity indicator: -limsup e^(-pi t/(2 rho)) log|F(t)|.

    Finite-horizon surrogate: the limsup is replaced by the max over the
    window [T/2, T] where T is the last sampled t.  Returns (estimate,
    (window_lo, window_hi)).  Zeros of F are allowed (log 0 = -inf simply
    never attains the max).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    abs_f = np.asarray(abs_f, dtype=float)
    if t_grid.ndim != 1 or t_grid.size != abs_f.size:
        raise DomainError("delta_inf_plus: t-grid and samples must align")
    if np.any(np.diff(t_grid) <= 0):
        raise DomainError("delta_inf_plus: t-grid must strictly increase")
    horizon = t_grid[-1]
    window = t_grid >= 0.5 * horizon
    if not np.any(window):
        raise DomainError("delta_inf_plus: empty tail window")
    with np.errstate(divide="ignore"):
        logs = np.log(np.maximum(abs_f[window], 0.0))
    expr = np.exp(-np.pi * t_grid[window] / (2.0 * rho)) * logs
    est = -float(np.max(expr[np.isfinite(expr)])) if np.any(np.isfinite(expr)) else np.inf
    return est, (float(0.5 * horizon), float(horizon))


def delta_irho(F, rho, x0=None, n_steps=20):
    """Boundary indicator: limsup_{x -> rho-} (rho - x) log|F(ix)|.

    F is a callable on complex lambda, probed on the geometric sequence
    x_k = rho - 2^-k (rho - x0) in one call on the whole sequence (point by
    point when F accepts only scalars); the limsup surrogate is the max over
    the last 5 points.
    """
    if x0 is None:
        x0 = 0.5 * rho
    if not (0 <= x0 < rho):
        raise DomainError("delta_irho: need 0 <= x0 < rho")
    ks = np.arange(1, n_steps + 1)
    xs = rho - 0.5**ks * (rho - x0)
    with np.errstate(divide="ignore"):
        vals = (rho - xs) * np.log(np.abs(_on_array(F, 1j * xs)))
    return float(np.max(vals[-5:])), xs, vals


@dataclass(frozen=True)
class StripScanGrid:
    """Rectangular scan grid on the strip plus rails at Im lambda = +-rho."""

    re_max: float
    re_n: int
    im_margin: float
    im_n: int

    def __post_init__(self):
        if self.re_max <= 0 or self.re_n < 2 or self.im_n < 1:
            raise DomainError("StripScanGrid: need re_max > 0, re_n >= 2, im_n >= 1")
        if self.im_margin < 0:
            raise DomainError("StripScanGrid: im_margin must be >= 0")

    def points(self, params: JacobiParams):
        if self.im_margin >= params.rho:
            raise DomainError("StripScanGrid: im_margin must be < rho")
        res = np.linspace(-self.re_max, self.re_max, self.re_n)
        im_top = params.rho - self.im_margin
        ims = np.linspace(-im_top, im_top, self.im_n)
        pts = [complex(r, i) for r in res for i in ims]
        pts += [complex(r, s * params.rho) for r in res for s in (-1.0, 1.0)]
        return pts


def _below(transforms, cells, threshold):
    """The cells (center, half_re, half_im) whose family score is below threshold, with it."""
    if not cells:
        return []
    # a COMMON zero requires every member to vanish, so the screening
    # value is the worst (largest) |fhat| over the family; each member is
    # called once on all the centers
    lams = np.array([c for c, _, _ in cells], dtype=complex)
    scores = np.max([np.abs(_on_array(f, lams)) for f in transforms], axis=0)
    return [(c, hre, him, float(v)) for (c, hre, him), v in zip(cells, scores) if v < threshold]


def scan_common_zeros(params: JacobiParams, transforms, grid: StripScanGrid, threshold):
    """Locate candidate common zeros of a transform family on the strip.

    Cells whose center value max_nu |fhat_nu| falls below the threshold are
    refined by up to 3 rounds of 2x2 subdivision; each member of the family
    is called once per round on all of that round's points (point by point
    when it accepts only scalars).  Candidates are reported
    as cells (never points — transforms are only known to quadrature
    accuracy).  The report flags whether every candidate sits within
    0.25 of +-i rho.
    """
    if threshold <= 0:
        raise DomainError("scan_common_zeros: threshold must be positive")
    pts = grid.points(params)
    d_re = 2.0 * grid.re_max / (grid.re_n - 1)
    im_top = params.rho - grid.im_margin
    d_im = 2.0 * im_top / max(grid.im_n - 1, 1)
    cells = [(p, 0.5 * d_re, 0.5 * d_im) for p in pts]
    candidates = _below(transforms, cells, threshold)
    for _ in range(3):
        subs = []
        for center, hre, him, _ in candidates:
            for sre in (-0.5, 0.5):
                for sim in (-0.5, 0.5):
                    sub = center + complex(sre * hre, sim * him)
                    sub = complex(sub.real, np.clip(sub.imag, -params.rho, params.rho))
                    subs.append((sub, 0.5 * hre, 0.5 * him))
        refined = _below(transforms, subs, threshold)
        if not refined:
            break
        candidates = refined
    cell_reports = [
        {"re": c.real, "im": c.imag, "half_re": hre, "half_im": him, "min_abs": v}
        for c, hre, him, v in sorted(candidates, key=lambda x: (x[0].imag, x[0].real))
    ]
    only_irho = all(
        min(abs(complex(r["re"], r["im"]) - 1j * params.rho),
            abs(complex(r["re"], r["im"]) + 1j * params.rho)) <= _IRHO_RADIUS
        for r in cell_reports
    )
    return {
        "cells": cell_reports,
        "n_candidates": len(cell_reports),
        "only_pm_irho": bool(cell_reports) and only_irho,
        "no_common_zero": not cell_reports,
        "threshold": float(threshold),
    }


def resolvent_transform(params: JacobiParams, g, f, lam):
    """Two-branch resolvent transform <h, g> with h chosen by Im lambda.

    Exterior (Im lambda > rho): h = b_lambda, pairing 2 int b g Delta up
    to g's support bound tmax if any, with ``b_l1_norm``'s tail rule.
    Interior (0 < Im lambda < rho): h = T_lambda f / fhat(lambda).
    The pairing weight is Delta because bounded g is the dual of the
    weighted L^1 algebra.  The rail (``strip_region``'s "boundary") belongs
    to neither branch and raises DomainError; an uncertified tail, an
    overflow or |fhat(lambda)| <= 1e-10 raises PrecisionError.
    """
    lam = complex(lam)
    if lam.imag <= 0:
        raise DomainError("resolvent_transform: requires Im lambda > 0")
    region = strip_region(params, lam)
    if region == "boundary":
        raise DomainError(
            f"resolvent_transform: Im lambda = rho = {params.rho} is on the "
            "branch seam (neither formula applies)"
        )
    if region == "exterior":
        # a support that ends below the cap ends the integral before it
        g_tmax, cap = getattr(g, "tmax", np.inf), TAIL_CUTOFF * 8
        cutoff = min(decay_cutoff(lam.imag - params.rho, hi=None if g_tmax <= cap else cap), g_tmax)
        return complex(_pair(params, lambda t: b_lambda(params, lam, t), g, cutoff))
    if f is None:
        raise DomainError(
            "resolvent_transform: interior branch needs the generator f"
        )
    op = TLambdaOperator(params, f, lam)
    if abs(op.fhat_lam) <= 1e-10:
        raise PrecisionError(
            f"resolvent_transform: division-unstable, |fhat(lambda)| = "
            f"{abs(op.fhat_lam):.3e} at lambda={lam}",
            achieved=abs(op.fhat_lam),
        )
    return complex(_pair(params, op, g, f.tmax, seg_len=0.25) / op.fhat_lam)


def cauchy_riemann_residual(func, lam, h=1e-4):
    """Discrete Cauchy-Riemann defect |d/dx F + i d/dy F| on a 4-point stencil."""
    lam = complex(lam)
    dx = (complex(func(lam + h)) - complex(func(lam - h))) / (2.0 * h)
    dy = (complex(func(lam + 1j * h)) - complex(func(lam - 1j * h))) / (2.0 * h)
    return abs(dx + 1j * dy)


def span_density_demo(params: JacobiParams, target, lambdas):
    """Weighted least-squares approximation of target by span{b_lambda_k}.

    lambdas must all satisfy Im lambda > rho; residuals are reported for
    every nested prefix of the list (so growing the set can only help).
    The merit function is the Delta-weighted L^2 surrogate on a singular-
    aware node set.  Gram systems with condition number above 1e12 are solved
    by truncated SVD and flagged.
    """
    tmax = getattr(target, "tmax", None)
    if tmax is None:
        raise DomainError(
            "span_density_demo: target must carry a support bound tmax "
            "(an unbounded-support target is not in the weighted L^1 space)"
        )
    lambdas = [_require_exterior(params, x, "span_density_demo") for x in lambdas]
    if len(lambdas) < 2:
        raise DomainError("span_density_demo: need at least 2 lambdas")
    # the merit is a surrogate, so its tail is capped without certification
    slowest = min(x.imag for x in lambdas) - params.rho
    cutoff = max(float(tmax), min(decay_cutoff(slowest), TAIL_CUTOFF * 4))
    nodes, weights = singular_halfline_nodes(cutoff)
    sqw = np.sqrt(weights * weight_delta(params, nodes))
    y = np.asarray(
        [complex(target(t)) if t <= tmax else 0.0 for t in nodes], dtype=complex
    ) * sqw
    columns = np.column_stack(
        [b_lambda(params, x, nodes) * sqw for x in lambdas]
    )
    sizes, residuals, conds, regularized = [], [], [], []
    for k in range(1, len(lambdas) + 1):
        a_k = columns[:, :k]
        sv = np.linalg.svd(a_k, compute_uv=False)
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
        rcond = 1.0 / _COND_LIMIT if cond > _COND_LIMIT else None
        coef, *_ = np.linalg.lstsq(a_k, y, rcond=rcond)
        res = float(np.linalg.norm(a_k @ coef - y))
        sizes.append(k)
        residuals.append(res)
        conds.append(cond)
        regularized.append(cond > _COND_LIMIT)
    return {
        "sizes": sizes,
        "residuals": residuals,
        "conditions": conds,
        "regularized": regularized,
        "lambdas": [[x.real, x.imag] for x in lambdas],
        "target_norm": float(np.linalg.norm(y)),
    }


def report_to_json(report) -> str:
    """Serialize a scan/demo report dict to a deterministic JSON line."""
    return json.dumps(report, sort_keys=True)
