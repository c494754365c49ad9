"""Jacobi functions, the c-function, the weight, and their operators.

The function of the first kind phi is the even eigenfunction of the Jacobi
operator L with eigenvalue -(lambda^2 + rho^2) normalized to 1 at the
origin; Phi is the second-kind solution on (0, oo) with pure exponential
behaviour at infinity; G is the nonsymmetric eigenfunction of the
differential-difference operator T whose even part is phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .special import (
    _at,
    gamma_ratio,
    gauss_2f1_array,
    hyp2f1_near_one,
    is_nonpositive_integer,
    series_safe,
)

_PHI2K_SPLIT = 0.7  # t above which Phi always takes the cosh^-2 t series
_BATCH_POINTS = 4096  # most (lambda, t) points one batched phi call holds


@dataclass(frozen=True)
class JacobiParams:
    """Parameter pair (alpha, beta) with alpha >= beta >= -1/2, alpha != -1/2."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha >= self.beta >= -0.5):
            raise DomainError(
                f"JacobiParams requires alpha >= beta >= -1/2, got "
                f"({self.alpha}, {self.beta})"
            )
        if self.alpha == -0.5:
            raise DomainError("JacobiParams requires alpha != -1/2")
        if not self.rho > 0:
            raise DomainError("JacobiParams: rho = alpha + beta + 1 must be > 0")

    @property
    def rho(self) -> float:
        return self.alpha + self.beta + 1.0


STRIP_TIE_TOL = 1e-12


def strip_region(params: JacobiParams, lam) -> str:
    """Classify a spectral point against the strip |Im lambda| <= rho.

    Returns "interior", "boundary", or "exterior"; ties within STRIP_TIE_TOL
    of the boundary count as boundary.
    """
    gap = abs(complex(lam).imag) - params.rho
    if abs(gap) <= STRIP_TIE_TOL:
        return "boundary"
    return "interior" if gap < 0 else "exterior"


def in_strip(params: JacobiParams, lam):
    """Not exterior (see ``strip_region``); elementwise over an array lam."""
    return np.abs(np.imag(lam)) - params.rho <= STRIP_TIE_TOL


def weight_delta(params: JacobiParams, t):
    """Weight (2|sinh t|)^(2a+1) (2cosh t)^(2b+1); vectorized over t."""
    t = np.asarray(t, dtype=float)
    sh = 2.0 * np.abs(np.sinh(t))
    ch = 2.0 * np.cosh(t)
    out = sh ** (2.0 * params.alpha + 1.0) * ch ** (2.0 * params.beta + 1.0)
    return out if out.shape else float(out)


def phi(params: JacobiParams, lam, t, tol=1e-12):
    """Jacobi function of the first kind; even in t and in lambda.

    phi_lam(t) = 2F1((rho - i lam)/2, (rho + i lam)/2; alpha + 1; -sinh^2 t).
    lam and t are scalars or arrays, broadcast together: equal-length 1-d
    arrays give phi at the pairs (lam_k, t_k), so one call serves many
    lambdas.  A complex when both are scalars, else an array of the
    broadcast shape.  One ``gauss_2f1_array`` call; the route of each point
    is chosen in ``special._routes``, and a point's value does not depend
    on the points that share the call.
    """
    lam = np.asarray(lam, dtype=complex)
    t = np.asarray(t, dtype=float)
    z = -np.sinh(t) ** 2
    a = (params.rho - 1j * lam) / 2.0
    b = (params.rho + 1j * lam) / 2.0
    out = gauss_2f1_array(a, b, params.alpha + 1.0, z, tol)
    return complex(out[0]) if lam.ndim == t.ndim == 0 else out


def _phi_rows(params: JacobiParams, lam, t, kind=phi):
    """kind at every (lambda, t) of a lambda array and a 1-d t: shape lam.shape + t.shape.

    kind is ``phi``, ``phi_second_kind`` or ``b_lambda``.  Rows of lambda go
    to it as equal-length 1-d arrays, in chunks of whole rows of at most
    ``_BATCH_POINTS`` points (one row at least); a scalar lambda is one call.
    """
    lam = np.asarray(lam, dtype=complex)
    t = np.asarray(t, dtype=float)
    if lam.ndim == 0:
        return kind(params, lam, t)
    flat = lam.ravel()
    out = np.empty((flat.size, t.size), dtype=complex)
    rows = max(1, _BATCH_POINTS // max(t.size, 1))
    for k in range(0, flat.size, rows):
        part = flat[k:k + rows]
        out[k:k + rows] = kind(params, np.repeat(part, t.size), np.tile(t, part.size)).reshape(
            part.size, t.size)
    return out.reshape(lam.shape + t.shape)


def _on_array(func, xs):
    """func over the whole array xs, or element by element when it takes only scalars."""
    try:
        out = np.asarray(func(xs), dtype=complex)
        if out.shape == xs.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([complex(func(x)) for x in xs], dtype=complex)


def _second_kind_points(lam, t):
    """(lam, t, shape) of Phi, checked and flattened; a scalar lam stays 0-d, shape None if both are."""
    lam = np.asarray(lam, dtype=complex)
    t = np.asarray(t, dtype=float)
    # lambda in {-i, -2i, ...} makes c = 1 - i*lambda a nonpositive integer
    bad = is_nonpositive_integer(1.0 - 1j * lam)
    if bad.any():
        raise DomainError(f"phi_second_kind: lambda={complex(lam[bad][0])} in the excluded set -iN")
    if np.any(t <= 0):
        raise DomainError("phi_second_kind requires t > 0")
    shape = np.broadcast(lam, t).shape or None
    if lam.ndim:
        lam, t = (np.broadcast_to(v, shape).ravel() for v in (lam, t))
    return lam, np.atleast_1d(t).ravel(), shape


def phi_second_kind(params: JacobiParams, lam, t, tol=1e-12):
    """Second-kind solution Phi_lam on (0, oo), singular at t = 0.

    Phi_lam(t) = (2 cosh t)^(i lam - rho) 2F1(a, b; 1 - i lam; cosh^-2 t).
    lam and t broadcast together as in ``phi``; a point's value does not
    depend on the points that share the call.  Below t = 0.7 the 1-z
    connection expansion (argument tanh^2 t, with the logarithmic case at
    integer alpha) serves the points where ``series_safe`` certifies its
    series, that is while 2 sqrt|a b| tanh t stays below ln(tol/eps).  Every
    other point takes the cosh^-2 t form through ``gauss_2f1_array`` (routes
    in ``special._routes``).
    """
    lam, t, shape = _second_kind_points(lam, t)
    # not in place: numpy multiplies a lone complex in place by other
    # rounding than in a longer array, and a point's value must not
    # depend on its batch
    out = _second_kind_2f1(params, lam, t, tol) * np.exp((1j * lam - params.rho) * np.log(
        2.0 * np.cosh(t)))
    return complex(out[0]) if shape is None else out.reshape(shape)


def _second_kind_2f1(params: JacobiParams, lam, t, tol):
    """The 2F1 factor F of Phi_lam = (2 cosh t)^(i lam - rho) F.

    lam and t as ``_second_kind_points`` returns them; routes as in
    ``phi_second_kind``.  Kept apart so that a caller can form the power
    in log space together with other factors.
    """
    a = (params.rho - 1j * lam) / 2.0
    b = (params.alpha - params.beta + 1.0 - 1j * lam) / 2.0
    c = 1.0 - 1j * lam
    w = np.tanh(t) ** 2
    near = (t < _PHI2K_SPLIT) & series_safe(a, b, w, tol)
    out = np.empty(t.shape, dtype=complex)
    if np.any(near):
        out[near] = hyp2f1_near_one(_at(a, near), _at(b, near), _at(c, near), w[near], tol)
    far = ~near
    if np.any(far):
        out[far] = gauss_2f1_array(_at(a, far), _at(b, far), _at(c, far), np.cosh(t[far]) ** -2.0, tol)
    return out


def phi_second_kind_sinh_form(params: JacobiParams, lam, t, tol=1e-12):
    """Alternative sinh-form of Phi_lam; cross-check oracle for moderate t."""
    lam, t, shape = _second_kind_points(lam, t)
    rho = params.rho
    a = (rho - 1j * lam) / 2.0
    b = (params.beta - params.alpha + 1.0 - 1j * lam) / 2.0
    c = 1.0 - 1j * lam
    z = -np.sinh(t) ** -2.0
    pref = np.exp((1j * lam - rho) * np.log(2.0 * np.sinh(t)))
    out = pref * gauss_2f1_array(a, b, c, z, tol)
    return complex(out[0]) if shape is None else out.reshape(shape)


def c_function(params: JacobiParams, lam):
    """Harish-Chandra c-function, normalized so that c(-i rho) = 1.

    c(lam) = 2^(rho - i lam) Gamma(a+1) Gamma(i lam)
             / (Gamma((rho + i lam)/2) Gamma((i lam + a - b + 1)/2)).
    A complex for scalar lam; an array lam gives an array of its shape, one
    call for every point.  A pole of Gamma(i lam) anywhere raises.
    """
    lam = np.asarray(lam, dtype=complex)
    scalar = lam.ndim == 0
    # at least 1-d: numpy's array loops and its scalar arithmetic may round
    # a complex product differently, and every lambda takes the same loops
    lam = np.atleast_1d(lam)
    il = 1j * lam
    pole = is_nonpositive_integer(il)
    if pole.any():
        bad = complex(lam[pole][0])
        raise DomainError(
            f"c_function: Gamma(i*lambda) pole at lambda={bad} (i*lambda={1j * bad})"
        )
    rho = params.rho
    # Denominator Gamma poles are ordinary zeros of c.
    out = np.exp((rho - il) * math.log(2.0)) * gamma_ratio(
        (params.alpha + 1.0, il),
        ((rho + il) / 2.0, (il + params.alpha - params.beta + 1.0) / 2.0),
    )
    return complex(out[0]) if scalar else out


def heckman_opdam_g(params: JacobiParams, lam, x, tol=1e-12):
    """Heckman-Opdam eigenfunction G_lam on R (not even).

    G(x) = phi(x) + (rho + i lam)/(4(alpha+1)) sinh(2x) phi^(a+1,b+1)(x).
    """
    lam = complex(lam)
    x = np.asarray(x, dtype=float)
    shifted = JacobiParams(params.alpha + 1.0, params.beta + 1.0)
    coef = (params.rho + 1j * lam) / (4.0 * (params.alpha + 1.0))
    out = phi(params, lam, np.abs(x), tol) + coef * np.sinh(2.0 * x) * phi(
        shifted, lam, np.abs(x), tol
    )
    return complex(out) if x.ndim == 0 else out


def _coefficient(params: JacobiParams, t):
    return (2.0 * params.alpha + 1.0) / np.tanh(t) + (
        2.0 * params.beta + 1.0
    ) * np.tanh(t)


_FD_H = 1e-3
# 5-point central stencils
_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def _stencil_values(func, t, h):
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
    return np.array([complex(func(t + o)) for o in offsets])


def apply_L(params: JacobiParams, f, t, h=_FD_H):
    """Second-order Jacobi operator L applied to f at t by finite differences.

    f may be a GridFunction or any callable defined near t.  Refuses t
    within 2h of the origin (coth singularity) or outside the grid.
    """
    t = float(t)
    if t < 2.0 * h:
        raise DomainError(f"apply_L: t={t} too close to the coth singularity at 0")
    tmax = getattr(f, "tmax", None)
    if tmax is not None and t + 2.0 * h > tmax:
        raise DomainError(f"apply_L: t={t} within 2h of the grid edge")
    v = _stencil_values(f, t, h)
    d1 = np.dot(_D1, v) / h
    d2 = np.dot(_D2, v) / h**2
    return d2 + _coefficient(params, t) * d1


def apply_cherednik_T(params: JacobiParams, f, t, h=_FD_H):
    """Differential-difference operator T applied to f at t.

    T f(t) = f'(t) + coeff(t) (f(t)-f(-t))/2 - rho f(-t); f must be defined
    on both signs of t (callable, or an even GridFunction).
    """
    t = float(t)
    if abs(t) < 2.0 * h:
        raise DomainError(f"apply_cherednik_T: |t|={abs(t)} too close to 0")
    tmax = getattr(f, "tmax", None)
    if tmax is not None and abs(t) + 2.0 * h > tmax:
        raise DomainError("apply_cherednik_T: t within 2h of the grid edge")
    v = _stencil_values(f, t, h)
    d1 = np.dot(_D1, v) / h
    ft = complex(f(t))
    fmt = complex(f(-t))
    return d1 + _coefficient(params, t) * 0.5 * (ft - fmt) - params.rho * fmt


def phi_dx_at_rho(params: JacobiParams, t, h=1e-4, tol=1e-12):
    """d/dx phi_{ix}(t) at x = rho, by Richardson-extrapolated differences.

    Strictly positive for t > 0.  One ``phi`` call on the four lambda.
    """
    t = float(t)
    if t <= 0:
        raise DomainError("phi_dx_at_rho requires t > 0")
    lams = 1j * (params.rho + np.array([h, -h, h / 2.0, -h / 2.0]))
    hi, lo, hi2, lo2 = phi(params, lams, t, tol).real
    d_h = (hi - lo) / (2.0 * h)
    d_h2 = (hi2 - lo2) / (2.0 * (h / 2.0))
    return float((4.0 * d_h2 - d_h) / 3.0)
