"""Resolvent kernels b_lambda, their transform identity, and T_lambda f.

b_lambda = i/(4 lambda c(-lambda)) Phi_lambda, extended evenly; its
transform is 1/(xi^2 - lambda^2).  T_lambda f is the strip-interior
resolvent numerator, evaluated through its one-dimensional tail-integral
form (the convolution route would hit the singularity of b at 0).
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline

from .core import JacobiParams, c_function, phi, phi_second_kind, strip_region, weight_delta
from .errors import DomainError, PrecisionError
from .grid import GridFunction
from .quadrature import TAIL_CUTOFF, decay_cutoff, singular_halfline_nodes
from .transform import forward_transform, inverse_transform


def _require_upper(lam):
    lam = complex(lam)
    if lam.imag <= 0:
        raise DomainError(f"b_lambda requires Im lambda > 0, got {lam}")
    return lam


def b_prefactor(params: JacobiParams, lam):
    lam = _require_upper(lam)
    cm = c_function(params, -lam)
    if abs(cm) < 1e-14:
        raise DomainError(f"b_lambda: c(-lambda) vanishes at lambda={lam}")
    return 1j / (4.0 * lam * cm)


def b_lambda(params: JacobiParams, lam, t, tol=1e-12):
    """b_lambda(t) for Im lambda > 0 and t != 0; even in t."""
    lam = _require_upper(lam)
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t_arr = np.abs(np.atleast_1d(t))
    if np.any(t_arr == 0.0):
        raise DomainError("b_lambda is undefined at t = 0")
    out = b_prefactor(params, lam) * phi_second_kind(params, lam, t_arr, tol)
    return complex(out[0]) if scalar else out


def _require_exterior(params: JacobiParams, lam, who):
    lam = _require_upper(lam)
    if strip_region(params, lam) != "exterior":
        raise DomainError(
            f"{who}: b_lambda not integrable (Im lambda = {lam.imag}, rho = {params.rho})")
    return lam


def _pair(params: JacobiParams, h, g, cutoff, seg_len=0.5):
    """2 int_0^cutoff h g Delta dt (a numpy scalar); h and g take the node array.

    A product that overflows or turns NaN (Delta outgrowing a decaying h)
    raises PrecisionError instead of entering the sum.
    """
    nodes, weights = singular_halfline_nodes(cutoff, seg_len)
    hv, gv = h(nodes), g(nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = hv * gv * weight_delta(params, nodes)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        raise PrecisionError(f"resolvent pairing: integrand not finite at t = {nodes[bad][0]:.4g}")
    return 2.0 * np.sum(weights * vals)


def b_hat(params: JacobiParams, lam, xi):
    """Quadrature of 2 int_0^oo b_lambda phi_xi Delta; equals 1/(xi^2-lam^2).

    Needs Im lam > rho (L^1 membership) and xi in the strip, judged by
    ``strip_region`` (lam on the rail raises DomainError).  A tail, decaying
    like exp(-(Im lam - |Im xi|) t), not below ABS_TOL by TAIL_CUTOFF * 8, or
    an integrand that overflows, raises PrecisionError.
    """
    lam = _require_exterior(params, lam, "b_hat")
    xi = complex(xi)
    if strip_region(params, xi) == "exterior":
        raise DomainError(f"b_hat: xi={xi} outside the strip")
    cutoff = decay_cutoff(lam.imag - abs(xi.imag), hi=TAIL_CUTOFF * 8)
    return complex(_pair(
        params, lambda t: b_lambda(params, lam, t), lambda t: phi(params, xi, t), cutoff
    ))


def b_hat_exact(lam, xi):
    """Closed form 1/(xi^2 - lambda^2) of the transform of b_lambda."""
    lam = complex(lam)
    xi = complex(xi)
    return 1.0 / (xi * xi - lam * lam)


def b_l1_norm(params: JacobiParams, lam):
    """Weighted L1 norm of b_lambda; finite iff Im lambda > rho.

    Rail, tail and overflow rules as in ``b_hat``, at decay rate Im lam - rho.
    """
    lam = _require_exterior(params, lam, "b_l1_norm")
    cutoff = decay_cutoff(lam.imag - params.rho, hi=TAIL_CUTOFF * 8)
    return float(_pair(
        params, lambda t: np.abs(b_lambda(params, lam, t)), lambda t: 1.0, cutoff
    ))


def _fd1(func, t, h):
    # one Richardson step on the 5-point stencil: O(h^6); func, vectorized
    # over t, is called once on the stencils of h/2 and h together
    offsets = np.array([-2.0, -1.0, 1.0, 2.0])
    vals = np.asarray(func(t + np.concatenate([offsets * (0.5 * h), offsets * h])))
    stencil = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
    half = np.dot(stencil, vals[:4]) / (0.5 * h)
    return (16.0 * half - np.dot(stencil, vals[4:]) / h) / 15.0


def wronskian_bracket(params: JacobiParams, lam, t, h=None, tol=1e-12):
    """[phi_lam, Phi_lam](t) = Delta (phi Phi' - phi' Phi); equals 2 i lam c(-lam).

    Derivatives by Richardson-extrapolated 5-point central differences with
    step capped at t/8 (the second-kind solution is singular at 0).
    """
    lam = complex(lam)
    t = float(t)
    if t <= 0:
        raise DomainError("wronskian_bracket requires t > 0")
    if h is None:
        h = min(1e-3, t / 8.0)
    dphi = _fd1(lambda x: phi(params, lam, x, tol), t, h)
    dPhi = _fd1(lambda x: phi_second_kind(params, lam, x, tol), t, h)
    return weight_delta(params, t) * (
        phi(params, lam, t, tol) * dPhi - dphi * phi_second_kind(params, lam, t, tol)
    )


def wronskian_exact(params: JacobiParams, lam):
    """The constant 2 i lambda c(-lambda) the bracket must equal."""
    lam = complex(lam)
    return 2j * lam * c_function(params, -lam)


class TLambdaOperator:
    """T_lambda f through its one-dimensional tail-integral form.

    T_lambda f(t) = b(t) int_{|s|>t} f phi Delta - phi(t) int_{|s|>t} f b Delta
    for t > 0 (tails in the full-line normalization 2 int_t^oo); f is
    compactly supported on [0, tmax], so T_lambda f vanishes beyond tmax.
    Tail integrals are precomputed cumulatively on a dense grid and splined.
    """

    def __init__(self, params: JacobiParams, f: GridFunction, lam, n_grid=8001):
        lam = complex(lam)
        if lam.imag <= 0.0 or strip_region(params, lam) != "interior":
            raise DomainError(
                f"TLambdaOperator requires 0 < Im lambda < rho, got {lam}"
            )
        self.params = params
        self.f = f
        self.lam = lam
        ts = np.linspace(0.0, f.tmax, n_grid)
        delta = weight_delta(params, ts)
        fv = np.asarray(f(ts), dtype=complex)
        phv = phi(params, lam, ts)
        bv = np.empty(n_grid, dtype=complex)
        bv[1:] = b_lambda(params, lam, ts[1:])
        bv[0] = 0.0  # only ever used multiplied by Delta ~ t^(2a+1)
        g1 = fv * phv * delta
        g2 = fv * delta
        g2[1:] *= bv[1:]
        g2[0] = 0.0  # f b Delta -> 0 like t
        # right tail integrals int_{|s|>t} = 2 int_t^oo (full-line
        # normalization, same as the transform): I(t) = total - cum(0..t)
        cum1 = 2.0 * np.concatenate(([0.0 + 0.0j], cumulative_trapezoid(g1, ts)))
        cum2 = 2.0 * np.concatenate(([0.0 + 0.0j], cumulative_trapezoid(g2, ts)))
        self._tail1 = CubicSpline(ts, cum1[-1] - cum1)
        self._tail2 = CubicSpline(ts, cum2[-1] - cum2)
        self.fhat_lam = complex(cum1[-1])

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t_arr = np.atleast_1d(np.abs(t))
        if np.any(t_arr <= 0):
            raise DomainError("T_lambda f evaluation requires t > 0")
        inside = t_arr < self.f.tmax
        out = np.zeros(t_arr.shape, dtype=complex)
        if np.any(inside):
            ti = t_arr[inside]
            out[inside] = b_lambda(self.params, self.lam, ti) * self._tail1(ti) - phi(
                self.params, self.lam, ti
            ) * self._tail2(ti)
        return complex(out[0]) if scalar else out


def t_lambda(params: JacobiParams, f: GridFunction, lam, t):
    """Pointwise T_lambda f(t); build a TLambdaOperator for repeated use."""
    return TLambdaOperator(params, f, lam)(t)


def t_lambda_hat(params: JacobiParams, op_or_f, lam, xi):
    """Transform of T_lambda f at xi by direct singular-aware quadrature.

    Must equal (fhat(lam) - fhat(xi)) / (xi^2 - lambda^2).  op_or_f is f or
    a TLambdaOperator built at lam (built elsewhere raises DomainError).
    """
    if isinstance(op_or_f, TLambdaOperator):
        op = op_or_f
        if complex(lam) != op.lam:
            raise DomainError(f"t_lambda_hat: operator built at {op.lam}, not at {lam}")
    else:
        op = TLambdaOperator(params, op_or_f, lam)
    xi = complex(xi)
    return complex(_pair(params, op, lambda t: phi(params, xi, t), op.f.tmax, seg_len=0.25))


def convolve_b_spectral(params: JacobiParams, f: GridFunction, lam, t,
                        lambda_max=30.0, n_segments=45):
    """(f * b_lambda)(t) for smooth f via the spectral route.

    (1/4 pi) int fhat(xi) (xi^2-lam^2)^-1 phi_xi(t) |c(xi)|^-2 d xi, taken by
    inverse_transform; the independent cross-check for the defining formula
    of T_lambda f.
    """
    lam = complex(lam)

    def fhat_over(xi):
        return forward_transform(params, f, xi) / (xi * xi - lam * lam)

    return inverse_transform(params, fhat_over, t, lambda_max, n_segments)
