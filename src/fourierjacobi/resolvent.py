"""Resolvent kernels b_lambda, their transform identity, and T_lambda f.

b_lambda = i/(4 lambda c(-lambda)) Phi_lambda, extended evenly; its
transform is 1/(xi^2 - lambda^2).  T_lambda f is the strip-interior
resolvent numerator, evaluated through its one-dimensional tail-integral
form (the convolution route would hit the singularity of b at 0).
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from ._numerics import CubicSpline, cumulative_simpson
from .core import (JacobiParams, _phi_rows, _second_kind_2f1, _second_kind_points, c_function,
                   in_strip, phi, phi_second_kind, strip_region, weight_delta)
from .errors import DomainError, PrecisionError
from .grid import GridFunction
from .quadrature import TAIL_CUTOFF, _grid_cutoff, decay_cutoff, singular_halfline_nodes
from .special import _at, _runs, _spread
from .transform import _strip_lambda, _transform, forward_transform, inverse_transform


def _require_upper(lam):
    lam = np.asarray(lam, dtype=complex)
    low = lam.imag <= 0
    if low.any():
        raise DomainError(f"b_lambda requires Im lambda > 0, got {complex(lam[low][0])}")
    return lam


def b_prefactor(params: JacobiParams, lam):
    """i / (4 lambda c(-lambda)), elementwise over an array lam."""
    lam = _require_upper(lam)
    cm = np.asarray(c_function(params, -lam))
    zero = np.abs(cm) < 1e-14
    if zero.any():
        raise DomainError(f"b_lambda: c(-lambda) vanishes at lambda={complex(lam[zero][0])}")
    # object dtype: Python's complex arithmetic, so an array rounds as a scalar does
    return np.asarray(1j / (4.0 * lam.astype(object) * cm.astype(object)), dtype=complex)[()]


def b_lambda(params: JacobiParams, lam, t, tol=1e-12):
    """b_lambda(t) for Im lambda > 0 and t != 0; even in t, broadcast as ``phi_second_kind``."""
    lam = np.asarray(lam, dtype=complex)
    (values,), run = _runs(lam.ravel() if lam.ndim else lam)
    pre = _spread(b_prefactor(params, values), run).reshape(lam.shape)  # refuses Im lam <= 0
    t = np.asarray(t, dtype=float)
    if np.any(t == 0.0):
        raise DomainError("b_lambda is undefined at t = 0")
    out = pre * phi_second_kind(params, lam, np.abs(np.atleast_1d(t)), tol)
    return complex(out[0]) if lam.ndim == t.ndim == 0 else out


def _require_exterior(params: JacobiParams, lam, who):
    lam = _require_upper(lam)
    inside = in_strip(params, lam)
    if inside.any():
        raise DomainError(
            f"{who}: b_lambda not integrable (Im lambda = {lam[inside][0].imag}, rho = {params.rho})")
    return lam


def _finite_sum(nodes, vals):
    """Sum of vals over the node (last) axis.

    A product that overflowed or turned NaN (Delta outgrowing a decaying h)
    raises PrecisionError instead of entering the sum.
    """
    bad = ~np.isfinite(vals)
    if np.any(bad):
        at = nodes[bad.nonzero()[-1][0]]
        raise PrecisionError(f"resolvent pairing: integrand not finite at t = {at:.4g}")
    return np.sum(vals, axis=-1)


def _b_delta(params: JacobiParams, lam, t):
    """b_lambda Delta at t > 0, the powers of 2 cosh t and 2 sinh t summed in log space.

    pre F exp((i lam - rho + 2 beta + 1) log(2 cosh t) + (2 alpha + 1)
    log(2 sinh t)), with F the 2F1 factor of Phi_lambda, so the product
    stays finite (or underflows) where Delta alone overflows.
    """
    lam_flat, t, _ = _second_kind_points(lam, t)
    expo = ((1j * lam - params.rho + 2.0 * params.beta + 1.0) * np.log(2.0 * np.cosh(t))
            + (2.0 * params.alpha + 1.0) * np.log(2.0 * np.sinh(t)))
    return b_prefactor(params, lam) * _second_kind_2f1(params, lam_flat, t, 1e-12) * np.exp(expo)


_b_rows = {}  # one entry, (params, lam) -> (nodes, b_lambda Delta there); see _b_delta_rows


def _b_delta_rows(params: JacobiParams, lam: complex, nodes):
    """b_lambda Delta on nodes, through a one-entry store for the last (params, lambda).

    The store holds the longest node set asked for at that lambda and its
    rows (read-only).  A node set that shares a prefix with it (every
    ``singular_halfline_nodes`` set at a cutoff on its 0.5 grid) takes
    that prefix from the store, and only the nodes past it are evaluated.
    The pairings at one lambda run back to back (``b_hat``, then the
    exterior ``resolvent_transform``), so one entry serves them, keeps
    memory bounded and lets a traced re-run of a task evaluate its rows
    again; a value does not depend on its batch, so a stored row equals a
    cold one bit for bit.
    """
    held_nodes, held = _b_rows.get((params, lam), (nodes[:0], nodes[:0]))
    m = min(nodes.size, held_nodes.size)
    same = held_nodes[:m] == nodes[:m]
    k = m if same.all() else int(same.argmin())
    if k == nodes.size:
        return held[:k]
    rows = np.concatenate([held[:k], _b_delta(params, lam, nodes[k:])])
    if nodes.size >= held_nodes.size:
        nodes = nodes.copy()
        nodes.flags.writeable = rows.flags.writeable = False
        _b_rows.clear()
        _b_rows[params, lam] = (nodes, rows)
    return rows


def _pair(params: JacobiParams, lam: complex, g, cutoff, modulus=False):
    """2 int_0^cutoff h g Delta dt, h = b_lambda (|b_lambda| if modulus); g takes the node array.

    g gives one row per integrand.  Nodes are
    ``singular_halfline_nodes(cutoff)``, and b_lambda Delta on them comes
    from ``_b_delta_rows`` (formed in log space, one-entry store).  A
    non-finite product raises PrecisionError (``_finite_sum``).
    """
    nodes, weights = singular_halfline_nodes(cutoff)
    rows = _b_delta_rows(params, lam, nodes)
    if modulus:
        rows = np.abs(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = weights * (rows * g(nodes))
    return 2.0 * _finite_sum(nodes, vals)


def b_hat(params: JacobiParams, lam, xi):
    """Quadrature of 2 int_0^oo b_lambda phi_xi Delta; equals 1/(xi^2-lam^2).

    Needs Im lam > rho (L^1 membership) and xi in the strip, judged by
    ``strip_region`` (lam on the rail raises DomainError).  The tail decays
    like exp(-(Im lam - |Im xi|) t); its cutoff is rounded up to the 0.5
    grid of ``singular_halfline_nodes``, so the pairings at one lambda
    share b_lambda's rows (``_b_delta_rows``).  A tail not below ABS_TOL
    by TAIL_CUTOFF * 8, or an integrand that is not finite, raises
    PrecisionError.  xi may be an array: the xi that share |Im xi| share
    one cutoff and one pairing.
    """
    lam = complex(_require_exterior(params, lam, "b_hat"))
    xi = _strip_lambda(params, xi, "b_hat: xi")
    rates = lam.imag - np.abs(xi.imag)
    out = np.empty(xi.shape, dtype=complex)
    for rate in np.unique(rates):
        at = rates == rate
        cutoff = _grid_cutoff(decay_cutoff(rate, hi=TAIL_CUTOFF * 8))
        out[at] = _pair(params, lam, lambda t: _phi_rows(params, _at(xi, at), t), cutoff)
    return complex(out) if xi.ndim == 0 else out


def b_hat_exact(lam, xi):
    """Closed form 1/(xi^2 - lambda^2) of the transform of b_lambda."""
    lam = complex(lam)
    xi = complex(xi)
    return 1.0 / (xi * xi - lam * lam)


def b_l1_norm(params: JacobiParams, lam):
    """Weighted L1 norm of b_lambda; finite iff Im lambda > rho.

    Rail, tail and rounding rules as in ``b_hat``, at decay rate Im lam - rho.
    """
    lam = complex(_require_exterior(params, lam, "b_l1_norm"))
    cutoff = _grid_cutoff(decay_cutoff(lam.imag - params.rho, hi=TAIL_CUTOFF * 8))
    return float(_pair(params, lam, lambda t: 1.0, cutoff, modulus=True))


def _fd1(vals, h):
    # one Richardson step on the 5-point stencil: O(h^6); vals holds the
    # function at t + (h/2) (-2, -1, 1, 2), then at t + h (-2, -1, 1, 2)
    stencil = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
    half = np.dot(stencil, vals[:4]) / (0.5 * h)
    return (16.0 * half - np.dot(stencil, vals[4:8]) / h) / 15.0


def wronskian_bracket(params: JacobiParams, lam, t, h=None, tol=1e-12):
    """[phi_lam, Phi_lam](t) = Delta (phi Phi' - phi' Phi); equals 2 i lam c(-lam).

    Derivatives by Richardson-extrapolated 5-point central differences with
    step capped at t/8 (the second-kind solution is singular at 0).  phi and
    Phi are each evaluated in one call, on the 8 stencil points and t.
    """
    lam = complex(lam)
    t = float(t)
    if t <= 0:
        raise DomainError("wronskian_bracket requires t > 0")
    if h is None:
        h = min(1e-3, t / 8.0)
    offsets = np.array([-2.0, -1.0, 1.0, 2.0])
    xs = t + np.concatenate([offsets * (0.5 * h), offsets * h, [0.0]])
    ph = phi(params, lam, xs, tol)
    Ph = phi_second_kind(params, lam, xs, tol)
    return weight_delta(params, t) * (ph[8] * _fd1(Ph, h) - _fd1(ph, h) * Ph[8])


def wronskian_exact(params: JacobiParams, lam):
    """The constant 2 i lambda c(-lambda) the bracket must equal."""
    lam = complex(lam)
    return 2j * lam * c_function(params, -lam)


def _simpson_weights(n):
    """w with sum_k w_k y_k = _numerics.cumulative_simpson(y, 1/(n-1))[-1], to rounding.

    Simpson's 1/3 rule on the panels [s_0, s_2], [s_2, s_4], ...; for even n
    the last interval takes the three-point formula the cumulative rule uses
    there, h/12 (-y_{n-3} + 8 y_{n-2} + 5 y_{n-1}).
    """
    m = n - 1  # intervals
    end = m - m % 2  # last node of the paired panels
    w = np.zeros(n)
    w[1:end:2] = 4.0
    w[2:end:2] = 2.0
    w[0] += 1.0
    w[end] += 1.0
    w /= 3.0 * m
    if m % 2:
        w[-3:] += np.array([-1.0, 8.0, 5.0]) / (12.0 * m)
    return w


@lru_cache(maxsize=1)
def _grid_rows(params: JacobiParams, lam: complex, tmax: float, n_grid: int):
    """The rows of a ``TLambdaOperator`` grid that do not depend on f, read-only.

    (b_pre, s, ts, dt/ds, Delta(ts), phi_lambda(ts), b_lambda(ts[1:]), w,
    edge): the grid t = tmax s^2, its Simpson weights w in s for k >= 1
    (W_1 with the endpoint term for alpha < 0), and edge, the endpoint
    term's coefficient (sum_k w_k s_k^gamma - 1/(gamma + 1)) / s_1^gamma
    (0 for alpha >= 0).  One entry: the consumers of one lambda (operators
    of several f, the interior ``resolvent_transform`` right after
    ``t_lambda_hat``) run back to back, and a single entry keeps memory
    bounded and lets a traced re-run of a task build its rows again.
    """
    pre = b_prefactor(params, lam)  # b_lambda = pre Phi_lambda
    s = np.linspace(0.0, 1.0, n_grid)
    ts = tmax * s * s
    dt_ds = 2.0 * tmax * s
    delta = weight_delta(params, ts)
    phv = phi(params, lam, ts)
    bv = pre * phi_second_kind(params, lam, ts[1:])
    w = _simpson_weights(n_grid)[1:]
    edge = 0.0
    if params.alpha < 0.0:  # endpoint term on s^gamma
        gamma = 4.0 * params.alpha + 3.0
        sg = s[1:] ** gamma
        edge = (np.dot(w, sg) - 1.0 / (gamma + 1.0)) / sg[0]
        w[0] -= edge
    for row in (s, ts, dt_ds, delta, phv, bv, w):
        row.flags.writeable = False
    return pre, s, ts, dt_ds, delta, phv, bv, w, edge


class TLambdaOperator:
    """T_lambda f through its one-dimensional tail-integral form.

    T_lambda f(t) = b(t) int_{|s|>t} f phi Delta - phi(t) int_{|s|>t} f b Delta
    for t > 0 (tails in the full-line normalization 2 int_t^oo); f is
    compactly supported on [0, tmax], so T_lambda f vanishes beyond tmax.
    The tails are integrated cumulatively on the graded grid t = tmax s^2,
    n_grid uniform s in [0, 1] (1001 by default), by Simpson's rule in s
    (``_numerics.cumulative_simpson``); ``__call__`` interpolates them in t
    by the not-a-knot splines of ``_numerics.CubicSpline`` on that
    non-uniform grid, built on its first call.
    The substitution turns t^(2 alpha + 1) dt into a smooth multiple of
    s^(4 alpha + 3) ds, so Simpson keeps its order at t = 0 for alpha >= 0.

    The operator is also the measure (T_lambda f) Delta dt on that grid, as
    points (t_k, W_k), k >= 1, with W_k = 2 w_k (dt/ds)_k Delta(t_k)
    T_lambda f(t_k) for the Simpson weights w_k in s (``_points``, with
    ``atom0`` 0, read as ``EvenMeasure._points`` is).  T_lambda f(t_k) comes
    from the values the tails were built from, so pairing it with g costs
    one evaluation of g per grid point.  For alpha < 0 the integrand
    F(s) ~ P0 s^gamma near s = 0, gamma = 4 alpha + 3 < 3, defeats Simpson;
    W_1 subtracts Simpson's error on s^gamma, (sum_k w_k s_k^gamma -
    1/(gamma + 1)) P0, with P0 = F(s_1)/s_1^gamma (Navot's endpoint term),
    and ``fhat_lam`` subtracts the same term of its own integrand; the
    tails keep plain Simpson.
    Against a graded Gauss-Jacobi reference for fhat, on
    f = gaussian_bump(4, 129, 0.6, center=1), the transform identity of
    ``t_lambda_hat`` holds to 1.8e-10 - 1.6e-9 relative on nine (alpha, beta)
    pairs with alpha from -0.25 to 3, and to 2.1e-10 for alpha from -0.1 to
    -0.49 (4.7e-8 - 1.0e-7 at alpha <= -0.4 without the endpoint term);
    ``fhat_lam`` holds to 6e-10 on the nine pairs and to 2.6e-10 for
    alpha from -0.1 to -0.45; at (-0.49, -0.5) it reads 1.4e-9 at lambda =
    1.6 + 0.007i, where |fhat| = 0.014, and 1.7e-7 without its endpoint
    term.

    The rows that do not depend on f (phi_lambda, b_lambda, Delta, the
    grid and its weights) come from ``_grid_rows``, a one-entry store for
    the last (params, lambda, tmax, n_grid): operators of several f at one
    lambda, or the interior ``resolvent_transform`` right after an
    operator at its lambda, evaluate no phi or Phi at construction.
    """

    atom0 = 0.0

    def __init__(self, params: JacobiParams, f: GridFunction, lam, n_grid=1001):
        lam = complex(lam)
        if lam.imag <= 0.0 or strip_region(params, lam) != "interior":
            raise DomainError(
                f"TLambdaOperator requires 0 < Im lambda < rho, got {lam}"
            )
        self.params = params
        self.f = f
        self.lam = lam
        self._b_pre, s, ts, dt_ds, delta, phv, bv, w, edge = _grid_rows(params, lam, f.tmax, n_grid)
        fv = np.asarray(f(ts), dtype=complex)
        g1 = fv * phv * delta
        g2 = fv * delta
        g2[1:] *= bv
        g2[0] = 0.0  # f b Delta -> 0 like t; b is singular at 0
        # right tail integrals int_{|s|>t} = 2 int_t^oo (full-line
        # normalization, same as the transform): I(t) = total - cum(0..t),
        # with cum integrated in s (dt = 2 tmax s ds), both rows in one call
        cum1, cum2 = 2.0 * cumulative_simpson(np.stack([g1, g2]) * dt_ds, s[1])
        tail1, tail2 = cum1[-1] - cum1, cum2[-1] - cum2
        self._ts, self._tails = ts, (tail1, tail2)
        # fhat(lambda) with the endpoint term on s^gamma for alpha < 0
        fhat = cum1[-1]
        if edge:
            fhat -= edge * 2.0 * g1[1] * dt_ds[1]
        self.fhat_lam = complex(fhat)
        # the measure (T_lambda f) Delta dt on the grid; s_0 = 0 carries no weight
        self._t = ts[1:]
        self._w = 2.0 * w * dt_ds[1:] * delta[1:] * (bv * tail1[1:] - phv[1:] * tail2[1:])

    @cached_property
    def _tail1(self):
        return CubicSpline(self._ts, self._tails[0])

    @cached_property
    def _tail2(self):
        return CubicSpline(self._ts, self._tails[1])

    def _points(self, params=None, segments=None):
        """Grid points t_k > 0 and weights W_k of the measure (T_lambda f) Delta dt.

        Fixed at construction; ``params`` and ``segments`` are accepted for
        the ``EvenMeasure._points`` calling convention of ``_transform``.
        """
        return self._t, self._w

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
            b = self._b_pre * phi_second_kind(self.params, self.lam, ti)
            out[inside] = b * self._tail1(ti) - phi(self.params, self.lam, ti) * self._tail2(ti)
        return complex(out[0]) if scalar else out


def t_lambda_hat(params: JacobiParams, op, lam, xi):
    """Transform of T_lambda f at xi: sum_k W_k phi_xi(t_k) over the operator's grid measure.

    Must equal (fhat(lam) - fhat(xi)) / (xi^2 - lambda^2).  op is the
    TLambdaOperator of f built at lam; anything else raises DomainError.
    The sum is ``transform._transform`` of the op's points (see
    ``TLambdaOperator``: Simpson in s, with the endpoint term for
    alpha < 0), so phi_lambda, Phi_lambda and the tails are not evaluated
    again.  xi may be an array: phi is taken on the whole xi x t grid.
    Accuracy as stated in ``TLambdaOperator``.
    """
    if not isinstance(op, TLambdaOperator):
        raise DomainError(f"t_lambda_hat: expected a TLambdaOperator, got {type(op).__name__}")
    if complex(lam) != op.lam:
        raise DomainError(f"t_lambda_hat: operator built at {op.lam}, not at {lam}")
    return _transform(params, op, np.asarray(xi, dtype=complex))


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
