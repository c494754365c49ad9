"""Generalized translation and the hypergeometric convolution structure.

The translation tau_s averages f over a kernel measure on [0,1] x [0,pi]
whose density carries Jacobi-type endpoint singularities; nodes are built
with Gauss-Jacobi rules so those exponents cost no accuracy.  The three
parameter regimes (generic alpha > beta > -1/2, alpha = beta, and
beta = -1/2) get their own kernels.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .core import JacobiParams, weight_delta
from .errors import DomainError
from .grid import EvenMeasure, GridFunction
from .quadrature import composite_gauss_nodes, integrate
from .special import log_gamma

_DEGENERATE_TOL = 1e-10
_CHUNK = 16384  # kernel arguments per call of f in _translate_batch


def _lg(x):
    return log_gamma(complex(x)).real


@lru_cache(maxsize=32)
def _kernel_nodes(alpha, beta, n_r=32, n_psi=32):
    """Nodes (r_i, cos psi_i, sin psi_i) and weights of the kernel measure dm.

    Weights include the explicit Gamma-factor normalization, so their sum
    equals the kernel mass (= 1) only because the normalization constant
    is right; nothing is renormalized numerically.
    """
    if abs(beta + 0.5) < _DEGENERATE_TOL:
        # beta = -1/2: density in r, psi concentrated on {0, pi} with mass 1/2 each
        const = math.exp(_lg(alpha + 1.0) - 0.5 * math.log(math.pi) - _lg(alpha + 0.5))
        # u = r^2: (1-r^2)^(alpha-1/2) dr = (1/2)(1-u)^(alpha-1/2) u^(-1/2) du
        xj, wj = roots_jacobi(n_r, alpha - 0.5, -0.5)
        u = 0.5 * (1.0 + xj)
        scale = 2.0 ** (-(alpha - 0.5) - (-0.5) - 1.0)
        r_w = 2.0 * const * 0.5 * scale * wj  # overall 2 from the paper's constant
        r = np.sqrt(u)
        rr = np.concatenate([r, r])
        cos_psi = np.concatenate([np.ones_like(r), -np.ones_like(r)])
        sin_psi = np.zeros_like(rr)
        weights = np.concatenate([0.5 * r_w, 0.5 * r_w])
        return rr, cos_psi, sin_psi, weights
    if abs(alpha - beta) < _DEGENERATE_TOL:
        # alpha = beta: psi-density only, r pinned at 1 (see decisions ledger)
        const = math.exp(_lg(alpha + 1.0) - 0.5 * math.log(math.pi) - _lg(alpha + 0.5))
        # v = cos psi: (sin psi)^(2 alpha) d psi = (1-v^2)^(alpha-1/2) dv
        xv, wv = roots_jacobi(n_psi, alpha - 0.5, alpha - 0.5)
        weights = const * wv
        r = np.ones_like(xv)
        return r, xv, np.sqrt(np.clip(1.0 - xv**2, 0.0, None)), weights
    # generic alpha > beta > -1/2
    const = math.exp(
        math.log(2.0)
        + _lg(alpha + 1.0)
        - 0.5 * math.log(math.pi)
        - _lg(alpha - beta)
        - _lg(beta + 0.5)
    )
    # u = r^2: (1-r^2)^(a-b-1) r^(2b+1) dr = (1/2)(1-u)^(a-b-1) u^b du
    xj, wj = roots_jacobi(n_r, alpha - beta - 1.0, beta)
    u = 0.5 * (1.0 + xj)
    r = np.sqrt(u)
    r_scale = 2.0 ** (-(alpha - beta - 1.0) - beta - 1.0)
    r_w = 0.5 * r_scale * wj
    # v = cos psi: (sin psi)^(2b) d psi = (1-v^2)^(b-1/2) dv
    xv, wv = roots_jacobi(n_psi, beta - 0.5, beta - 0.5)
    rr = np.repeat(r, xv.size)
    cos_psi = np.tile(xv, r.size)
    sin_psi = np.sqrt(np.clip(1.0 - cos_psi**2, 0.0, None))
    weights = const * np.repeat(r_w, xv.size) * np.tile(wv, r.size)
    return rr, cos_psi, sin_psi, weights


def kernel_mass(params: JacobiParams, n_r=32, n_psi=32):
    """Total mass of the kernel measure; 1 when the normalization is right."""
    _, _, _, w = _kernel_nodes(params.alpha, params.beta, n_r, n_psi)
    return float(np.sum(w))


def translate(params: JacobiParams, f, s, t, n_r=32, n_psi=32):
    """Generalized translation (tau_s f)(t).

    f is a GridFunction or an even callable vectorized over arrays.  For a
    GridFunction the domain constraint |s| + |t| <= tmax applies (the
    kernel argument never exceeds |s| + |t|).
    """
    s = float(s)
    t = float(t)
    tmax = getattr(f, "tmax", None)
    if tmax is not None and abs(s) + abs(t) > tmax * (1.0 + 1e-9):
        raise DomainError(
            f"translate: |s|+|t|={abs(s) + abs(t):.6g} exceeds tmax={tmax}"
        )
    return complex(_translate_batch(params, f, [s], [t], n_r, n_psi)[0, 0])


def _translate_batch(params, f, s_array, t_array, n_r=32, n_psi=32):
    """tau_s f(t) for every s in s_array and t in t_array: an |s| x |t| matrix.

    The kernel arguments of all (s, t) pairs are passed to f in chunks of
    whole pairs, at most _CHUNK arguments each (or one pair, if that is
    larger), so f is called once per chunk and the temporaries stay small.
    Each pair's kernel values are reduced on their own by one pairwise sum,
    so pairs that see identical values give identical results (a constant f
    is an exact fixed point).
    """
    r, cos_psi, sin_psi, w = _kernel_nodes(params.alpha, params.beta, n_r, n_psi)
    rc, rs = r * cos_psi, r * sin_psi
    s = np.abs(np.asarray(s_array, dtype=float)).ravel()
    t = np.abs(np.asarray(t_array, dtype=float)).ravel()
    a = np.outer(np.cosh(s), np.cosh(t)).ravel()
    b = np.outer(np.sinh(s), np.sinh(t)).ravel()
    out = np.empty(a.size, dtype=complex)
    step = max(1, _CHUNK // w.size)
    for lo in range(0, a.size, step):
        ak = a[lo:lo + step, None]
        bk = b[lo:lo + step, None]
        # arccosh |a + r e^{i psi} b|, in place: the chunk's temporaries
        # set the peak memory of a convolution
        x = ak + rc * bk
        x *= x
        x += np.square(rs * bk)
        args = np.arccosh(np.maximum(np.sqrt(x, out=x), 1.0, out=x), out=x)
        vals = np.asarray(f(args.ravel()), dtype=complex).reshape(args.shape)
        out[lo:lo + step] = np.sum(vals * w, axis=-1)
    return out.reshape(s.size, t.size)


def _s_integral(weights, tau):
    """2 sum_s weights(s) tau[s, :], column by column in the same order.

    Equal columns of tau give equal results, which a BLAS product does not
    promise; that keeps constants exact fixed points of convolution.
    """
    return 2.0 * np.sum(weights[:, None] * tau, axis=0)


def convolve(params: JacobiParams, f: GridFunction, g: GridFunction, out_n=None,
             n_r=32, n_psi=32, s_segments=None):
    """(f * g)(t) = int tau_s f(t) g(s) Delta(s) ds on the certified subgrid.

    Output is a GridFunction on [0, f.tmax - g.tmax] carrying valid_tmax
    (domain-shrinking convention: no extrapolation of f beyond its grid).
    tau_s f(t) is taken for all s nodes and output t in one batched call
    (composite Gauss in s, s_segments segments of order 10).
    """
    out_tmax = f.tmax - g.tmax
    if out_tmax <= 0:
        raise DomainError(
            "convolve: f.tmax must exceed g.tmax (domain-shrinking convention)"
        )
    if out_n is None:
        out_n = max(16, int(round(f.n * out_tmax / f.tmax)))
    if s_segments is None:
        s_segments = max(8, int(np.ceil(g.tmax * 4)))
    edges = np.linspace(0.0, g.tmax, s_segments + 1)
    s_nodes, s_weights = composite_gauss_nodes(edges, 10)
    gs = np.asarray(g(s_nodes), dtype=complex) * weight_delta(params, s_nodes)
    out_ts = np.linspace(0.0, out_tmax, out_n)
    tau = _translate_batch(params, f, s_nodes, out_ts, n_r, n_psi)
    out_vals = _s_integral(s_weights * gs, tau)
    return GridFunction(out_tmax, out_vals, valid_tmax=out_tmax)


def convolve_measure(params: JacobiParams, f: GridFunction, mu: EvenMeasure,
                     out_n=None, n_r=32, n_psi=32):
    """(f * mu)(t) = int tau_s f(t) d mu(s) on the shrunken certified domain.

    All atoms go through one batched translation call, weighted by w_j
    atom by atom; a density goes through one more call over its s nodes.
    """
    reach = mu.reach
    out_tmax = f.tmax - reach
    if out_tmax <= 0:
        raise DomainError(
            f"convolve_measure: measure reach {reach} exhausts the domain "
            f"(f.tmax={f.tmax})"
        )
    if out_n is None:
        out_n = max(16, int(round(f.n * out_tmax / f.tmax)))
    out_ts = np.linspace(0.0, out_tmax, out_n)
    out_vals = np.zeros(out_n, dtype=complex)
    if mu.atom0 != 0:
        out_vals += mu.atom0 * np.asarray(f(out_ts), dtype=complex)
    if mu.atoms:
        positions = [t_j for t_j, _ in mu.atoms]
        tau = _translate_batch(params, f, positions, out_ts, n_r, n_psi)
        for (_, w_j), row in zip(mu.atoms, tau):
            out_vals += w_j * row
    if mu.density is not None:
        s_segments = max(8, int(np.ceil(mu.density.tmax * 4)))
        edges = np.linspace(0.0, mu.density.tmax, s_segments + 1)
        s_nodes, s_weights = composite_gauss_nodes(edges, 10)
        dens = np.asarray(mu.density(s_nodes), dtype=complex)
        if mu.density_measure == "delta-weighted":
            dens = dens * weight_delta(params, s_nodes)
        tau = _translate_batch(params, f, s_nodes, out_ts, n_r, n_psi)
        out_vals += _s_integral(s_weights * dens, tau)
    return GridFunction(out_tmax, out_vals, valid_tmax=out_tmax)


def l1_norm(params: JacobiParams, f):
    """Weighted L1 norm int |f| Delta over R."""
    tmax = getattr(f, "tmax", None)
    if tmax is None:
        raise DomainError("l1_norm: f must carry a support bound tmax")
    integral = integrate(lambda t: np.abs(f(t)) * weight_delta(params, t), 0.0, tmax)
    return float(np.real(2.0 * integral))


def l10_defect(params: JacobiParams, f):
    """int f Delta over R; zero exactly on the L^1_0 subclass (= fhat(i rho))."""
    tmax = getattr(f, "tmax", None)
    if tmax is None:
        raise DomainError("l10_defect: f must carry a support bound tmax")
    return complex(
        2.0 * integrate(lambda t: f(t) * weight_delta(params, t), 0.0, tmax)
    )
