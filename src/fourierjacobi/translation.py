"""Generalized translation and the hypergeometric convolution structure.

The translation tau_s averages f over the product-formula kernel measure
dm(r, psi) on [0,1] x [0,pi] (Flensted-Jensen & Koornwinder, Ark. Mat. 11,
1973).  That measure is a product of two probability laws: u = r^2 follows
Beta(beta+1, alpha-beta) and v = cos psi follows Beta(beta+1/2, beta+1/2)
on [-1, 1].  Each law is a Gauss-Jacobi rule, so the endpoint exponents
cost no accuracy.  The alpha = beta and beta = -1/2 regimes are their
limits: r pinned at 1, and psi on {0, pi} with mass 1/2 each.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ._numerics import roots_jacobi
from .core import JacobiParams
from .errors import DomainError
from .grid import EvenMeasure, GridFunction
from .special import log_gamma
from .transform import _as_measure, forward_transform

_DEGENERATE_TOL = 1e-10
_CHUNK = 16384  # kernel arguments per call of f in _translate_batch


def _lg(x):
    return log_gamma(complex(x)).real


def _jacobi_law(a, b, n):
    """Nodes on [-1, 1] and weights of the law proportional to (1-x)^a (1+x)^b.

    The n-point Gauss-Jacobi weights are divided by the exact mass
    2^(a+b+1) B(a+1, b+1).  As a -> -1 the law tends to the point mass at 1,
    and as a = b -> -1 to (delta_-1 + delta_1) / 2.
    """
    if abs(a + 1.0) < _DEGENERATE_TOL:
        if abs(b + 1.0) < _DEGENERATE_TOL:
            return np.array([-1.0, 1.0]), np.array([0.5, 0.5])
        return np.ones(1), np.ones(1)
    x, w = roots_jacobi(n, a, b)
    log_mass = (a + b + 1.0) * math.log(2.0) + _lg(a + 1.0) + _lg(b + 1.0) - _lg(a + b + 2.0)
    return x, w * math.exp(-log_mass)


@lru_cache(maxsize=32)
def _kernel_nodes(alpha, beta, n_r=32, n_psi=32):
    """Nodes (r_i, cos psi_i, sin psi_i) and weights of the kernel measure dm.

    The weights are the outer product of the laws of u = r^2 (n_r nodes)
    and of v = cos psi (n_psi nodes), each scaled by its exact Beta mass;
    their sum is 1 because those masses are right, and nothing is
    renormalized numerically.
    """
    x, wu = _jacobi_law(alpha - beta - 1.0, beta, n_r)
    v, wv = _jacobi_law(beta - 0.5, beta - 0.5, n_psi)
    r = np.repeat(np.sqrt(0.5 * (1.0 + x)), v.size)
    cos_psi = np.tile(v, x.size)
    sin_psi = np.sqrt(np.clip(1.0 - cos_psi**2, 0.0, None))
    return r, cos_psi, sin_psi, np.outer(wu, wv).ravel()


def kernel_mass(params: JacobiParams):
    """Total mass of the kernel measure; 1 when the normalization is right."""
    _, _, _, w = _kernel_nodes(params.alpha, params.beta)
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
    The arguments and the weighted values live in buffers allocated once
    per call and reused by every chunk: a call allocates a fixed number of
    large arrays, whatever its number of chunks, so its speed does not hang
    on whether the heap is trimmed and grown again between chunks.  Each
    pair's kernel values are reduced on their own by one pairwise sum,
    so pairs that see identical values give identical results (a constant f
    is an exact fixed point).  The values keep the dtype f gives them, so a
    real f is translated in real arithmetic and gives a real matrix.
    """
    r, cos_psi, sin_psi, w = _kernel_nodes(params.alpha, params.beta, n_r, n_psi)
    rc, rs = r * cos_psi, r * sin_psi
    s = np.abs(np.asarray(s_array, dtype=float)).ravel()
    t = np.abs(np.asarray(t_array, dtype=float)).ravel()
    a = np.outer(np.cosh(s), np.cosh(t)).ravel()
    b = np.outer(np.sinh(s), np.sinh(t)).ravel()
    sums = []
    step = max(1, _CHUNK // w.size)
    buf = np.empty((2, min(step, a.size), w.size))
    prod = None
    for lo in range(0, a.size, step):
        ak = a[lo:lo + step, None]
        bk = b[lo:lo + step, None]
        x, sq = buf[:, :ak.shape[0]]
        # arccosh |a + r e^{i psi} b|, in place
        np.multiply(rc, bk, out=x)
        x += ak
        x *= x
        x += np.square(np.multiply(rs, bk, out=sq), out=sq)
        args = np.arccosh(np.maximum(np.sqrt(x, out=x), 1.0, out=x), out=x)
        vals = np.asarray(f(args.ravel())).reshape(args.shape)
        if prod is None or prod.dtype != np.result_type(vals, w):
            prod = np.empty(buf.shape[1:], dtype=np.result_type(vals, w))
        part = np.multiply(vals, w, out=prod[:x.shape[0]])
        sums.append(np.sum(part, axis=-1))
    return np.concatenate(sums).reshape(s.size, t.size)


def convolve(params: JacobiParams, f: GridFunction, g: GridFunction,
             n_r=32, n_psi=32, s_segments=None):
    """(f * g)(t) = int tau_s f(t) g(s) Delta(s) ds on the certified subgrid.

    This is ``convolve_measure`` by the measure g(s) Delta(s) ds, extended
    evenly: EvenMeasure(density=g, density_measure="delta-weighted"), whose
    density nodes are order-10 composite Gauss on s_segments equal segments
    of [0, g.tmax] (by default max(8, ceil(4 g.tmax))).  The output is a
    GridFunction on [0, f.tmax - g.tmax] at about f's sample spacing (at
    least 16 samples), translated by the n_r x n_psi kernel rule.
    """
    mu = EvenMeasure(density=g, density_measure="delta-weighted")
    return _convolve(params, f, mu, n_r, n_psi, s_segments)


def convolve_measure(params: JacobiParams, f: GridFunction, mu: EvenMeasure):
    """(f * mu)(t) = int tau_s f(t) d mu(s) on the shrunken certified domain.

    The output is a GridFunction on [0, f.tmax - mu.reach], the certified
    domain (domain-shrinking convention: no extrapolation of f beyond its
    grid).  It reads the measure's points (T_k, W_k) from
    ``EvenMeasure._points``, the same ones its transform and mass read:
    tau_{T_k} f is taken at every point and output t in one batched call,
    and W_k times each row is added in point order onto atom0 * f.
    """
    return _convolve(params, f, mu)


def _convolve(params, f, mu, n_r=32, n_psi=32, segments=None):
    """f * mu on the shrunken domain; segments sets the density's node count."""
    out_tmax = f.tmax - mu.reach
    if out_tmax <= 0:
        raise DomainError(
            f"convolve: measure reach {mu.reach} exhausts the domain (f.tmax={f.tmax})"
        )
    out_n = max(16, int(round(f.n * out_tmax / f.tmax)))
    out_ts = np.linspace(0.0, out_tmax, out_n)
    out_vals = np.zeros(out_n, dtype=complex)
    if mu.atom0 != 0:
        out_vals += mu.atom0 * np.asarray(f(out_ts), dtype=complex)
    ts, ws = mu._points(params, segments)
    if ts.size:
        # row by row in point order: equal columns of tau give equal results,
        # which a BLAS product does not promise; constants stay exact fixed points
        for w, row in zip(ws, _translate_batch(params, f, ts, out_ts, n_r, n_psi)):
            out_vals += w * row
    return GridFunction(out_tmax, out_vals)


def l1_norm(params: JacobiParams, f):
    """Weighted L1 norm int |f| Delta over R: sum_k |W_k| over the points fhat reads."""
    mu, segments = _as_measure(f, "l1_norm")
    return float(np.sum(np.abs(mu._points(params, segments)[1])))


def l10_defect(params: JacobiParams, f):
    """int f Delta over R; zero exactly on the L^1_0 subclass (= fhat(i rho))."""
    return complex(forward_transform(params, f, 1j * params.rho))
