"""Quadrature engines: composite Gauss-Legendre and graded meshes.

All integrands are expected to be vectorized over a numpy array of nodes and
may return complex values.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import PrecisionError

ABS_TOL = 1e-10  # target of every decay_cutoff truncation
TAIL_CUTOFF = 30.0  # cap scale: times 8 on resolvent pairings, times 4 on span_density_demo
_SEGMENT = 0.5  # graded head of singular_halfline_nodes, then the length of its segments


@lru_cache(maxsize=64)
def _leggauss(order):
    return np.polynomial.legendre.leggauss(order)


def composite_gauss(func, a, b, n_segments=32, order=10):
    """Composite Gauss-Legendre over n_segments equal pieces of [a, b].

    func may return one row of values per integrand (nodes on the last
    axis); each row is summed on its own, and the result is a complex for a
    single integrand, else an array of the leading shape.
    """
    if b <= a:
        return 0.0 + 0.0j
    edges = np.linspace(a, b, n_segments + 1)
    nodes, weights = composite_gauss_nodes(edges, order)
    out = np.sum(weights * np.asarray(func(nodes), dtype=complex), axis=-1)
    return complex(out) if out.ndim == 0 else out


def composite_gauss_nodes(edges, order=10):
    """Flattened Gauss-Legendre node/weight arrays over the given mesh edges."""
    x, w = _leggauss(order)
    edges = np.asarray(edges, dtype=float)
    lo = edges[:-1]
    hi = edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _segment_count(length):
    """Segments of ``integrate``, and of a function's transform and L1 norm: 8 per unit, 16-2000."""
    return min(max(16, int(np.ceil(length * 8))), 2000)


def integrate(func, a, b):
    """Composite Gauss over [a, b] on ``_segment_count(b - a)`` segments, order 10."""
    return composite_gauss(func, a, b, n_segments=_segment_count(b - a), order=10)


def graded_edges(outer=0.5, levels=40):
    """Geometric mesh edges on (0, outer] refining toward 0 (ratio 1/2)."""
    pts = outer * 0.5 ** np.arange(levels + 1)
    return np.concatenate(([0.0], pts[::-1]))[1:]  # drop the exact 0 endpoint


def singular_halfline_nodes(cutoff):
    """Node/weight arrays for integrands mildly singular at 0 on (0, cutoff].

    Geometric subdivision (ratio 1/2, 40 levels, order-8 Gauss) of
    (0, 0.5] handles t^sigma behaviour near the origin; past it, order-10
    Gauss takes the fixed segments [0.5, 1], [1, 1.5], ..., the last one
    ending at cutoff.  So for cutoffs on the 0.5 grid (``_grid_cutoff``)
    the node set of a shorter cutoff is a prefix of a longer one's, and
    rows evaluated on it serve both.  The untouched sliver
    (0, 0.5 * 2^-40] is dropped (its contribution is O(sliver^2) for
    integrands vanishing linearly at 0).
    """
    cutoff = float(cutoff)
    if cutoff <= _SEGMENT:
        return composite_gauss_nodes(graded_edges(cutoff), 8)
    g_nodes, g_weights = composite_gauss_nodes(graded_edges(_SEGMENT), 8)
    n_seg = int(np.ceil(cutoff / _SEGMENT)) - 1
    edges = np.append(_SEGMENT * np.arange(1, n_seg + 1), cutoff)
    s_nodes, s_weights = composite_gauss_nodes(edges, 10)
    return np.concatenate([g_nodes, s_nodes]), np.concatenate([g_weights, s_weights])


def _grid_cutoff(t):
    """t rounded up to the segment grid of ``singular_halfline_nodes``."""
    return _SEGMENT * np.ceil(t / _SEGMENT)


def decay_cutoff(rate, hi=None):
    """Truncation point, at least 3, for integrands bounded by exp(-rate * t).

    The tail beyond it is below ABS_TOL.  A cap hi that would cut the tail
    short raises PrecisionError carrying the bound exp(-rate * hi) reached
    there, rather than truncating silently.
    """
    if rate <= 0:
        raise PrecisionError(
            f"decay_cutoff: nonpositive decay rate {rate}; integral not certified"
        )
    t = max(3.0, (np.log(1.0 / ABS_TOL) + 5.0) / rate)
    if hi is not None and t > hi:
        achieved = float(np.exp(-rate * hi))
        raise PrecisionError(
            f"decay_cutoff: decay rate {rate:.3g} needs t = {t:.4g} beyond the cap "
            f"{hi:.4g}; tail bound {achieved:.2e} there",
            achieved=achieved,
        )
    return t
