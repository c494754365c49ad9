"""Forward and inverse Fourier-Jacobi transforms of functions and measures."""

from __future__ import annotations

import numpy as np

from .core import JacobiParams, _on_array, _phi_rows, c_function, in_strip
from .errors import DomainError
from .grid import EvenMeasure
from .quadrature import _segment_count, composite_gauss_nodes


def _strip_lambda(params, lam, name):
    """lam as a complex array, refused when any point lies outside the strip."""
    lam = np.asarray(lam, dtype=complex)
    outside = ~in_strip(params, lam)
    if outside.any():
        raise DomainError(
            f"{name}={complex(lam[outside][0])} outside the strip (uncertified region)"
        )
    return lam


def forward_transform(params: JacobiParams, f, lam):
    """fhat(lam) = 2 int_0^tmax f(t) phi_lam(t) Delta(t) dt: the transform of f Delta dt.

    f is a GridFunction (numerically supported in [0, tmax]) or a callable
    paired with an explicit support bound via f.tmax.  It is transformed as
    EvenMeasure(density=f, density_measure="delta-weighted"), on the segment
    rule of ``integrate``.  Only certified for lam in the strip, where phi
    stays bounded.  lam is taken as in ``forward_transform_measure``.
    """
    lam = _strip_lambda(params, lam, "forward_transform: lambda")
    mu, segments = _as_measure(f, "forward_transform")
    return _transform(params, mu, lam, segments)


def forward_transform_measure(params: JacobiParams, mu: EvenMeasure, lam):
    """muhat(lam) = int phi_lam d mu = atom0 + sum_k W_k phi_lam(T_k).

    The points (T_k, W_k) are the measure's one discretization,
    ``EvenMeasure._points`` (a density is weighted by its declared reference
    measure, not automatically by Delta).  lam is a scalar (the result is a
    complex) or an array (the result has its shape).  phi is taken on the
    whole lambda x T grid in batched calls, and each lambda's row is summed
    on its own by the sum of ``EvenMeasure.total_mass``: a value does not
    depend on the other lambdas, and muhat(i rho) is exactly the mass.
    """
    lam = _strip_lambda(params, lam, "forward_transform_measure: lambda")
    return _transform(params, mu, lam)


def _as_measure(f, name):
    """The measure f(t) Delta(t) dt of f, which needs a support bound f.tmax, and its segments."""
    tmax = getattr(f, "tmax", None)
    if tmax is None:
        raise DomainError(f"{name}: f must carry a support bound tmax")
    return EvenMeasure(density=f, density_measure="delta-weighted"), _segment_count(tmax)


def _transform(params, mu, lam, segments=None):
    """atom0 + sum_k W_k phi_lam(T_k) over ``mu._points(params, segments)``, lam in the strip."""
    ts, ws = mu._points(params, segments)
    total = mu.atom0 + np.sum(ws * _phi_rows(params, lam, ts), axis=-1)
    return complex(total) if lam.ndim == 0 else total


def plancherel_density(params: JacobiParams, lam):
    """|c(lam)|^-2 for real lam; the removable point lam = 0 maps to 0.

    One ``c_function`` call for all of an array lam.
    """
    lam = np.asarray(lam, dtype=float)
    scalar = lam.ndim == 0
    lam = np.atleast_1d(lam)
    out = np.zeros(lam.shape, dtype=float)
    at = np.abs(lam) >= 1e-12
    if at.any():
        out[at] = 1.0 / np.abs(c_function(params, lam[at])) ** 2
    return float(out[0]) if scalar else out


def spectral_nodes(lambda_max, n_segments=24):
    """Deterministic order-10 Gauss-Legendre node set on [0, lambda_max]."""
    edges = np.linspace(0.0, float(lambda_max), n_segments + 1)
    return composite_gauss_nodes(edges, 10)


def inverse_transform(params: JacobiParams, fhat, t, lambda_max=40.0,
                      n_segments=None):
    """f(t) = (1/4 pi) int_0^lambda_max fhat(lam) phi_lam(t) |c(lam)|^-2 d lam.

    The integral is truncated at lambda_max and taken by order-10
    Gauss-Legendre rules on n_segments equal segments (by default two
    per unit of lambda_max, at least 16 and at most 2000);
    ``inversion_tail_estimate`` bounds what the truncation leaves out.
    fhat is a callable on real lam, called once on the whole node array,
    or node by node when it accepts only scalars.  t may be scalar or an
    array; all t share the node set, and phi is evaluated on the whole
    nodes x t grid in batched calls.
    """
    if n_segments is None:
        n_segments = min(max(16, int(lambda_max * 2)), 2000)
    nodes, weights = spectral_nodes(lambda_max, n_segments)
    fh = _on_array(fhat, nodes)
    dens = plancherel_density(params, nodes)
    coef = weights * fh * dens / (4.0 * np.pi)
    t = np.asarray(t, dtype=float)
    out = np.sum(coef[:, None] * _phi_rows(params, nodes, np.atleast_1d(t)), axis=0)
    return complex(out[0]) if t.ndim == 0 else out


def inversion_tail_estimate(params: JacobiParams, fhat, lambda_max, order=10):
    """Magnitude of the inversion integral over the last dyadic block
    [lambda_max/2, lambda_max]; an honest (heuristic) truncation indicator."""
    edges = np.linspace(lambda_max / 2.0, lambda_max, 9)
    nodes, weights = composite_gauss_nodes(edges, order)
    fh = _on_array(fhat, nodes)
    dens = plancherel_density(params, nodes)
    return float(np.sum(np.abs(weights * fh * dens)) / (4.0 * np.pi))


def riemann_lebesgue_check(params: JacobiParams, f_or_mu, lambdas):
    """Decay report for |fhat(lam_k)| (or |muhat(lam_k) - mu({0})|).

    Returns (values, monotone_flag) where monotone_flag says the sequence
    is strictly decreasing.
    """
    lambdas = np.array(lambdas, dtype=float)
    if np.any(np.diff(lambdas) <= 0):
        raise DomainError("riemann_lebesgue_check: lambda sequence must increase")
    if isinstance(f_or_mu, EvenMeasure):
        values = np.abs(forward_transform_measure(params, f_or_mu, lambdas) - f_or_mu.atom0)
    else:
        values = np.abs(forward_transform(params, f_or_mu, lambdas))
    values = values.tolist()
    monotone = all(b < a for a, b in zip(values, values[1:]))
    return values, monotone
