"""Forward and inverse Fourier-Jacobi transforms of functions and measures."""

from __future__ import annotations

import numpy as np

from .core import JacobiParams, c_function, in_strip, phi, weight_delta
from .errors import DomainError
from .grid import EvenMeasure
from .quadrature import composite_gauss_nodes, integrate


def forward_transform(params: JacobiParams, f, lam):
    """fhat(lam) = 2 int_0^tmax f(t) phi_lam(t) Delta(t) dt.

    f is a GridFunction (numerically supported in [0, tmax]) or a callable
    paired with an explicit support bound via f.tmax.  Only certified for
    lam in the strip, where phi stays bounded.
    """
    lam = complex(lam)
    if not in_strip(params, lam):
        raise DomainError(
            f"forward_transform: lambda={lam} outside the strip (uncertified region)"
        )
    tmax = getattr(f, "tmax", None)
    if tmax is None:
        raise DomainError("forward_transform: f must carry a support bound tmax")

    def integrand(t):
        return f(t) * phi(params, lam, t) * weight_delta(params, t)

    return complex(2.0 * integrate(integrand, 0.0, tmax))


def forward_transform_measure(params: JacobiParams, mu: EvenMeasure, lam):
    """muhat(lam) = int phi_lam d mu: atoms plus density contribution.

    The density is integrated against its declared reference measure (the
    measure is the full d mu, not automatically Delta-weighted).
    """
    lam = complex(lam)
    if not in_strip(params, lam):
        raise DomainError(
            f"forward_transform_measure: lambda={lam} outside the strip"
        )
    total = mu.atom0
    if mu.atoms:
        ts, ws = zip(*mu.atoms)
        total += sum(w * v for w, v in zip(ws, phi(params, lam, np.array(ts))))
    if mu.density is not None:
        if mu.density_measure == "delta-weighted":
            def integrand(t):
                return mu.density(t) * phi(params, lam, t) * weight_delta(params, t)
        else:
            def integrand(t):
                return mu.density(t) * phi(params, lam, t)
        total += 2.0 * integrate(integrand, 0.0, mu.density.tmax)
    return complex(total)


def plancherel_density(params: JacobiParams, lam):
    """|c(lam)|^-2 for real lam; the removable point lam = 0 maps to 0."""
    lam = np.asarray(lam, dtype=float)
    scalar = lam.ndim == 0
    lam = np.atleast_1d(lam)
    out = np.zeros(lam.shape, dtype=float)
    for i, x in enumerate(lam):
        if abs(x) < 1e-12:
            out[i] = 0.0
        else:
            out[i] = 1.0 / abs(c_function(params, complex(x))) ** 2
    return float(out[0]) if scalar else out


def spectral_nodes(lambda_max, n_segments=24, order=10):
    """Deterministic Gauss-Legendre node set on [0, lambda_max]."""
    edges = np.linspace(0.0, float(lambda_max), n_segments + 1)
    return composite_gauss_nodes(edges, order)


def inverse_transform(params: JacobiParams, fhat, t, lambda_max=40.0,
                      n_segments=None, order=10):
    """f(t) = (1/4 pi) int_0^lambda_max fhat(lam) phi_lam(t) |c(lam)|^-2 d lam.

    The integral is truncated at lambda_max and taken by Gauss-Legendre
    rules of the given order on n_segments equal segments (by default two
    per unit of lambda_max, at least 16 and at most 2000);
    ``inversion_tail_estimate`` bounds what the truncation leaves out.
    fhat is a callable on real lam, called once on the whole node array,
    or node by node when it accepts only scalars.  t may be scalar or an
    array; all t share the node set.
    """
    if n_segments is None:
        n_segments = min(max(16, int(lambda_max * 2)), 2000)
    nodes, weights = spectral_nodes(lambda_max, n_segments, order)
    try:
        fh = np.asarray(fhat(nodes), dtype=complex)
        if fh.shape != nodes.shape:
            raise ValueError("fhat(nodes) does not match the shape of nodes")
    except (TypeError, ValueError):
        fh = np.array([complex(fhat(x)) for x in nodes])
    dens = plancherel_density(params, nodes)
    coef = weights * fh * dens / (4.0 * np.pi)
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t_arr = np.atleast_1d(t)
    out = np.zeros(t_arr.shape, dtype=complex)
    for c_k, lam_k in zip(coef, nodes):
        out += c_k * phi(params, complex(lam_k), t_arr)
    return complex(out[0]) if scalar else out


def inversion_tail_estimate(params: JacobiParams, fhat, lambda_max, order=10):
    """Magnitude of the inversion integral over the last dyadic block
    [lambda_max/2, lambda_max]; an honest (heuristic) truncation indicator."""
    edges = np.linspace(lambda_max / 2.0, lambda_max, 9)
    nodes, weights = composite_gauss_nodes(edges, order)
    fh = np.array([complex(fhat(x)) for x in nodes])
    dens = plancherel_density(params, nodes)
    return float(np.sum(np.abs(weights * fh * dens)) / (4.0 * np.pi))


def riemann_lebesgue_check(params: JacobiParams, f_or_mu, lambdas):
    """Decay report for |fhat(lam_k)| (or |muhat(lam_k) - mu({0})|).

    Returns (values, monotone_flag) where monotone_flag says the sequence
    is strictly decreasing.
    """
    lambdas = [float(x) for x in lambdas]
    if any(b <= a for a, b in zip(lambdas, lambdas[1:])):
        raise DomainError("riemann_lebesgue_check: lambda sequence must increase")
    values = []
    for lam in lambdas:
        if isinstance(f_or_mu, EvenMeasure):
            v = forward_transform_measure(params, f_or_mu, lam)
            values.append(abs(v - f_or_mu.atom0))
        else:
            values.append(abs(forward_transform(params, f_or_mu, lam)))
    monotone = all(b < a for a, b in zip(values, values[1:]))
    return values, monotone
