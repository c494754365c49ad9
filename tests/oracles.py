"""Independent reference routes that only the tests use.

Each reaches its quantity by a route the library does not take: the Euler
integral of 2F1 by Gauss-Jacobi quadrature, d/dx phi_{ix}(t) at x = rho by
integrating its chain-rule form, and grid evaluation and translation in
complex arithmetic throughout (the library keeps a real function real).
"""

import cmath

import numpy as np
from scipy.special import roots_jacobi

from fourierjacobi._numerics import spline_coefficients
from fourierjacobi.errors import DomainError, PrecisionError
from fourierjacobi.special import gauss_2f1_array, log_gamma
from fourierjacobi.translation import _kernel_nodes


def euler_integral_2f1(a, b, c, z):
    """Quadrature of the Euler integral representation of 2F1.

    Gamma(c)/(Gamma(b)Gamma(c-b)) * int_0^1 s^(b-1) (1-s)^(c-b-1) (1-sz)^(-a) ds,
    valid for Re c > Re b > 0 and z < 1.  Gauss-Jacobi nodes absorb the
    endpoint singularities; 192 nodes are doubled once as an internal
    consistency check, which must agree to 1e-8 relative.
    """
    a = complex(a)
    b = complex(b)
    c = complex(c)
    z = float(np.real(z))
    if not (c.real > b.real > 0):
        raise DomainError("euler_integral_2f1 requires Re c > Re b > 0")
    if z >= 1.0:
        raise DomainError("euler_integral_2f1: z on the cut [1, oo)")

    def estimate(n):
        # weight (1-x)^(Re(c-b)-1) (1+x)^(Re b - 1) on [-1, 1], s=(1+x)/2
        xj, wj = roots_jacobi(n, (c - b).real - 1.0, b.real - 1.0)
        s = 0.5 * (1.0 + xj)
        onems = 0.5 * (1.0 - xj)
        rest = np.exp(
            1j * b.imag * np.log(s)
            + 1j * (c - b).imag * np.log(onems)
            - a * np.log(1.0 - s * z)
        )
        scale = 2.0 ** (-(b.real - 1.0) - ((c - b).real - 1.0) - 1.0)
        return scale * np.sum(wj * rest)

    coarse = estimate(192)
    fine = estimate(384)
    err = abs(fine - coarse)
    if err > 1e-8 * max(1.0, abs(fine)):
        raise PrecisionError(
            f"euler_integral_2f1: quadrature not converged (delta {err:.2e})",
            achieved=err,
        )
    norm = cmath.exp(log_gamma(c) - log_gamma(b) - log_gamma(c - b))
    return norm * fine


def phi_dx_at_rho_closed_form(params, t, n_nodes=80, tol=1e-12):
    """Closed-form route to d/dx phi_{ix}(t)|_{x=rho}.

    Integrates g'(u) = rho sinh(2u)/(2(alpha+1)) 2F1(rho+1, 1; alpha+2;
    -sinh^2 u) from 0 to t (the chain-rule form of the parameter
    derivative; the finite-difference value is the ground truth it is
    checked against).
    """
    t = float(t)
    if t <= 0:
        raise DomainError("phi_dx_at_rho requires t > 0")
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    u = 0.5 * t * (x + 1.0)
    wu = 0.5 * t * w
    vals = gauss_2f1_array(
        params.rho + 1.0, 1.0, params.alpha + 2.0, -np.sinh(u) ** 2, tol
    ).real
    integrand = params.rho * np.sinh(2.0 * u) / (2.0 * (params.alpha + 1.0)) * vals
    return float(np.sum(wu * integrand))


def complex_spline_coefficients(f):
    """The library's not-a-knot spline of a GridFunction's samples, fitted per real plane.

    Returned as complex (4, n - 1) piecewise coefficients, highest degree
    first, so ``complex_horner`` evaluates both planes in one complex pass.
    """
    coef = np.empty((4, f.n - 1), dtype=complex)
    coef.real = spline_coefficients(f.ts, f.values.real)
    coef.imag = spline_coefficients(f.ts, f.values.imag)
    return coef


def complex_horner(f, coef, t):
    """Complex-coefficient Horner of the spline pieces on f's uniform grid.

    Piece k = floor(|t| / dt), capped at n - 2, in u = |t| - k dt, with
    |t| clamped to tmax; every value is complex, whatever the samples are.
    """
    t = np.minimum(np.abs(np.asarray(t, dtype=float)), f.tmax)
    k = np.fmin(t / f.dt, f.n - 2).astype(np.intp)
    u = t - k * f.dt
    out = coef[0][k] * u
    for c in coef[1:3]:
        out += c[k]
        out *= u
    return out + coef[3][k]


def translate_batch_complex(params, f, s_array, t_array, n_r=32, n_psi=32):
    """tau_s f(t) on the |s| x |t| grid with every kernel value made complex.

    The same kernel nodes and chunks of whole (s, t) pairs as the library,
    but each pair's values are reduced by a complex pairwise sum.
    """
    r, cos_psi, sin_psi, w = _kernel_nodes(params.alpha, params.beta, n_r, n_psi)
    s = np.abs(np.asarray(s_array, dtype=float)).ravel()
    t = np.abs(np.asarray(t_array, dtype=float)).ravel()
    a = np.outer(np.cosh(s), np.cosh(t)).ravel()
    b = np.outer(np.sinh(s), np.sinh(t)).ravel()
    out = np.empty(a.size, dtype=complex)
    step = max(1, 16384 // w.size)
    for lo in range(0, a.size, step):
        ak = a[lo:lo + step, None]
        bk = b[lo:lo + step, None]
        # arccosh |a + r e^{i psi} b|, rounded as the library rounds it
        x = np.square(ak + r * cos_psi * bk) + np.square(r * sin_psi * bk)
        args = np.arccosh(np.maximum(np.sqrt(x), 1.0))
        vals = np.asarray(f(args.ravel()), dtype=complex).reshape(args.shape)
        out[lo:lo + step] = np.sum(vals * w, axis=-1)
    return out.reshape(s.size, t.size)
