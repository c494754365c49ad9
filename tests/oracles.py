"""Independent reference routes that only the tests use.

Each reaches its quantity by a route the library does not take: the Euler
integral of 2F1 by Gauss-Jacobi quadrature, and d/dx phi_{ix}(t) at x = rho
by integrating its chain-rule form.
"""

import cmath

import numpy as np
from scipy.special import roots_jacobi

from fourierjacobi.errors import DomainError, PrecisionError
from fourierjacobi.special import gauss_2f1_array, log_gamma


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
