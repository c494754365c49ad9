"""Numpy forms of the special functions, Gauss-Jacobi rule, spline and Simpson rule.

The library needs one function of each: ``loggamma`` and ``digamma`` on
the complex plane, ``roots_jacobi`` for the translation kernel, the
not-a-knot cubic spline of the grid functions and T_lambda's tails, and
the cumulative Simpson rule of T_lambda's tail integrals.  Each is loop-free
over its points, except the spline's tridiagonal sweep, which runs over
the knots.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

# Godfrey's Lanczos coefficients, g = 607/128, 15 terms: relative error of
# Gamma below 1e-15 on Re z >= 0 in the form of ``loggamma``
_LANCZOS_C0 = 0.99999999999999709182
_LANCZOS = np.array([
    57.156235665862923517, -59.597960355475491248, 14.136097974741747174,
    -0.49191381609762019978, 0.33994649984811888699e-4, 0.46523628927048575665e-4,
    -0.98374475304879564677e-4, 0.15808870322491248884e-3, -0.21026444172410488319e-3,
    0.21743961811521264320e-3, -0.16431810653676389022e-3, 0.84418223983852743293e-4,
    -0.26190838401581408670e-4, 0.36899182659531622704e-5,
])
_LANCZOS_K = np.arange(float(_LANCZOS.size))
_LANCZOS_SHIFT = 607.0 / 128.0 - 0.5
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_2PI = math.log(2.0 * math.pi)

# digamma: shift by _PSI_SHIFT, then DLMF 5.11.2 with B_2 .. B_16
_PSI_SHIFT = np.arange(10.0)
_PSI_BERNOULLI = np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510])
_PSI_COEF = _PSI_BERNOULLI / (2.0 * np.arange(1.0, _PSI_BERNOULLI.size + 1.0))


def _reflection(z, left):
    """z - n and 2 pi i s on the points left, 1/2 and 2 pi i elsewhere.

    n is the integer nearest Re z and s = -1 where Im z has its sign bit
    (scipy's rule for the side of the cut), else 1.
    """
    z = np.where(left, z, 0.5)
    return z - np.rint(z.real), np.where(np.signbit(z.imag), -2j * np.pi, 2j * np.pi)


def loggamma(z):
    """Principal-branch log Gamma of a complex array, as scipy.special.loggamma.

    On Re z >= 0, Lanczos' form (SIAM J. Numer. Anal. B 1, 1964)
    (z - 1/2) log t - t + log(sqrt(2 pi) (c_0 + sum_k c_k / (z - 1 + k))),
    t = z + g - 1/2, with Godfrey's g = 607/128 coefficients; each log is
    continuous there.  Below, the reflection formula log pi - log sin(pi z)
    - log Gamma(1 - z), with log sin(pi z) = -log 2 + i pi s (1/2 - z) +
    log(-expm1(2 pi i s r)) (``_reflection``'s r and s): the continuation
    from sin(pi/2) = 1 along the half-plane of z, which neither overflows
    at large |Im z| nor cancels near the integers.  So the imaginary part
    is scipy's continuous branch (Hare, J. Algorithms 25, 1997); real z < 0
    with Im z = +0 (-0) lies on the upper (lower) side of the cut.  Poles
    are the caller's to exclude.
    """
    z = np.asarray(z, dtype=complex)
    left = z.real < 0.0
    reflect = left.any()
    w = np.where(left, 1.0 - z, z) if reflect else z
    t = w + _LANCZOS_SHIFT
    series = np.add.reduce(_LANCZOS / (w[..., None] + _LANCZOS_K), axis=-1) + _LANCZOS_C0
    out = (w - 0.5) * np.log(t) - t + np.log(series) + _LOG_SQRT_2PI
    if reflect:
        r, tau = _reflection(z, left)
        # log pi - log sin(pi z) = log 2 pi + tau/2 (z - 1/2) - log(-expm1(tau r))
        out = np.where(left, _LOG_2PI + 0.5 * tau * (z - 0.5) - np.log(-np.expm1(tau * r)) - out, out)
    return out


def digamma(z):
    """psi(z) of a complex array: reflection below Re z = 0, shift by 10, DLMF 5.11.2.

    psi(z) = psi(1 - z) - pi cot(pi z) on Re z < 0, with pi cot(pi z) =
    (tau/2) (E + 1) / (E - 1), E = exp(tau r) (``_reflection``'s r and
    tau = 2 pi i s).  On Re z >= 0, psi(z) = psi(z + 10) - sum_{j<10}
    1/(z + j) (DLMF 5.5.2), with the asymptotic series log w - 1/(2w) -
    sum_k B_2k / (2k w^2k) at w = z + 10 (DLMF 5.11.2), whose first omitted
    term is below 2e-18 there.  Poles are the caller's to exclude.
    """
    z = np.asarray(z, dtype=complex)
    left = z.real < 0.0
    reflect = left.any()
    x = np.where(left, 1.0 - z, z) if reflect else z
    w = x + _PSI_SHIFT.size
    inv2 = 1.0 / (w * w)
    powers = np.cumprod(np.broadcast_to(inv2[..., None], inv2.shape + (_PSI_COEF.size,)), axis=-1)
    out = (np.log(w) - 0.5 / w - np.add.reduce(powers * _PSI_COEF, axis=-1)
           - np.add.reduce(1.0 / (x[..., None] + _PSI_SHIFT), axis=-1))
    if reflect:
        r, tau = _reflection(z, left)
        em1 = np.expm1(tau * r)
        out = np.where(left, out - 0.5 * tau * (em1 + 2.0) / em1, out)
    return out


def _jacobi_p(n, a, b, x):
    """P_n^(a,b) at x by the three-term recurrence (DLMF 18.9.2)."""
    prev, cur = np.zeros_like(x), np.ones_like(x)
    for k in range(1, n + 1):
        if k == 1:
            nxt = (a + 1.0) + 0.5 * (a + b + 2.0) * (x - 1.0)
        else:
            s = 2.0 * k + a + b
            nxt = ((s - 1.0) * (s * (s - 2.0) * x + a * a - b * b) * cur
                   - 2.0 * (k + a - 1.0) * (k + b - 1.0) * s * prev) / (2.0 * k * (k + a + b) * (s - 2.0))
        prev, cur = cur, nxt
    return cur


def roots_jacobi(n, a, b):
    """n-point Gauss-Jacobi nodes and weights for (1-x)^a (1+x)^b on [-1, 1]; a, b > -1.

    Golub-Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
    the symmetric Jacobi matrix, refined by one Newton step on P_n; the
    weights are proportional to 1 / ((1 - x^2) P_n'(x)^2) at the nodes and
    scaled to the exact mass 2^(a+b+1) B(a+1, b+1).  The off-diagonal entry
    k = 1 carries (1+a+b)/(2+a+b-1), a 0/0 at a + b = -1 whose limit is 1;
    it is cancelled before evaluation.  For a = b the rule is made exactly
    symmetric.
    """
    k = np.arange(n, dtype=float)
    s = 2.0 * k + a + b
    diag = np.empty(n)
    diag[0] = (b - a) / (a + b + 2.0)
    diag[1:] = (b * b - a * a) / (s[1:] * (s[1:] + 2.0))
    off = np.empty(max(n - 1, 0))
    if n > 1:
        off[0] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))
        k, s = k[2:], s[2:]
        off[1:] = 4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0))
    off = np.sqrt(off)
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))

    def slope(x):
        # P_n' = (n+a+b+1)/2 P_(n-1)^(a+1,b+1)
        return 0.5 * (n + a + b + 1.0) * _jacobi_p(n - 1, a + 1.0, b + 1.0, x)

    x = x - _jacobi_p(n, a, b, x) / slope(x)
    w = 1.0 / ((1.0 - x) * (1.0 + x) * slope(x) ** 2)
    if a == b:
        x = 0.5 * (x - x[::-1])
        w = 0.5 * (w + w[::-1])
    mass = math.exp((a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0) + math.lgamma(b + 1.0)
                    - math.lgamma(a + b + 2.0))
    return x, w * (mass / w.sum())


def spline_coefficients(x, y):
    """Not-a-knot cubic spline through (x, y), n >= 4 knots: (4, n-1) piece coefficients.

    Row j multiplies (t - x_k)^(3-j) on piece k, as scipy's CubicSpline.c.
    The slopes solve scipy's tridiagonal system (its not-a-knot end rows
    included) by one elimination sweep without pivoting, which is partial
    pivoting's order on that system; y may be real or complex.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if x.size < 4:
        raise DomainError(f"not-a-knot spline: needs at least 4 knots, got {x.size}")
    dx = np.diff(x)
    slope = np.diff(y) / dx
    rhs = np.empty(x.size, dtype=slope.dtype)
    rhs[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    rhs[0] = ((dx[0] + 2.0 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
    # row i: lower[i] s[i-1] + diag[i] s[i] + upper[i] s[i+1] = rhs[i]
    h = dx.tolist()
    diag = [h[1]] + (2.0 * (dx[:-1] + dx[1:])).tolist() + [h[-2]]
    upper = [d0] + h[:-1]
    lower = h[1:] + [d1]
    r = rhs.tolist()
    for i in range(1, len(r)):
        m = lower[i - 1] / diag[i - 1]
        diag[i] -= m * upper[i - 1]
        r[i] -= m * r[i - 1]
    s = [0.0] * len(r)
    s[-1] = r[-1] / diag[-1]
    for i in range(len(r) - 2, -1, -1):
        s[i] = (r[i] - upper[i] * s[i + 1]) / diag[i]
    s = np.array(s, dtype=slope.dtype)
    t = (s[:-1] + s[1:] - 2.0 * slope) / dx
    coef = np.empty((4, x.size - 1), dtype=t.dtype)
    coef[0] = t / dx
    coef[1] = (slope - s[:-1]) / dx - t
    coef[2] = s[:-1]
    coef[3] = y[:-1]
    return coef


class CubicSpline:
    """The not-a-knot spline of ``spline_coefficients`` on knots x, by real or complex Horner.

    A point t takes the piece k with x_k <= t < x_(k+1), the end pieces
    beyond the knots, and is evaluated in u = t - x_k.
    """

    def __init__(self, x, y):
        self.x = np.asarray(x, dtype=float)
        self.c = spline_coefficients(self.x, y)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(self.x, t, side="right") - 1, 0, self.x.size - 2)
        u = t - self.x[k]
        c0, c1, c2, c3 = self.c
        return ((c0[k] * u + c1[k]) * u + c2[k]) * u + c3[k]


def cumulative_simpson(y, dx):
    """Cumulative integral of y (last axis) on a uniform grid of step dx, from 0.

    Each interval takes the three-point Simpson formula of scipy's
    cumulative_simpson, dx/12 (5 y_i + 8 y_(i+1) - y_(i+2)) on the even
    intervals and dx/12 (-y_(i-1) + 8 y_i + 5 y_(i+1)) on the odd ones and
    the last; the running sums are taken in order.  The result has y's
    shape and starts at 0.
    """
    y = np.asarray(y)
    f1, f2, f3 = y[..., :-2], y[..., 1:-1], y[..., 2:]
    first = dx / 12.0 * (5.0 * f1 + 8.0 * f2 - f3)
    second = dx / 12.0 * (-f1 + 8.0 * f2 + 5.0 * f3)
    pieces = np.empty(y.shape[:-1] + (y.shape[-1] - 1,), dtype=first.dtype)
    pieces[..., :-1:2] = first[..., ::2]
    pieces[..., 1::2] = second[..., ::2]
    pieces[..., -1] = second[..., -1]
    out = np.zeros(y.shape, dtype=first.dtype)
    np.cumsum(pieces, axis=-1, out=out[..., 1:])
    return out
