"""Complex Gauss hypergeometric function and complex log-gamma.

Everything else in the library reduces to the primitives here: the Gauss
series ``_series_2f1`` with its cancellation estimate, the routes built on
it behind ``gauss_2f1_array`` (real z < 1, complex parameters; each point's
route is chosen by ``_routes``), the near-one expansion ``hyp2f1_near_one``
and ``log_gamma`` on the cut plane.  Integral c-a-b near one and integral
a-b at z <= -4 share one logarithmic kernel, ``_hyp2f1_log_case``.  The
Euler integral ``euler_integral_2f1`` is an independent cross-check.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.special import psi as digamma
from scipy.special import roots_jacobi

from .errors import DomainError, PrecisionError

MAX_TERMS = 100_000
_CONN_POLE_GAP = 1.0  # least distance from a-b to Z for the 1/(1-z) connection
_INT_GAP = 1e-8  # a-b (1/z side) or c-a-b (near one) this close to Z counts as integral
_BLOCK = 32  # series terms formed per numpy pass
_EPS = float(np.finfo(float).eps)

# Lanczos approximation, g = 7, 9 coefficients.
_LANCZOS_G = 7
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def is_nonpositive_integer(z):
    """True when z sits (within 1e-12) on {0, -1, -2, ...}."""
    z = complex(z)
    if abs(z.imag) > 1e-12:
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= 1e-12


def _near_integer(z):
    z = complex(z)
    return abs(z.imag) < _INT_GAP and abs(z.real - round(z.real)) < _INT_GAP


def log_gamma(z):
    """Principal-branch log Gamma via Lanczos with reflection for Re z < 1/2.

    For Re z < 1/2 the reflection formula may shift the imaginary part by a
    multiple of 2*pi; exp(log_gamma(z)) is always Gamma(z).
    """
    z = complex(z)
    if is_nonpositive_integer(z):
        raise DomainError(f"log_gamma: pole at z={z} (nonpositive integer)")
    if z.real < 0.5:
        return math.log(math.pi) - _log_sin_pi(z) - log_gamma(1.0 - z)
    zm = z - 1.0
    acc = _LANCZOS_COEF[0]
    for k in range(1, len(_LANCZOS_COEF)):
        acc += _LANCZOS_COEF[k] / (zm + k)
    t = zm + _LANCZOS_G + 0.5
    return _HALF_LOG_2PI + (zm + 0.5) * cmath.log(t) - t + cmath.log(acc)


def _log_sin_pi(z):
    """log sin(pi z), up to a multiple of 2 pi i; finite for any |Im z|.

    sin(pi z) itself overflows once |Im z| passes about 225; for
    |Im z| > 5 it is factored as -+(i/2) e^(-+i pi z) (1 - e^(+-2 i pi z)).
    """
    if abs(z.imag) <= 5.0:
        return cmath.log(cmath.sin(cmath.pi * z))
    s = 1.0 if z.imag > 0 else -1.0
    w = cmath.pi * z
    return -s * 1j * w + cmath.log(1.0 - cmath.exp(s * 2j * w)) + cmath.log(s * 0.5j)


def _series_2f1(a, b, c, z, tol, psi=None):
    """Power series sum_{n} (a)_n (b)_n / ((c)_n n!) z^n over an array z.

    With ``psi``, a function of the term indices n, term n is weighted by
    log z - psi(n): the logarithmic series of DLMF 15.8.10.

    Returns the sums and, per point, the cancellation estimate
    eps * max|term| / |sum|: the relative error that rounding in the largest
    term leaves in the sum (Pearson, Olver & Porter, Numer. Algorithms 74,
    2017).  Terms are formed ``_BLOCK`` at a time and summed in order, so a
    point's sum does not depend on the points that share the call.  A point
    stops once the last three terms of a block are each below
    tol * (1 - q) * |partial sum|, q the rate at which its terms fall, so
    that the geometric tail stays below tol too even for z near 1.  A point
    that stops leaves the working arrays, so no point runs as long as the
    slowest one.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    total = np.empty_like(z)
    peak = np.empty(z.shape)
    live = np.arange(z.size)
    zl = z.ravel()
    az = np.abs(zl)
    term = np.ones_like(zl)
    acc = np.ones_like(zl) if psi is None else np.log(zl) - psi(np.zeros(1))
    top = np.abs(acc)
    n = 0
    while live.size:
        if n >= MAX_TERMS:
            worst = float(np.max(np.abs(term) / np.maximum(np.abs(acc), 1e-300)))
            raise PrecisionError(
                f"2F1 series: no convergence within {MAX_TERMS} terms "
                f"(worst relative term {worst:.2e})",
                achieved=worst,
            )
        k = np.arange(n, n + _BLOCK, dtype=float)
        ratio = (a + k) * (b + k) / ((c + k) * (k + 1.0))
        terms = ratio[:, None] * zl
        np.cumprod(terms, axis=0, out=terms)
        terms *= term
        term = terms[-1].copy()
        if psi is not None:
            terms *= np.log(zl) - psi(k + 1.0)[:, None]
        # numpy sums a lone column pairwise but several row by row; cumsum
        # is row by row for one column too
        acc = acc + (terms.sum(axis=0) if zl.size > 1 else terms.cumsum(axis=0)[-1])
        mag = np.abs(terms)
        top = np.maximum(top, mag.max(axis=0))
        n += _BLOCK
        # the terms fall off like q^n, q -> |z|: the tail is |term| q/(1-q)
        q = az * max(1.0, abs((a + n) * (b + n) / ((c + n) * (n + 1.0))))
        done = mag[-3:].max(axis=0) <= tol * np.abs(acc) * np.maximum(1.0 - q, 0.0)
        if done.any():
            total.flat[live[done]] = acc[done]
            peak.flat[live[done]] = top[done]
            keep = ~done
            live, zl, az = live[keep], zl[keep], az[keep]
            term, acc, top = term[keep], acc[keep], top[keep]
    return total, _EPS * peak / np.maximum(np.abs(total), 1e-300)


def series_safe(p, q, x, tol):
    """Mask of points whose series sum_n (p)_n (q)_n/((r)_n n!) x^n keeps tol.

    For |p q| large against the lower parameter the terms grow like those
    of I_nu(2 sqrt|p q x|) while the sum stays of the size of J_nu, so the
    series loses about 2 sqrt|p q x| natural-log digits to cancellation.
    It is kept while that stays below ln(tol / eps).
    """
    if not tol > 0:
        raise DomainError("2F1: tol must be positive")
    return 2.0 * np.sqrt(np.abs(p * q) * np.abs(x)) < math.log(tol / _EPS)


def _one_signed(p, q, r):
    """True when p, q, r are real and positive: no cancellation at x >= 0."""
    return all(v.imag == 0 and v.real > 0 for v in (p, q, r))


def _series_fits(x, sigma, tol):
    """Mask of x in [0, 1) whose series ends within half of MAX_TERMS.

    Past the parameters the terms fall like n^sigma x^n, so the stopping
    rule of ``_series_2f1`` is met after about
    (ln(1/tol) + ln(1/(1-x)) + sigma ln n) / (1-x) terms.
    """
    s = np.maximum(1.0 - x, 1e-300)
    need = math.log(1.0 / tol) - np.log(s) + max(sigma, 0.0) * math.log(MAX_TERMS)
    return need <= 0.5 * MAX_TERMS * s


def _mp_2f1(a, b, c, z_vals):
    """2F1 at 40 digits for the points no double-precision route certifies."""
    import mpmath as mp

    out = np.empty(np.shape(z_vals), dtype=complex)
    with mp.workdps(40):
        for i, zv in enumerate(np.atleast_1d(z_vals)):
            out[i] = complex(mp.hyp2f1(a, b, c, float(zv)))
    return out


def _pow_real_base(x, p):
    """x**p for array x > 0 and complex exponent p."""
    return np.exp(np.asarray(p) * np.log(np.asarray(x, dtype=float)))


def _pfaff_2f1(a, b, c, z, tol):
    """Pfaff: (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)) for z < 0, and the series' estimate."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    w = z / (z - 1.0)
    vals, cancel = _series_2f1(a, c - b, c, w, tol)
    return _pow_real_base(1.0 - z, -a) * vals, cancel


def _invz_2f1(a, b, c, z, tol):
    """Two-term z -> 1/z connection for large negative z; needs a-b not integer.

    Returns the values and the cancellation estimate of ``_connection``.
    """
    if _near_integer(a - b):
        raise PrecisionError(
            f"2F1: 1/z connection degenerate (a-b={a - b} near integer)"
        )
    z = np.atleast_1d(np.asarray(z, dtype=float))
    return _connection(a, b, c, -z, 1.0 / z, (a - c + 1.0, b - c + 1.0), tol)


def gamma_ratio(num, den):
    """prod Gamma(num) / prod Gamma(den), formed in log space; 0 at a pole of den.

    The factors may leave the double range (|Gamma(i y)| ~ e^(-pi |y| / 2))
    while the ratio does not.
    """
    if any(is_nonpositive_integer(d) for d in den):
        return 0j
    return cmath.exp(sum(log_gamma(v) for v in num) - sum(log_gamma(v) for v in den))


def _conn_2f1(a, b, c, z, tol):
    """1/(1-z) connection for z < 0 (DLMF 15.8.3), with its cancellation estimate.

    2F1(a, b; c; z) = G(c) G(b-a) / (G(b) G(c-a)) (1-z)^-a 2F1(a, c-b; a-b+1; x)
                    + G(c) G(a-b) / (G(a) G(c-b)) (1-z)^-b 2F1(b, c-a; b-a+1; x)
    with x = 1/(1-z); needs a-b away from the integers.  For phi_lam(t),
    z = -sinh^2 t, it is the Harish-Chandra expansion
    c(lam) Phi_lam(t) + c(-lam) Phi_-lam(t) with x = cosh^-2 t (Koornwinder
    1984).
    """
    z = np.asarray(z, dtype=float)
    return _connection(a, b, c, 1.0 - z, 1.0 / (1.0 - z), (c - b, c - a), tol)


def _connection(a, b, c, base, x, uppers, tol):
    """Two-term connection sum over (p, q, r) = (a, b, uppers[0]), (b, a, uppers[1]):

        G(c) G(q-p) / (G(q) G(c-p)) base^-p 2F1(p, r; p-q+1; x).

    A term whose coefficient vanishes is skipped.  Returns the values and
    the worse of the two series' cancellation estimates; the terms' own
    cancellation against each other is not estimated.
    """
    out = np.zeros(x.shape, dtype=complex)
    cancel = np.zeros(x.shape)
    for (p, q), r in zip(((a, b), (b, a)), uppers):
        coef = gamma_ratio((c, q - p), (q, c - p))
        if coef != 0:
            vals, est = _series_2f1(p, r, p - q + 1.0, x, tol)
            out += coef * _pow_real_base(base, -p) * vals
            cancel = np.maximum(cancel, est)
    return out, cancel


# Routes of gauss_2f1_array, indexed by the codes of ``_routes``; each is
# looked up by name at call time, so a replaced module attribute is seen.
_ROUTES = ("_series_2f1", "_pfaff_2f1", "_invz_2f1", "_invz_degenerate", "_conn_2f1", "_mp_2f1")
DIRECT, PFAFF, INVZ, DEGENERATE, CONN, MPMATH = range(len(_ROUTES))


def _routes(a, b, c, z, tol):
    """Route code and ``certified`` flag per point of gauss_2f1_array.

    The one place where routes are chosen, from (a, b, c, z, tol) before
    any summing.  A point's home route is DIRECT, the power series, for
    z >= -0.5; PFAFF, (1-z)^-a 2F1(a, c-b; c; z/(z-1)), for -4 < z < -0.5;
    for z <= -4, INVZ, the two-term 1/z connection, or, when a-b is
    integral, DEGENERATE: Pfaff onto the near-one logarithmic series in
    x = 1/(1-z) (DLMF 15.8.10, ``_invz_degenerate``).  An a-b within
    _INT_GAP of an integer but off it by more than rounding has MPMATH as
    its home: the 1/z connection sits at a Gamma pole there, and the log
    series would sum at the nearest integer, an error of the offset's size.
    The point is certified when ``series_safe`` holds for every series its
    home route sums (|a b z| direct; |a (c-b) w|, w = z/(z-1), Pfaff;
    |a (a-c+1) / z| and |b (b-c+1) / z| 1/z; |a (c-b) x| and |b (c-a) x|
    degenerate, unless a polynomial is summed), or when the series' terms
    are all of one sign (direct at z >= 0, Pfaff); the direct series at
    z > 0 must also end within MAX_TERMS.  For phi this holds roughly
    while |lam sinh t| < ln(tol/eps).

    An uncertified point with z < 0 takes CONN, the 1/(1-z) connection
    (DLMF 15.8.3; for phi the Harish-Chandra expansion
    c(lam) Phi_lam + c(-lam) Phi_-lam), when a-b lies at distance >= 1 from
    the integers and that series ends within MAX_TERMS.  Any other
    uncertified point keeps its home route, except that a direct series
    that would not end takes MPMATH.  gauss_2f1_array keeps certified sums
    and those whose cancellation estimate is at most tol, and sends the
    rest to mpmath at 40 digits, the last resort.
    """
    z = np.asarray(z, dtype=float)
    d = a - b
    off = abs(d - round(d.real))
    exact = off <= 4.0 * _EPS * (abs(a) + abs(b))  # integral to rounding
    far_home = INVZ if not _near_integer(d) else DEGENERATE if exact else MPMATH
    home = np.where(z >= -0.5, DIRECT, np.where(z > -4.0, PFAFF, far_home))
    ends = (z <= 0) | _series_fits(z, (a + b - c).real - 1.0, tol)
    x = 1.0 / (1.0 - z)
    if far_home == DEGENERATE:
        poly = any(is_nonpositive_integer(v) for v in (a, b, c - a, c - b))
        far = series_safe(a, c - b, x, tol) & series_safe(b, c - a, x, tol) & (not poly)
    else:
        inv = 1.0 / np.minimum(z, -4.0)  # read only where z <= -4
        far = series_safe(a, a - c + 1.0, inv, tol) & series_safe(b, b - c + 1.0, inv, tol)
        far &= far_home == INVZ  # an MPMATH home is not certified
    certified = np.where(
        home == DIRECT,
        (series_safe(a, b, z, tol) | (_one_signed(a, b, c) & (z >= 0))) & ends,
        np.where(
            home == PFAFF,
            series_safe(a, c - b, z / (z - 1.0), tol) | _one_signed(a, c - b, c),
            far,
        ),
    )
    conn = (off >= _CONN_POLE_GAP) & (z < 0) & _series_fits(x, c.real - 2.0, tol)
    stuck = (home == DIRECT) & ~ends
    route = np.where(certified, home, np.where(conn, CONN, np.where(stuck, MPMATH, home)))
    return route, certified


def gauss_2f1_array(a, b, c, z, tol=1e-12):
    """2F1(a, b; c; z) for fixed complex parameters over a real array z < 1.

    ``_routes`` gives each point its route, and each route runs once on all
    of its points.  Certified sums are kept, and so is any other sum whose
    cancellation estimate is at most tol; the rest go to mpmath.
    """
    a = complex(a)
    b = complex(b)
    c = complex(c)
    if is_nonpositive_integer(c):
        raise DomainError(f"2F1: c={c} is zero or a negative integer")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z >= 1.0):
        raise DomainError("2F1: argument on the cut [1, oo)")
    out = np.empty(z.shape, dtype=complex)
    if a == 0 or b == 0:
        out[:] = 1.0
        return out
    route, certified = _routes(a, b, c, z, tol)
    cancel = np.full(z.shape, np.inf)
    for code in range(MPMATH):
        at = route == code
        if at.any():
            out[at], cancel[at] = globals()[_ROUTES[code]](a, b, c, z[at], tol)
    left = ~certified & ~(cancel <= tol)
    if left.any():
        out[left] = _mp_2f1(a, b, c, z[left])
    return out


def _invz_degenerate(a, b, c, z, tol):
    """2F1 at integral a-b and z <= -4, with its cancellation estimate.

    By Pfaff, 2F1(a, b; c; z) = (1-z)^-a 2F1(a, c-b; c; 1-x), x = 1/(1-z),
    whose c - a - (c-b) = b - a is integral: the near-one log series (DLMF
    15.8.10, ``_hyp2f1_log_case``) in x <= 1/5.  Where a, b, c-a or c-b is
    a nonpositive integer, each form that ends (Pfaff either way round, the
    z series at exactly integral a or b) is summed instead, and each point
    keeps the least estimate: 2F1(1, -10; 50; -60) keeps 3 digits in w, 16 in z.
    """
    sums = [_pfaff_2f1(p, q, c, z, tol) for p, q in ((a, b), (b, a))
            if is_nonpositive_integer(p) or is_nonpositive_integer(c - q)]
    if any(v.imag == 0 and v.real <= 0 and v.real.is_integer() for v in (a, b)):
        sums.append(_series_2f1(a, b, c, z, tol))
    if sums:
        vals, cancel = zip(*sums)
        return np.choose(np.argmin(cancel, axis=0), vals), np.min(cancel, axis=0)
    vals, cancel = _hyp2f1_log_case(a, c - b, c, 1.0 / (1.0 - z), tol)
    return _pow_real_base(1.0 - z, -a) * vals, cancel


def gauss_2f1(a, b, c, z, tol=1e-12):
    """Scalar 2F1(a, b; c; z), z real < 1, complex parameters."""
    if tol <= 0:
        raise DomainError("2F1: tol must be positive")
    return complex(gauss_2f1_array(a, b, c, [float(np.real(z))], tol)[0])


# --- connection at z near 1 (w = 1 - z), used by the second-kind solution ---

def hyp2f1_near_one(a, b, c, w, tol=1e-12):
    """2F1(a, b; c; 1-w) through the w-expansion, for array w in (0, 1).

    Uses the two-term connection formula when c-a-b is not an integer and
    the logarithmic expansion (``_hyp2f1_log_case``) when it is.
    """
    a = complex(a)
    b = complex(b)
    c = complex(c)
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if np.any((w <= 0) | (w >= 1)):
        raise DomainError("hyp2f1_near_one: w must lie in (0, 1)")
    s = c - a - b
    if _near_integer(s):
        return _hyp2f1_log_case(a, b, c, w, tol)[0]
    coef1 = gamma_ratio((c, s), (c - a, c - b))
    coef2 = gamma_ratio((c, -s), (a, b))
    t1 = coef1 * _series_2f1(a, b, 1.0 - s, w, tol)[0]
    t2 = coef2 * _pow_real_base(w, s) * _series_2f1(c - a, c - b, 1.0 + s, w, tol)[0]
    return t1 + t2


def _hyp2f1_log_case(a, b, c, w, tol):
    """2F1(a, b; c; 1-w) for integral m = c-a-b, array w in (0, 1).

    DLMF 15.8.10, for m >= 0:
        G(m) G(c) / (G(a+m) G(b+m)) sum_{k<m} (a)_k (b)_k / (k! (1-m)_k) w^k
        - (-w)^m G(c) / (G(a) G(b)) sum_k tau_k (log w - psi_k),
    tau_k the terms of 2F1(a+m, b+m; m+1; w) / m! and
    psi_k = psi(k+1) + psi(k+m+1) - psi(a+k+m) - psi(b+k+m); m < 0 goes
    through the Euler transform w^(c-a-b) 2F1(c-a, c-b; c; 1-w).  Needs a, b
    (after it) not nonpositive integers.  Returns the values and the
    cancellation estimate eps * (largest term times coefficient) / |value|.
    """
    s = c - a - b
    m = round(s.real)
    pre = 1.0
    if m < 0:
        pre, a, b, m = _pow_real_base(w, s), c - a, c - b, -m
    if is_nonpositive_integer(a) or is_nonpositive_integer(b):
        raise DomainError("log-case 2F1: a or b is a nonpositive integer")

    def psi(k):
        return digamma(k + 1.0) + digamma(k + m + 1.0) - digamma(a + m + k) - digamma(b + m + k)

    logs, cancel = _series_2f1(a + m, b + m, m + 1.0, w, tol, psi)
    coef = -((-w) ** m) * gamma_ratio((c,), (a, b, m + 1.0))
    out = coef * logs
    scale = cancel / _EPS * np.abs(out)
    if m > 0:
        k = np.arange(1.0, m)
        terms = np.cumprod((a + k - 1.0) * (b + k - 1.0) / (k * (k - m))) * w[:, None] ** k
        coef = gamma_ratio((float(m), c), (a + m, b + m))
        out += coef * (1.0 + terms.sum(axis=1))
        scale = np.maximum(scale, abs(coef) * np.abs(terms).max(axis=1, initial=1.0))
    return pre * out, _EPS * scale / np.maximum(np.abs(out), 1e-300)


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
