"""Complex Gauss hypergeometric function and complex log-gamma.

Everything else in the library reduces to the primitives here: the Gauss
series ``_series_2f1`` with its cancellation estimate, the routes built on
it behind ``gauss_2f1_array`` (real z < 1, complex parameters; each point's
route is chosen by ``_routes``), the near-one expansion ``hyp2f1_near_one``
and ``log_gamma`` on the cut plane.  Integral c-a-b near one and integral
a-b at z <= -4 share one logarithmic kernel, ``_hyp2f1_log_case``.  Each
of a, b, c is a scalar or a per-point array throughout.
"""

from __future__ import annotations

import math

import numpy as np

from ._numerics import digamma, loggamma
from .errors import DomainError, PrecisionError

MAX_TERMS = 100_000
_CONN_POLE_GAP = 1.0  # least distance from a-b to Z for the 1/(1-z) connection
_INT_GAP = 1e-8  # a-b (1/z side) or c-a-b (near one) this close to Z counts as integral
_BLOCK = 32  # series terms formed per numpy pass
_EPS = float(np.finfo(float).eps)


def is_nonpositive_integer(z):
    """True where z sits (within 1e-12) on {0, -1, -2, ...}; elementwise."""
    z = np.asarray(z, dtype=complex)
    r = np.rint(z.real)
    return (np.abs(z.imag) <= 1e-12) & (r <= 0) & (np.abs(z.real - r) <= 1e-12)


def _near_integer(z):
    z = np.asarray(z, dtype=complex)
    return (np.abs(z.imag) < _INT_GAP) & (np.abs(z.real - np.rint(z.real)) < _INT_GAP)


def log_gamma(z):
    """Principal-branch log Gamma, elementwise over an array z.

    Lanczos' form on Re z >= 0 and the reflection formula below it
    (``_numerics.loggamma``); its imaginary part is the continuous branch
    (Hare, J. Algorithms 25, 1997), so exp(log_gamma(z)) is always
    Gamma(z).  A pole anywhere raises.
    """
    z = np.asarray(z, dtype=complex)
    pole = is_nonpositive_integer(z)
    if pole.any():
        raise DomainError(f"log_gamma: pole at z={z[pole][0]} (nonpositive integer)")
    return loggamma(z)[()]


def _at(v, at):
    """A route's share of a parameter: all of a 0-d one, the points at of a per-point one."""
    return v if np.ndim(v) == 0 else v[at]


def _runs(*params):
    """Parameters per run of points that share them, and each point's run.

    Scalars come back as they are, with run None.  Per-point arrays (phi
    over rows of lambda gives runs of one lambda each) come back as the
    values of each run, with each point's run index, so work that depends
    on the parameters alone is done once per run.
    """
    params = tuple(np.asarray(v, dtype=complex) for v in params)
    if all(v.ndim == 0 for v in params):
        return params, None
    params = np.broadcast_arrays(*params)
    edge = np.zeros(params[0].shape, dtype=bool)
    edge[:1] = True
    for v in params:
        edge[1:] |= v[1:] != v[:-1]
    return tuple(v[edge] for v in params), np.cumsum(edge) - 1


def _spread(v, run, axis=-1):
    """Values formed once per run (on ``axis``) taken to every point of the run."""
    return v if run is None else np.take(v, run, axis=axis)


def _by_params(a, b, c, at):
    """(mask, a, b, c) for each run of the points at that share (a, b, c)."""
    params, run = _runs(_at(a, at), _at(b, at), _at(c, at))
    if run is None:
        yield (at, *map(complex, params))
        return
    idx = np.flatnonzero(at)
    for k in range(params[0].size):
        sel = np.zeros(at.shape, dtype=bool)
        sel[idx[run == k]] = True
        yield (sel, *(complex(v[k]) for v in params))


def _series_2f1(a, b, c, z, tol, log=False):
    """Power series sum_{n} (a)_n (b)_n / ((c)_n n!) z^n over an array z.

    Each of a, b, c is a scalar or an array with one value per point of z;
    the term ratio is formed once per run of points that share their
    parameters (``_runs``) and read per column.  With ``log``, term n is
    weighted by log z - psi_n, psi_n = psi(n+1) + psi(n+c) - psi(a+n) -
    psi(b+n), psi(n+c) on Re c (c is real there): the logarithmic series of
    DLMF 15.8.10.  psi_0 is formed once per run, and each block advances it
    by psi(x+1) = psi(x) + 1/x (DLMF 5.5.2) in one cumulative sum.

    Returns the sums and, per point, the cancellation estimate
    eps * max|term| / |sum|: the relative error that rounding in the largest
    term leaves in the sum (Pearson, Olver & Porter, Numer. Algorithms 74,
    2017).  Terms are formed ``_BLOCK`` at a time and summed in order, so a
    point's sum does not depend on the points that share the call.  A point
    stops once the last three terms of a block are each below
    tol * (1 - q) * |partial sum|, q the rate at which its terms fall, so
    that the geometric tail stays below tol too even for z near 1.  A point
    that stops leaves the working arrays, with its parameters, so no point
    runs as long as the slowest one.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    (a, b, c), run = _runs(a, b, c)
    if log:
        # psi_n per run, n the first index of the block
        first = digamma(np.stack(np.broadcast_arrays(1.0, c.real, a, b)))
        psi_n = first[0] + first[1] - first[2] - first[3]

    total = np.empty_like(z)
    peak = np.empty(z.shape)
    live = np.arange(z.size)
    zl = z.ravel()
    az = np.abs(zl)
    term = np.ones_like(zl)
    acc = np.log(zl) - _spread(psi_n, run) if log else np.ones_like(zl)
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
        # one ratio past the block: the rate at which the terms fall
        k = np.arange(n, n + _BLOCK + 1, dtype=float)[:, None]
        ratio = (a + k) * (b + k) / ((c + k) * (k + 1.0))
        if run is not None:
            # take keeps the block C-ordered, which the in-order sum below needs
            ratio = np.take(ratio, run, axis=1)
        terms = ratio[:-1] * zl
        np.cumprod(terms, axis=0, out=terms)
        terms *= term
        term = terms[-1].copy()
        if log:
            # psi_(n+1) .. psi_(n+_BLOCK): one row per index, one column per run
            j = k[:-1]
            steps = 1.0 / (j + 1.0) + 1.0 / (j + c.real) - 1.0 / (a + j) - 1.0 / (b + j)
            psi_k = psi_n + np.cumsum(steps, axis=0)
            psi_n = psi_k[-1]
            terms *= np.log(zl) - _spread(psi_k, run)
        # numpy sums a lone column pairwise but several row by row; cumsum
        # is row by row for one column too
        acc = acc + (terms.sum(axis=0) if zl.size > 1 else terms.cumsum(axis=0)[-1])
        mag = np.abs(terms)
        top = np.maximum(top, mag.max(axis=0))
        n += _BLOCK
        # the terms fall off like q^n, q -> |z|: the tail is |term| q/(1-q)
        q = az * np.maximum(1.0, np.abs(ratio[-1]))
        done = mag[-3:].max(axis=0) <= tol * np.abs(acc) * np.maximum(1.0 - q, 0.0)
        if done.any():
            total.flat[live[done]] = acc[done]
            peak.flat[live[done]] = top[done]
            keep = ~done
            live, zl, az = live[keep], zl[keep], az[keep]
            term, acc, top = term[keep], acc[keep], top[keep]
            if run is not None:
                run = run[keep]
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
    """Mask of points whose p, q, r are real and positive: no cancellation at x >= 0."""
    return (p.imag == 0) & (p.real > 0) & (q.imag == 0) & (q.real > 0) & (r.imag == 0) & (r.real > 0)


def _series_fits(x, sigma, tol):
    """Mask of x in [0, 1) whose series ends within half of MAX_TERMS.

    Past the parameters the terms fall like n^sigma x^n, so the stopping
    rule of ``_series_2f1`` is met after about
    (ln(1/tol) + ln(1/(1-x)) + sigma ln n) / (1-x) terms.
    """
    s = np.maximum(1.0 - x, 1e-300)
    need = math.log(1.0 / tol) - np.log(s) + np.maximum(sigma, 0.0) * math.log(MAX_TERMS)
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
    w = z / (z - 1.0)
    vals, cancel = _series_2f1(a, c - b, c, w, tol)
    return _pow_real_base(1.0 - z, -a) * vals, cancel


def _invz_2f1(a, b, c, z, tol):
    """Two-term z -> 1/z connection for large negative z; needs a-b not integer.

    ``_routes`` sends it no a-b within _INT_GAP of an integer.  Returns the
    values and the cancellation estimate of ``_connection``.
    """
    return _connection(a, b, c, -z, 1.0 / z, (a - c + 1.0, b - c + 1.0), tol)


def gamma_ratio(num, den):
    """prod Gamma(num) / prod Gamma(den), formed in log space; 0 at a pole of den.

    Each factor is a scalar or an array, all broadcast together, and one
    ``log_gamma`` pass serves them all; the ratio is 0 at the points where
    a factor of den has a pole.  The factors may leave the double range
    (|Gamma(i y)| ~ e^(-pi |y| / 2)) while the ratio does not.
    """
    n = len(num)
    factors = (*num, *den)
    args = np.empty((len(factors),) + np.broadcast(*factors).shape, dtype=complex)
    for k, v in enumerate(factors):
        args[k] = v
    pole = is_nonpositive_integer(args)
    zero = pole[n:].any(axis=0)
    if (pole[:n] & ~zero).any():
        raise DomainError(f"gamma_ratio: pole of a numerator factor at {args[:n][pole[:n] & ~zero][0]}")
    logs = loggamma(np.where(zero, 1.0, args))
    return np.where(zero, 0j, np.exp(logs[:n].sum(axis=0) - logs[n:].sum(axis=0)))[()]


def _conn_2f1(a, b, c, z, tol):
    """1/(1-z) connection for z < 0 (DLMF 15.8.3), with its cancellation estimate.

    2F1(a, b; c; z) = G(c) G(b-a) / (G(b) G(c-a)) (1-z)^-a 2F1(a, c-b; a-b+1; x)
                    + G(c) G(a-b) / (G(a) G(c-b)) (1-z)^-b 2F1(b, c-a; b-a+1; x)
    with x = 1/(1-z); needs a-b away from the integers.  For phi_lam(t),
    z = -sinh^2 t, it is the Harish-Chandra expansion
    c(lam) Phi_lam(t) + c(-lam) Phi_-lam(t) with x = cosh^-2 t (Koornwinder
    1984).
    """
    return _connection(a, b, c, 1.0 - z, 1.0 / (1.0 - z), (c - b, c - a), tol)


def _connection(a, b, c, base, x, uppers, tol):
    """Two-term connection sum over (p, q, r) = (a, b, uppers[0]), (b, a, uppers[1]):

        G(c) G(q-p) / (G(q) G(c-p)) base^-p 2F1(p, r; p-q+1; x).

    a, b and c are scalars or per-point arrays; the coefficients are formed
    once per run of points that share (a, b, c).  A term is skipped at the
    points where its coefficient vanishes.  Returns the values and the worse
    of the two series' cancellation estimates; the terms' own cancellation
    against each other is not estimated.
    """
    out = np.zeros(x.shape, dtype=complex)
    cancel = np.zeros(x.shape)
    (ra, rb, rc), run = _runs(a, b, c)
    coefs = _spread(gamma_ratio((rc, np.array([rb - ra, ra - rb])),
                                (np.array([rb, ra]), np.array([rc - ra, rc - rb]))), run)
    for (p, q), r, coef in zip(((a, b), (b, a)), uppers, coefs):
        at = coef != 0
        if not at.any():
            continue
        at = slice(None) if at.all() else np.broadcast_to(at, x.shape)
        p, r, s = (_at(v, at) for v in (p, r, p - q + 1.0))
        vals, est = _series_2f1(p, r, s, x[at], tol)
        out[at] += _at(coef, at) * _pow_real_base(base[at], -p) * vals
        cancel[at] = np.maximum(cancel[at], est)
    return out, cancel


# Routes of gauss_2f1_array, indexed by the codes of ``_routes``; each is
# looked up by name at call time, so a replaced module attribute is seen.
_ROUTES = ("_series_2f1", "_pfaff_2f1", "_invz_2f1", "_invz_degenerate", "_conn_2f1", "_mp_2f1")
DIRECT, PFAFF, INVZ, DEGENERATE, CONN, MPMATH = range(len(_ROUTES))


def _routes(a, b, c, z, tol):
    """Route code and ``certified`` flag per point of gauss_2f1_array.

    The one place where routes are chosen, from (a, b, c, z, tol) before
    any summing; a, b and c are scalars or per-point arrays, and every test
    that reads them is a per-point mask.  A point's home route is DIRECT,
    the power series, for z >= -0.5; PFAFF, (1-z)^-a 2F1(a, c-b; c; z/(z-1)), for -4 < z < -0.5;
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
    a, b, c = (np.asarray(v, dtype=complex) for v in (a, b, c))
    z = np.asarray(z, dtype=float)
    # each home's test is formed only when some point has that home
    home = np.where(z >= -0.5, DIRECT, np.where(z > -4.0, PFAFF, INVZ))
    ends = (z <= 0) | _series_fits(z, (a + b - c).real - 1.0, tol)
    certified = np.zeros(z.shape, dtype=bool)
    at = home == DIRECT
    if at.any():
        certified |= at & ends & (series_safe(a, b, z, tol) | (_one_signed(a, b, c) & (z >= 0)))
    at = home == PFAFF
    if at.any():
        certified |= at & (series_safe(a, c - b, z / (z - 1.0), tol) | _one_signed(a, c - b, c))
    d = a - b
    off = np.abs(d - np.rint(d.real))
    x = 1.0 / (1.0 - z)
    at = home == INVZ
    if at.any():
        exact = off <= 4.0 * _EPS * (np.abs(a) + np.abs(b))  # integral to rounding
        home = np.where(at & _near_integer(d), np.where(exact, DEGENERATE, MPMATH), home)
        inv = 1.0 / np.minimum(z, -4.0)  # read only where z <= -4
        certified |= ((home == INVZ) & series_safe(a, a - c + 1.0, inv, tol)
                      & series_safe(b, b - c + 1.0, inv, tol))
        at = home == DEGENERATE
        if at.any():
            poly = is_nonpositive_integer(a) | is_nonpositive_integer(b)
            poly |= is_nonpositive_integer(c - a) | is_nonpositive_integer(c - b)
            certified |= (at & ~poly & series_safe(a, c - b, x, tol)
                          & series_safe(b, c - a, x, tol))
    if certified.all():
        return home, certified
    conn = (off >= _CONN_POLE_GAP) & (z < 0) & _series_fits(x, c.real - 2.0, tol)
    stuck = (home == DIRECT) & ~ends
    route = np.where(certified, home, np.where(conn, CONN, np.where(stuck, MPMATH, home)))
    return route, certified


def gauss_2f1_array(a, b, c, z, tol=1e-12):
    """2F1(a, b; c; z) over a real array z < 1, complex parameters.

    a, b and c are scalars or arrays broadcast against z, so one call
    serves many parameter triples (phi or Phi at many lambda).  The result
    has the broadcast shape, at least 1-d.  ``_routes`` gives each point its
    route, and each route runs once on all of its points; only the
    integral-(a-b) route and mpmath run once per run of points that share
    (a, b, c).  Certified
    sums are kept, and so is any other sum whose cancellation estimate is
    at most tol; the rest go to mpmath.  A point's value does not depend on
    the points that share the call.
    """
    a, b, c = (np.asarray(v, dtype=complex) for v in (a, b, c))
    pole = is_nonpositive_integer(c)
    if pole.any():
        raise DomainError(f"2F1: c={complex(c[pole][0])} is zero or a negative integer")
    z = np.asarray(z, dtype=float)
    shape = np.broadcast_shapes(a.shape, b.shape, c.shape, z.shape) or (1,)
    z = np.broadcast_to(z, shape).ravel()
    a, b, c = (v if v.ndim == 0 else np.broadcast_to(v, shape).ravel() for v in (a, b, c))
    if (z >= 1.0).any():
        raise DomainError("2F1: argument on the cut [1, oo)")
    out = np.ones(z.shape, dtype=complex)
    at = ~np.broadcast_to((a == 0) | (b == 0), z.shape)  # 2F1 = 1 where a or b is 0
    if at.any():
        at = slice(None) if at.all() else at
        out[at] = _dispatch(_at(a, at), _at(b, at), _at(c, at), z[at], tol)
    return out.reshape(shape)


def _dispatch(a, b, c, z, tol):
    """Run each route of ``_routes`` on its points, then mpmath on the rest."""
    out = np.empty(z.shape, dtype=complex)
    route, certified = _routes(a, b, c, z, tol)
    cancel = np.full(z.shape, np.inf)
    for code in range(MPMATH):
        at = route == code
        if not at.any():
            continue
        if code == DEGENERATE:
            for sel, pa, pb, pc in _by_params(a, b, c, at):
                out[sel], cancel[sel] = _invz_degenerate(pa, pb, pc, z[sel], tol)
        else:
            out[at], cancel[at] = globals()[_ROUTES[code]](_at(a, at), _at(b, at), _at(c, at), z[at], tol)
    left = ~certified & ~(cancel <= tol)
    if left.any():
        for sel, pa, pb, pc in _by_params(a, b, c, left):
            out[sel] = _mp_2f1(pa, pb, pc, z[sel])
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

    a, b and c are scalars or per-point arrays that share c-a-b (-alpha for
    Phi).  Uses the two-term connection formula when c-a-b is not an integer
    and the logarithmic expansion (``_hyp2f1_log_case``) when it is.
    """
    a, b, c = (np.asarray(v, dtype=complex) for v in (a, b, c))
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if np.any((w <= 0) | (w >= 1)):
        raise DomainError("hyp2f1_near_one: w must lie in (0, 1)")
    s = c - a - b
    if _near_integer(s).any():
        return _hyp2f1_log_case(a, b, c, w, tol)[0]
    (ra, rb, rc), run = _runs(a, b, c)
    rs = rc - ra - rb
    coef1, coef2 = _spread(gamma_ratio((rc, np.array([rs, -rs])),
                                       (np.array([rc - ra, ra]), np.array([rc - rb, rb]))), run)
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
    through the Euler transform w^(c-a-b) 2F1(c-a, c-b; c; 1-w).  a, b and c
    are scalars or per-point arrays that share m.  Needs a, b (after the
    transform) not nonpositive integers.  Returns the values and the
    cancellation estimate eps * (largest term times coefficient) / |value|.
    """
    s = c - a - b
    m = np.rint(np.real(s))
    if not (_near_integer(s) & (m == m.flat[0])).all():
        raise DomainError("log-case 2F1: the points do not share one integral c-a-b")
    m = int(m.flat[0])
    pre = 1.0
    if m < 0:
        pre, a, b, m = _pow_real_base(w, s), c - a, c - b, -m
    if (is_nonpositive_integer(a) | is_nonpositive_integer(b)).any():
        raise DomainError("log-case 2F1: a or b is a nonpositive integer")
    logs, cancel = _series_2f1(a + m, b + m, m + 1.0, w, tol, log=True)
    (ra, rb, rc), run = _runs(a, b, c)
    coef = -((-w) ** m) * _spread(gamma_ratio((rc,), (ra, rb, m + 1.0)), run)
    out = coef * logs
    scale = cancel / _EPS * np.abs(out)
    if m > 0:
        k = np.arange(1.0, m)
        ratios = (ra[..., None] + k - 1.0) * (rb[..., None] + k - 1.0) / (k * (k - m))
        terms = _spread(np.cumprod(ratios, axis=-1), run, axis=0) * w[:, None] ** k
        coef = _spread(gamma_ratio((float(m), rc), (ra + m, rb + m)), run)
        out += coef * (1.0 + terms.sum(axis=1))
        scale = np.maximum(scale, abs(coef) * np.abs(terms).max(axis=1, initial=1.0))
    return pre * out, _EPS * scale / np.maximum(np.abs(out), 1e-300)
