"""Named verification suites behind the CLI and the acceptance tests.

Each suite draws its sample points deterministically from the configured
seed, runs one family of identity checks, and returns a JSON-ready dict
{suite, cases, max_err, pass} with cases sorted by id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import JacobiParams, _phi_rows, phi, phi_dx_at_rho
from .errors import DomainError
from .grid import GridFunction, gaussian_bump
from .resolvent import (
    TLambdaOperator,
    b_hat,
    b_hat_exact,
    b_lambda,
    convolve_b_spectral,
    t_lambda_hat,
    wronskian_bracket,
    wronskian_exact,
)
from .tauberian import resolvent_transform
from .transform import forward_transform, riemann_lebesgue_check
from .translation import l10_defect, translate

STANDARD_PARAMS = [(0.5, -0.5), (1.0, 0.0), (2.3, 0.7)]
REGIME_PARAMS = [(2.3, 0.7), (1.2, 1.2), (1.5, -0.5)]  # generic, a=b, b=-1/2


@dataclass
class RunConfig:
    """Shared knobs for suites and the CLI."""

    alpha: float = 0.5
    beta: float = -0.5
    tmax: float = 8.0
    n: int = 1025
    seed: int = 0

    def params(self) -> JacobiParams:
        return JacobiParams(self.alpha, self.beta)


def _report(name, cases, tol):
    cases = sorted(cases, key=lambda c: c["id"])
    max_err = max((c["err"] for c in cases), default=0.0)
    return {
        "suite": name,
        "cases": cases,
        "max_err": max_err,
        "tol": tol,
        "pass": bool(max_err <= tol) and all(c.get("ok", True) for c in cases),
    }


def suite_lemma31(config: RunConfig):
    """b_hat(lam, xi) against the closed form 1/(xi^2 - lambda^2)."""
    cases = []
    for a, b in STANDARD_PARAMS:
        p = JacobiParams(a, b)
        lams = [1j * (p.rho + 0.5), 2j * p.rho, 1.0 + 1j * (p.rho + 0.3)]
        xis = (0.0, 0.5, 1.0, 2.0, 5.0)
        for lam in lams:
            for xi, got in zip(xis, b_hat(p, lam, xis).tolist()):
                want = b_hat_exact(lam, xi)
                cases.append(
                    {
                        "id": f"a={a},b={b},lam={lam:.3g},xi={xi}",
                        "err": abs(got - want) / abs(want),
                    }
                )
    return _report("lemma31", cases, 1e-5)


def suite_wronskian(config: RunConfig):
    """Constancy of [phi, Phi](t) and its closed-form value."""
    rng = np.random.default_rng(config.seed)
    ts = (0.3, 0.7, 1.5, 3.0)
    cases = []
    for k in range(6):
        a, b = STANDARD_PARAMS[k % 3]
        p = JacobiParams(a, b)
        lam = complex(rng.uniform(0.3, 2.5), rng.uniform(-0.4, 0.4))
        want = wronskian_exact(p, lam)
        vals = [wronskian_bracket(p, lam, t) for t in ts]
        spread = (max(abs(v) for v in vals) - min(abs(v) for v in vals)) / abs(want)
        err = max(abs(v - want) / abs(want) for v in vals)
        cases.append(
            {
                "id": f"{k}:a={a},b={b},lam={lam:.4g}",
                "err": max(spread, err),
            }
        )
    return _report("wronskian", cases, 1e-5)


def suite_product_formula(config: RunConfig, n_tuples=30):
    """tau_s phi_lam(t) = phi_lam(s) phi_lam(t) across all three regimes."""
    rng = np.random.default_rng(config.seed)
    cases = []
    for k in range(n_tuples):
        a, b = REGIME_PARAMS[k % 3]
        p = JacobiParams(a, b)
        lam = complex(rng.uniform(0.0, 2.0), rng.uniform(-0.9, 0.9) * p.rho)
        s = rng.uniform(0.1, 2.5)
        t = rng.uniform(0.1, 2.5)
        lhs = translate(p, lambda u: phi(p, lam, u), s, t, n_r=48, n_psi=48)
        rhs = phi(p, lam, s) * phi(p, lam, t)
        cases.append(
            {
                "id": f"{k}:a={a},b={b},lam={lam:.4g},s={s:.3g},t={t:.3g}",
                "err": abs(lhs - rhs) / max(abs(rhs), 1.0),
            }
        )
    return _report("product-formula", cases, 1e-5)


def suite_strict_bound(config: RunConfig, n_lam=20, n_t=20):
    """|phi_lambda(t)| < 1 inside the strip, excluding lambda = +-i rho."""
    p = config.params()
    rng = np.random.default_rng(config.seed)
    res = rng.uniform(0.05, 4.0, n_lam)
    ims = rng.uniform(-0.95, 0.95, n_lam) * p.rho
    ts = np.linspace(0.1, 5.0, n_t)
    lams = res + 1j * ims
    peaks = np.abs(_phi_rows(p, lams, ts)).max(axis=1)
    cases = []
    min_margin = np.inf
    for k, (lam, peak) in enumerate(zip(lams, peaks)):
        margin = float(1.0 - peak)
        min_margin = min(min_margin, margin)
        cases.append(
            {
                "id": f"{k}:lam={lam:.4g}",
                "err": 0.0 if margin > 0 else 1.0,
                "ok": margin > 0,
                "margin": margin,
            }
        )
    rep = _report("strict-bound", cases, 0.5)
    rep["min_margin"] = float(min_margin)
    return rep


def suite_derivative_positivity(config: RunConfig):
    """d/dx phi_ix(t) at x = rho is positive and stable under h-halving."""
    cases = []
    for a, b in STANDARD_PARAMS:
        p = JacobiParams(a, b)
        for t in (0.5, 1.0, 2.0, 5.0):
            v1 = phi_dx_at_rho(p, t, h=1e-4)
            v2 = phi_dx_at_rho(p, t, h=5e-5)
            rel = abs(v1 - v2) / max(abs(v1), 1e-30)
            cases.append(
                {
                    "id": f"a={a},b={b},t={t}",
                    "err": rel,
                    "ok": v1 > 0 and v2 > 0,
                    "value": v1,
                }
            )
    return _report("derivative-positivity", cases, 1e-5)


def suite_tlambda(config: RunConfig):
    """Spectral identity of T_lambda f plus the two-formula agreement."""
    cases = []
    p = JacobiParams(2.3, 0.7)
    f = gaussian_bump(8.0, 2048, width=1.0, center=1.5)
    lams = [0.5 + 0.3j * p.rho, 0.2 + 0.6j * p.rho, 1.0 + 0.8j * p.rho]
    xis = np.array([0.0, 1.3, 2.0 + 0.3j])
    fhat_xis = forward_transform(p, f, xis).tolist()
    for lam in lams:
        op = TLambdaOperator(p, f, lam)
        for xi, got, fhat_xi in zip(xis.tolist(), t_lambda_hat(p, op, lam, xis).tolist(), fhat_xis):
            want = (op.fhat_lam - fhat_xi) / (xi * xi - lam * lam)
            cases.append(
                {
                    "id": f"spectral:lam={lam:.4g},xi={xi:.4g}",
                    "err": abs(got - want) / abs(want),
                }
            )
    rep = _report("tlambda", cases, 1e-4)
    # defining-formula route on one lambda (the costly cross-check)
    lam = 0.5 + 0.6j * p.rho
    op = TLambdaOperator(p, f, lam)
    pts = np.array([0.5, 1.5, 3.0])
    direct = op(pts)
    conv = convolve_b_spectral(p, f, lam, pts)
    defn = op.fhat_lam * b_lambda(p, lam, pts) - conv
    # normalize by |f * b| rather than |T f|: the latter is dominated near
    # t = 0 by the fhat(lam) b(t) term common to both formulas
    two_err = float(np.max(np.abs(direct - defn) / np.abs(conv)))
    rep["two_formula_err"] = two_err
    rep["pass"] = rep["pass"] and two_err <= 1e-3
    return rep


def l10_projection(params: JacobiParams, tmax=8.0, n=1025):
    """A mean-zero (L^1_0) bump: difference of two bumps with matched mass."""
    h1 = gaussian_bump(tmax, n, width=0.8, center=1.0)
    h2 = gaussian_bump(tmax, n, width=0.8, center=2.5)
    c = l10_defect(params, h1) / l10_defect(params, h2)
    return GridFunction(tmax, h1.values - c * h2.values)


def suite_resolvent_glue(config: RunConfig):
    """Both resolvent branches reproduce -1/(lambda^2 + rho^2) for g = 1."""
    p = JacobiParams(0.5, -0.5)

    def g_one(t):
        return np.ones_like(np.asarray(t, dtype=float))

    f = l10_projection(p)
    cases = []
    for lam in (2j, 3j, 0.7 + 2.2j):
        got = resolvent_transform(p, g_one, None, lam)
        want = -1.0 / (lam * lam + p.rho**2)
        cases.append(
            {"id": f"exterior:lam={lam:.3g}", "err": abs(got - want) / abs(want)}
        )
    interior_err = 0.0
    for lam in (0.8j, 0.4j, 0.3 + 0.5j):
        got = resolvent_transform(p, g_one, f, lam)
        want = -1.0 / (lam * lam + p.rho**2)
        err = abs(got - want) / abs(want)
        interior_err = max(interior_err, err)
        cases.append({"id": f"interior:lam={lam:.3g}", "err": 0.0, "ok": err <= 1e-3,
                      "interior_err": err})
    rep = _report("resolvent-glue", cases, 1e-5)
    rep["interior_max_err"] = interior_err
    return rep


def suite_riemann_lebesgue(config: RunConfig):
    """|fhat| strictly decreasing along increasing real lambda beyond 10."""
    # the bump is narrow enough that |fhat| stays above the quadrature
    # noise floor over the whole sequence
    lambdas = [10.0, 12.0, 14.0, 16.0]
    cases = []
    for a, b in STANDARD_PARAMS:
        p = JacobiParams(a, b)
        f = gaussian_bump(config.tmax, config.n, width=0.5)
        values, monotone = riemann_lebesgue_check(p, f, lambdas)
        cases.append(
            {
                "id": f"a={a},b={b}",
                "err": 0.0 if monotone else 1.0,
                "ok": monotone,
                "values": values,
            }
        )
    return _report("riemann-lebesgue", cases, 0.5)


SUITES = {
    "lemma31": suite_lemma31,
    "wronskian": suite_wronskian,
    "product-formula": suite_product_formula,
    "strict-bound": suite_strict_bound,
    "derivative-positivity": suite_derivative_positivity,
    "tlambda": suite_tlambda,
    "resolvent-glue": suite_resolvent_glue,
    "riemann-lebesgue": suite_riemann_lebesgue,
}
# the RunConfig fields each suite reads; the CLI refuses any other flag
_SUITE_FLAGS = {
    "lemma31": (),
    "wronskian": ("seed",),
    "product-formula": ("seed",),
    "strict-bound": ("alpha", "beta", "seed"),
    "derivative-positivity": (),
    "tlambda": (),
    "resolvent-glue": (),
    "riemann-lebesgue": ("tmax", "n"),
}


def run_suite(name: str, config: RunConfig):
    try:
        fn = SUITES[name]
    except KeyError:
        raise DomainError(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}"
        ) from None
    return fn(config)
