"""Acceptance gate: one check (and one printed pass/fail line) per criterion.

Each test prints `criterion NN: PASS/FAIL - <summary>` so the gate can be
read off the -s output at a glance.  Tolerances are the contract values;
nothing here is tuned per-run.
"""

import numpy as np
import pytest

from fourierjacobi import (
    JacobiParams,
    RunConfig,
    c_function,
    check_mu_conditions,
    forward_transform,
    gaussian_bump,
    inverse_transform,
    iterate_and_report,
    phi,
    run_suite,
)
from fourierjacobi.core import apply_L, apply_cherednik_T, heckman_opdam_g
from fourierjacobi.grid import EvenMeasure, GridFunction
from fourierjacobi.suites import STANDARD_PARAMS
from fourierjacobi.tauberian import StripScanGrid, span_density_demo

CONFIG = RunConfig(seed=0)


def _line(number, ok, summary):
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {summary}")
    assert ok, summary


def test_criterion_01_resolvent_kernel_transform():
    rep = run_suite("lemma31", CONFIG)
    _line(1, rep["pass"],
          f"b-hat vs 1/(xi^2 - lam^2), max rel err {rep['max_err']:.3e} "
          f"(tol 1e-5, {len(rep['cases'])} cases)")


def test_criterion_02_wronskian():
    rep = run_suite("wronskian", CONFIG)
    _line(2, rep["pass"],
          f"Wronskian constancy + closed form, max rel err "
          f"{rep['max_err']:.3e} (tol 1e-5, 6 seeded lambdas)")


def test_criterion_03_product_formula():
    rep = run_suite("product-formula", CONFIG)
    _line(3, rep["pass"],
          f"tau_s phi(t) = phi(s) phi(t), 30 tuples across 3 regimes, "
          f"max err {rep['max_err']:.3e} (tol 1e-5)")


def test_criterion_04_closed_form_anchors():
    p = JacobiParams(0.5, -0.5)
    lams = np.linspace(0.4, 4.0, 5)
    ts = np.linspace(0.3, 3.0, 4)
    phi_err = max(
        abs(complex(phi(p, lam, t)) - np.sin(lam * t) / (lam * np.sinh(t)))
        for lam in lams for t in ts
    )
    c_err = max(
        abs(c_function(p, lam) - 1.0 / (1j * lam))
        for lam in np.linspace(0.3, 5.0, 10)
    )
    norm_err = max(
        abs(c_function(JacobiParams(a, b), -1j * JacobiParams(a, b).rho) - 1.0)
        for a, b in STANDARD_PARAMS
    )
    ok = phi_err <= 1e-8 and c_err <= 1e-10 and norm_err <= 1e-10
    _line(4, ok,
          f"anchors: phi closed form {phi_err:.3e} (tol 1e-8), "
          f"c rank-one {c_err:.3e} (tol 1e-10), c(-i rho)=1 {norm_err:.3e} "
          f"(tol 1e-10)")


def test_criterion_05_eigen_equation_residuals():
    rng = np.random.default_rng(CONFIG.seed)
    worst_L = worst_T = 0.0
    for k in range(10):
        a, b = STANDARD_PARAMS[k % 3]
        p = JacobiParams(a, b)
        lam = complex(rng.uniform(0.3, 2.0), rng.uniform(-0.3, 0.3))
        t = rng.uniform(0.3, 3.0)
        res_L = abs(
            apply_L(p, lambda u: phi(p, lam, u), t, h=1e-3)
            + (lam**2 + p.rho**2) * phi(p, lam, t)
        )
        res_T = abs(
            apply_cherednik_T(p, lambda u: heckman_opdam_g(p, lam, u), t, h=1e-3)
            - 1j * lam * heckman_opdam_g(p, lam, t)
        )
        worst_L = max(worst_L, float(res_L))
        worst_T = max(worst_T, float(res_T))
    ok = worst_L <= 1e-3 and worst_T <= 1e-3
    _line(5, ok,
          f"eigen-equation residuals at h=1e-3: L {worst_L:.3e}, "
          f"Cherednik {worst_T:.3e} (tol 1e-3, 10 samples each)")


def test_criterion_06_t_lambda_identities():
    rep = run_suite("tlambda", CONFIG)
    _line(6, rep["pass"],
          f"T-operator spectral identity max err {rep['max_err']:.3e} "
          f"(tol 1e-4, 9 pairs); two-formula agreement "
          f"{rep['two_formula_err']:.3e} (tol 1e-3)")


def test_criterion_07_resolvent_glue():
    rep = run_suite("resolvent-glue", CONFIG)
    _line(7, rep["pass"],
          f"resolvent glue to -1/(lam^2 + rho^2): exterior max err "
          f"{rep['max_err']:.3e} (tol 1e-5), interior "
          f"{rep['interior_max_err']:.3e} (tol 1e-3)")


def test_criterion_08_strict_bound_and_positivity():
    rep_b = run_suite("strict-bound", CONFIG)
    rep_d = run_suite("derivative-positivity", CONFIG)
    ok = rep_b["pass"] and rep_d["pass"]
    _line(8, ok,
          f"|phi| < 1 on strip grid (min margin {rep_b['min_margin']:.3e}); "
          f"boundary derivative positive, h-halving drift "
          f"{rep_d['max_err']:.3e} (tol 1e-5)")


def test_criterion_09_furstenberg_dynamics():
    p = JacobiParams(1.0, 0.0)
    mu = EvenMeasure(atoms=[(1.0, 1.0)])
    lam = 2.0
    ts = np.linspace(0.0, 8.0, 1025)
    f = GridFunction(8.0, np.asarray(phi(p, lam, ts), dtype=complex))
    n = 5
    rep = iterate_and_report(p, f, mu, n=n, probes=[lam])
    mult = abs(complex(phi(p, lam, 1.0)))
    flats = [s["flatness"] for s in rep.steps]
    decay_err = max(
        abs(flats[k] / flats[0] - mult**k) for k in range(1, n + 1)
    )
    grid = StripScanGrid(re_max=3.0, re_n=9, im_margin=0.05, im_n=5)
    cond = check_mu_conditions(p, mu, grid)
    boundary_ok = cond["boundary_estimate"] >= -0.05
    ok = decay_err <= 1e-3 * n and boundary_ok
    _line(9, ok,
          f"pair-measure eigen-decay error {decay_err:.3e} "
          f"(tol {1e-3 * n:.0e} over n={n}); boundary indicator "
          f"{cond['boundary_estimate']:+.4f} (>= -0.05)")


def test_criterion_10_inversion_and_riemann_lebesgue():
    worst = 0.0
    for a, b in STANDARD_PARAMS:
        p = JacobiParams(a, b)
        f = gaussian_bump(8.0, 1025, width=1.0)

        ts = np.array([0.0, 0.5, 1.2, 2.5, 4.0])
        got = inverse_transform(p, lambda lams: forward_transform(p, f, lams), ts,
                                lambda_max=16.0)
        worst = max(worst, float(np.max(np.abs(got - f(ts)))))
    rep = run_suite("riemann-lebesgue", CONFIG)
    ok = worst <= 1e-3 and rep["pass"]
    _line(10, ok,
          f"inversion roundtrip max err {worst:.3e} (tol 1e-3, 3 parameter "
          f"sets); transform strictly decreasing beyond lambda=10: "
          f"{rep['pass']}")


def test_criterion_11_span_density():
    p = JacobiParams(0.5, -0.5)
    target = gaussian_bump(6.0, 513, width=0.8, center=1.0)
    spreads = [1.0, 0.5, 2.0, 0.25, 3.0, 0.125, 4.0, 1.5]
    lams = [1j * (p.rho + s) for s in spreads]
    rep = span_density_demo(p, target, lams)
    res = {k: r for k, r in zip(rep["sizes"], rep["residuals"])}
    ok = res[8] < res[4] < res[2]
    _line(11, ok,
          f"span residuals strictly decrease 2 -> 4 -> 8 kernels: "
          f"{res[2]:.4f} -> {res[4]:.4f} -> {res[8]:.4f}")
