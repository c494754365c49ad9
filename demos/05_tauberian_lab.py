"""Decay indicators, zero scanning, the resolvent glue, and span density.

The Wiener-type machinery at desk scale: delta indicators on synthetic
families, common-zero scans over the spectral strip, the two-branch
resolvent transform gluing into -1/(lambda^2 + rho^2), and least-squares
evidence that span{b_lambda} approximates L^1 targets.
"""

import numpy as np

from fourierjacobi import (
    JacobiParams,
    StripScanGrid,
    delta_inf_plus,
    delta_irho,
    forward_transform,
    gaussian_bump,
    resolvent_transform,
    scan_common_zeros,
    span_density_demo,
)
from fourierjacobi.suites import l10_projection

rho = 1.0
horizon = 2 * rho * np.log(500) / np.pi  # keep exp(-e^{pi t/2 rho}) representable
ts = np.linspace(0.1, horizon, 400)
est, window = delta_inf_plus(ts, np.exp(-np.exp(np.pi * ts / (2 * rho))), rho)
print(f"delta_inf_plus on exp(-e^(pi t/2rho)): {est:.9f} (exact value 1), window {window}")

est2, _, _ = delta_irho(lambda l: np.exp(-1.0 / (rho - l.imag)), rho, n_steps=8)
print(f"delta_irho on exp(-1/(rho-x)): {est2:.9f} (exact value -1)")

p = JacobiParams(0.5, -0.5)
bump = gaussian_bump(8.0, 513, width=0.5)
f0 = l10_projection(p)  # mean-zero: transform vanishes at +-i rho
grid = StripScanGrid(re_max=3.0, re_n=13, im_margin=0.02, im_n=7)

scan1 = scan_common_zeros(p, [lambda l: forward_transform(p, f0, l)], grid, 1e-4)
print(f"\nscan of a mean-zero generator: {scan1['n_candidates']} candidate cells, "
      f"all at +-i rho: {scan1['only_pm_irho']}")
scan2 = scan_common_zeros(
    p,
    [lambda l: forward_transform(p, f0, l), lambda l: forward_transform(p, bump, l)],
    grid,
    1e-4,
)
print(f"joint family (adding a positive bump): common zeros remaining: "
      f"{scan2['n_candidates']} (hull empty: {scan2['no_common_zero']})")


def g_one(t):
    return np.ones_like(np.asarray(t, dtype=float))


print("\nresolvent transform with g = 1 glues to -1/(lam^2 + rho^2):")
for lam in (2j, 3j):
    got = resolvent_transform(p, g_one, None, lam)
    print(f"  exterior lam={lam}: {got.real:+.8f} vs {(-1 / (lam**2 + rho**2)).real:+.8f}")
for lam in (0.8j, 0.4j):
    got = resolvent_transform(p, g_one, f0, lam)
    print(f"  interior lam={lam}: {got.real:+.8f} vs {(-1 / (lam**2 + rho**2)).real:+.8f}")

target = gaussian_bump(6.0, 513, width=0.8, center=1.0)
lams = [1j * (rho + 1.0), 1j * (rho + 0.5), 1j * (rho + 2.0), 1j * (rho + 0.25),
        1j * (rho + 3.0), 1j * (rho + 0.125), 1j * (rho + 4.0), 1j * (rho + 1.5)]
rep = span_density_demo(p, target, lams)
print("\nspan{b_lambda} density demo, residual vs number of kernels:")
for k, r in zip(rep["sizes"], rep["residuals"]):
    print(f"  {k} kernels: residual {r:.4f}")
