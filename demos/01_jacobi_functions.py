"""Jacobi functions, the second-kind solution, and the c-function.

Walks through the basic objects: the even eigenfunction phi_lambda, its
closed form at (1/2, -1/2), the singular second-kind solution Phi_lambda,
and the connection formula phi = c(lam) Phi_lam + c(-lam) Phi_{-lam}.
"""

import numpy as np

from fourierjacobi import JacobiParams, c_function, phi, phi_second_kind
from fourierjacobi.core import phi_second_kind_sinh_form

p = JacobiParams(0.5, -0.5)
print(f"params (alpha, beta) = (0.5, -0.5), rho = {p.rho}")

print("\nphi at (1/2,-1/2) against the closed form sin(lam t)/(lam sinh t):")
for lam in (0.7, 2.0, 5.0):
    for t in (0.5, 1.0, 3.0):
        got = phi(p, lam, t)
        want = np.sin(lam * t) / (lam * np.sinh(t))
        print(f"  lam={lam:4.1f} t={t:3.1f}: phi={got.real:+.12f}  |err|={abs(got - want):.2e}")

print("\nnormalization anchors:")
print(f"  phi_lam(0)   = {complex(phi(p, 1.3 + 0.2j, 0.0)):.12f}  (should be 1)")
print(f"  c(-i rho)    = {c_function(p, -1j * p.rho):.12f}  (should be 1)")
print(f"  c(lam)       = {c_function(p, 2.0):.12f}  vs 1/(i lam) = {1.0 / 2.0j:.12f}")

q = JacobiParams(2.3, 0.7)
lam = 1.1 + 0.4j
print(f"\nconnection formula at (alpha, beta) = (2.3, 0.7), lam = {lam}:")
for t in (0.8, 1.5, 4.0):
    lhs = phi(q, lam, t)
    rhs = c_function(q, lam) * phi_second_kind(q, lam, t) + c_function(
        q, -lam
    ) * phi_second_kind(q, -lam, t)
    print(f"  t={t}: |phi - (c Phi + c Phi)| = {abs(lhs - rhs):.2e}")

print("\nsecond-kind solution: cosh-form vs sinh-form cross-check:")
for t in (0.9, 2.0, 5.0):
    v1 = phi_second_kind(q, lam, t)
    v2 = phi_second_kind_sinh_form(q, lam, t)
    print(f"  t={t}: |difference| = {abs(v1 - v2):.2e}")

print("\nPhi_lam asymptotics ~ e^((i lam - rho) t):")
for t in (6.0, 9.0):
    v = phi_second_kind(q, lam, t)
    asym = np.exp((1j * lam - q.rho) * t)
    print(f"  t={t}: ratio to e^((i lam - rho)t) = {v / asym:.6f}")
