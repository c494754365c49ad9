"""Numerical Fourier-Jacobi (hypergeometric) harmonic analysis.

Jacobi functions and their second-kind companions, the Harish-Chandra
c-function, the weighted transform with inversion, generalized translation
and convolution (functions and even measures), resolvent kernels b_lambda
and T_lambda f, Tauberian decay indicators, and the harmonic-measure
iteration — with quadrature-backed verification suites for the identities
tying them together.
"""

from .core import (
    JacobiParams,
    apply_L,
    apply_cherednik_T,
    c_function,
    heckman_opdam_g,
    phi,
    phi_dx_at_rho,
    phi_second_kind,
    strip_region,
    weight_delta,
)
from .errors import DomainError, FourierJacobiError, PrecisionError
from .furstenberg import (
    HarmonicIterationReport,
    check_mu_conditions,
    harmonic_step,
    iterate_and_report,
)
from .grid import EvenMeasure, GridFunction, gaussian_bump
from .resolvent import (
    TLambdaOperator,
    b_hat,
    b_hat_exact,
    b_l1_norm,
    b_lambda,
    convolve_b_spectral,
    t_lambda_hat,
    wronskian_bracket,
    wronskian_exact,
)
from .suites import RunConfig, run_suite
from .tauberian import (
    StripScanGrid,
    cauchy_riemann_residual,
    delta_inf_plus,
    delta_irho,
    report_to_json,
    resolvent_transform,
    scan_common_zeros,
    span_density_demo,
)
from .transform import (
    forward_transform,
    forward_transform_measure,
    inverse_transform,
    inversion_tail_estimate,
    plancherel_density,
    riemann_lebesgue_check,
    spectral_nodes,
)
from .translation import (
    convolve,
    convolve_measure,
    kernel_mass,
    l10_defect,
    l1_norm,
    translate,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "EvenMeasure",
    "FourierJacobiError",
    "GridFunction",
    "HarmonicIterationReport",
    "JacobiParams",
    "PrecisionError",
    "RunConfig",
    "StripScanGrid",
    "TLambdaOperator",
    "apply_L",
    "apply_cherednik_T",
    "b_hat",
    "b_hat_exact",
    "b_l1_norm",
    "b_lambda",
    "c_function",
    "cauchy_riemann_residual",
    "check_mu_conditions",
    "convolve",
    "convolve_b_spectral",
    "convolve_measure",
    "delta_inf_plus",
    "delta_irho",
    "forward_transform",
    "forward_transform_measure",
    "gaussian_bump",
    "harmonic_step",
    "heckman_opdam_g",
    "inverse_transform",
    "inversion_tail_estimate",
    "iterate_and_report",
    "kernel_mass",
    "l10_defect",
    "l1_norm",
    "phi",
    "phi_dx_at_rho",
    "phi_second_kind",
    "plancherel_density",
    "report_to_json",
    "resolvent_transform",
    "riemann_lebesgue_check",
    "run_suite",
    "scan_common_zeros",
    "span_density_demo",
    "spectral_nodes",
    "strip_region",
    "t_lambda_hat",
    "translate",
    "weight_delta",
    "wronskian_bracket",
    "wronskian_exact",
]
