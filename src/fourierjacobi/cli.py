"""Batch command-line front door: eval, verify, furstenberg.

Errors are mapped to exit codes (2 domain, 3 precision) with a one-line
JSON diagnostic on stderr; all randomness flows from verify's --seed, so
identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .core import (
    JacobiParams,
    c_function,
    heckman_opdam_g,
    phi,
    phi_second_kind,
    weight_delta,
)
from .errors import DomainError, FourierJacobiError, PrecisionError
from .grid import EvenMeasure, GridFunction, gaussian_bump
from .furstenberg import iterate_and_report
from .resolvent import b_lambda
from .suites import _SUITE_FLAGS, SUITES, RunConfig, run_suite

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_PRECISION = 3


def _parse_lambda(text):
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise DomainError(f"--lambda expects re or re,im, got {text!r}")


def _parse_t_list(text):
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise DomainError(f"--t expects a comma-separated list, got {text!r}") from None


def _add_params(parser):
    parser.add_argument("--alpha", type=float, default=0.5)
    parser.add_argument("--beta", type=float, default=-0.5)


def _add_grid(parser):
    parser.add_argument("--tmax", type=float, default=8.0)
    parser.add_argument("--n", type=int, default=1025)


def build_parser():
    """Each subcommand takes only the flags it reads."""
    parser = argparse.ArgumentParser(
        prog="fourierjacobi",
        description="Fourier-Jacobi harmonic analysis: evaluate, verify, iterate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a kernel/function on a t-list")
    p_eval.add_argument(
        "kind", choices=("phi", "Phi", "G", "c", "delta-weight", "b")
    )
    _add_params(p_eval)
    p_eval.add_argument("--lambda", dest="lam", type=str, default="2")
    p_eval.add_argument("--t", type=str, default="1")
    p_eval.add_argument("--out", choices=("csv", "json"), default="csv")
    p_eval.add_argument("--tol", type=float, default=1e-10,
                        help="tolerance handed to the kernel")

    # a flag left out stays out of the namespace, so RunConfig's default
    # applies and a flag given to a suite that does not read it shows
    p_verify = sub.add_parser("verify", help="run a named verification suite",
                              argument_default=argparse.SUPPRESS)
    p_verify.add_argument("suite", choices=sorted(SUITES))
    for flag, kind in (("alpha", float), ("beta", float), ("tmax", float),
                       ("n", int), ("seed", int)):
        p_verify.add_argument(f"--{flag}", type=kind)

    p_furst = sub.add_parser(
        "furstenberg", help="iterate f -> f * mu and report flatness"
    )
    _add_params(p_furst)
    _add_grid(p_furst)
    p_furst.add_argument("--measure", required=True, help="EvenMeasure JSON file")
    p_furst.add_argument("--steps", type=int, default=5)
    p_furst.add_argument("--f", default=None, help="initial GridFunction CSV")
    p_furst.add_argument(
        "--probes", type=str, default="2", help="comma-separated real lambdas"
    )
    return parser


def _eval_rows(args):
    params = JacobiParams(args.alpha, args.beta)
    lam = _parse_lambda(args.lam)
    ts = np.array(_parse_t_list(args.t))
    if args.kind == "c":
        v = c_function(params, lam)
        return ["re", "im"], [[v.real, v.imag]]
    kinds = {
        "phi": lambda: phi(params, lam, ts, args.tol),
        "Phi": lambda: phi_second_kind(params, lam, ts, args.tol),
        "G": lambda: heckman_opdam_g(params, lam, ts, args.tol),
        "delta-weight": lambda: weight_delta(params, ts),
        "b": lambda: b_lambda(params, lam, ts, args.tol),
    }
    vals = np.array(kinds[args.kind](), dtype=complex)
    # values that are real up to roundoff print as exactly real
    vals.imag[np.abs(vals.imag) < 1e-9 * np.maximum(1.0, np.abs(vals.real))] = 0.0
    return ["t", "re", "im"], [[t, v.real, v.imag] for t, v in zip(ts.tolist(), vals.tolist())]


def _emit_table(header, rows, out):
    if out == "json":
        print(json.dumps([dict(zip(header, r)) for r in rows], sort_keys=True))
    else:
        print(",".join(header))
        for r in rows:
            print(",".join(f"{x:.9g}" for x in r))


def _config_from(args):
    """RunConfig from the flags given; a flag the suite does not read is a DomainError."""
    given = {k: v for k, v in vars(args).items() if k not in ("command", "suite")}
    unread = [k for k in given if k not in _SUITE_FLAGS[args.suite]]
    if unread:
        raise DomainError(
            f"verify {args.suite} does not read --{', --'.join(unread)}; it reads "
            + (", ".join(f"--{k}" for k in _SUITE_FLAGS[args.suite]) or "no flag")
        )
    return RunConfig(**given)


def _cmd_eval(args):
    header, rows = _eval_rows(args)
    _emit_table(header, rows, args.out)
    return EXIT_OK


def _cmd_verify(args):
    report = run_suite(args.suite, _config_from(args))
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK if report["pass"] else 1


def _cmd_furstenberg(args):
    params = JacobiParams(args.alpha, args.beta)
    mu = EvenMeasure.from_json(args.measure)
    if args.f is not None:
        f = GridFunction.from_csv(args.f)
    else:
        f = gaussian_bump(args.tmax, args.n, width=1.0, center=1.0)
    probes = _parse_t_list(args.probes)
    report = iterate_and_report(params, f, mu, args.steps, probes)
    print(report.to_json())
    return EXIT_OK


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {
        "eval": _cmd_eval,
        "verify": _cmd_verify,
        "furstenberg": _cmd_furstenberg,
    }
    try:
        return handlers[args.command](args)
    except PrecisionError as exc:
        _emit_error(EXIT_PRECISION, exc, args)
        return EXIT_PRECISION
    except FourierJacobiError as exc:  # DomainError and every other library error
        _emit_error(EXIT_DOMAIN, exc, args)
        return EXIT_DOMAIN


def _emit_error(code, exc, args):
    print(
        json.dumps(
            {
                "code": code,
                "message": str(exc),
                "context": {"command": args.command},
            },
            sort_keys=True,
        ),
        file=sys.stderr,
    )


if __name__ == "__main__":
    sys.exit(main())
