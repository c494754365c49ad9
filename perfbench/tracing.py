"""Spans around the library's layer boundaries, installed from outside it.

``Tracer.install()`` replaces each traced function with a wrapper in every
``fourierjacobi`` module that holds a reference to it (``from .core import
phi`` copies the reference into transform, resolvent and the rest), and
patches the traced methods on their classes.  ``uninstall()`` puts the
originals back, so untraced tasks run the library unchanged.

Each span records its name, start, end, parent span, task id and, for the
2F1 routes and phi, the number of points it was handed.  Spans stay in
memory until ``dump``.  A span's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import fourierjacobi as fj
from fourierjacobi import quadrature, resolvent, translation
from fourierjacobi.errors import DomainError, PrecisionError
from fourierjacobi.grid import GridFunction

# (module, attribute, span name, index of the argument whose size is counted)
FUNCTIONS = [
    ("special", "gauss_2f1_array", "special.gauss_2f1", 3),
    ("special", "_series_2f1", "special.series", 3),
    ("special", "_pfaff_2f1", "special.pfaff", 3),
    ("special", "_invz_2f1", "special.invz", 3),
    ("special", "_invz_degenerate", "special.invz_degenerate", 3),
    ("special", "_mp_2f1", "special.mp_fallback", 3),
    ("special", "hyp2f1_near_one", "special.near_one", 3),
    ("special", "_hyp2f1_log_case", "special.log_case", 3),
    ("core", "phi", "core.phi", 2),
    ("core", "phi_second_kind", "core.phi_second_kind", 2),
    ("core", "c_function", "core.c_function", None),
    ("quadrature", "integrate", "quadrature.integrate", None),
    ("quadrature", "composite_gauss", "quadrature.composite_gauss", None),
    ("quadrature", "composite_gauss_nodes", "quadrature.nodes", None),
    ("quadrature", "singular_halfline_nodes", "quadrature.singular_halfline", None),
    ("transform", "forward_transform", "transform.forward", None),
    ("transform", "forward_transform_measure", "transform.forward", None),
    ("transform", "inverse_transform", "transform.inverse", None),
    ("transform", "plancherel_density", "transform.plancherel", None),
    ("transform", "spectral_nodes", "transform.spectral_nodes", None),
    ("translation", "translate", "translation.translate", None),
    ("translation", "_translate_batch", "translation.batch", None),
    ("translation", "convolve", "translation.convolve", None),
    ("translation", "convolve_measure", "translation.convolve_measure", None),
    ("resolvent", "b_lambda", "resolvent.b_lambda", None),
    ("resolvent", "b_hat", "resolvent.b_hat", None),
    ("resolvent", "wronskian_bracket", "resolvent.wronskian", None),
    ("resolvent", "t_lambda_hat", "resolvent.t_lambda_hat", None),
    ("tauberian", "scan_common_zeros", "tauberian.scan", None),
    ("tauberian", "resolvent_transform", "tauberian.resolvent_transform", None),
    ("furstenberg", "harmonic_step", "furstenberg.step", None),
    ("furstenberg", "iterate_and_report", "furstenberg.step", None),
]
METHODS = [
    (GridFunction, "__call__", "grid.eval"),
    (resolvent.TLambdaOperator, "__init__", "resolvent.tlambda_build"),
    (resolvent.TLambdaOperator, "__call__", "resolvent.tlambda_eval"),
]
# route spans whose points count only when gauss_2f1_array dispatched them
# directly (the 1/z connection is also called four times per degenerate
# detour; the series also runs inside every other route)
DISPATCHED_BY_2F1 = {"special.invz": "special.invz", "special.series": "special.direct"}

NAME, START, END, PARENT, TASK, CHILD, POINTS = range(7)


def _size(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 1


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.task = -1
        self.errors = Counter()
        self._patches = []
        self._caches = {
            "translation.kernel_nodes": translation._kernel_nodes,
            "quadrature.leggauss": quadrature._leggauss,
        }

    # --- installing and removing the wrappers ---

    def _wrap(self, fn, name, points_arg):
        spans, stack, errors = self.spans, self.stack, self.errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task, 0.0, 0]
            if points_arg is not None and len(args) > points_arg:
                rec[POINTS] = _size(args[points_arg])
            stack.append(len(spans))
            spans.append(rec)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except PrecisionError:
                errors[name, "PrecisionError"] += 1
                raise
            except DomainError:
                errors[name, "DomainError"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                rec[START], rec[END] = start, end
                if rec[PARENT] >= 0:
                    spans[rec[PARENT]][CHILD] += end - start
            if name == "quadrature.nodes":
                rec[POINTS] = len(result[0])
            return result

        return wrapper

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if k == "fourierjacobi" or k.startswith("fourierjacobi.")]
        for mod_name, attr, name, points_arg in FUNCTIONS:
            orig = getattr(getattr(fj, mod_name), attr)
            wrapped = self._wrap(orig, name, points_arg)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        for cls, attr, name in METHODS:
            orig = cls.__dict__[attr]
            self._patches.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(orig, name, None))

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def cache_info(self):
        return {k: c.cache_info() for k, c in self._caches.items()}

    # --- aggregation ---

    def totals(self):
        """Calls, points and self seconds per span name (and per dispatch)."""
        calls, points, self_s = Counter(), Counter(), defaultdict(float)
        for rec in self.spans:
            name = rec[NAME]
            calls[name] += 1
            points[name] += rec[POINTS]
            self_s[name] += rec[END] - rec[START] - rec[CHILD]
            if name in DISPATCHED_BY_2F1:
                parent = self.spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else ""
                if parent == "special.gauss_2f1":
                    points[DISPATCHED_BY_2F1[name] + ".dispatched"] += rec[POINTS]
        return calls, points, self_s

    def dump(self, path, meta):
        """Write the spans, one JSON array per line, after a header line."""
        names = sorted({rec[NAME] for rec in self.spans})
        index = {n: k for k, n in enumerate(names)}
        with open(path, "w") as fh:
            header = dict(meta, names=names,
                          columns=["name", "start", "end", "parent", "task"],
                          errors={f"{n}:{e}": c for (n, e), c in sorted(self.errors.items())})
            fh.write(json.dumps(header) + "\n")
            for rec in self.spans:
                fh.write(json.dumps([index[rec[NAME]], round(rec[START], 9), round(rec[END], 9),
                                     rec[PARENT], rec[TASK]]) + "\n")
