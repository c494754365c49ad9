"""One workload process: set-up, then the timed loop or the traced run.

Started by run.py, never by hand.  It prints ``ready`` on its own line just
before the first timed task (so the parent can time set-up from process
start) and ends with one JSON line holding its results, with times scaled
to the reference host speed (see ``calibrate``) and the host speed just
after set-up.  On standard error it prints the unscaled figures and phi's
accuracy against its tol (timed runs), then the thread count and package
versions it ran with.
"""

import os

THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads: a second BLAS thread only competes
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from fourierjacobi.errors import FourierJacobiError  # noqa: E402

import workloads  # noqa: E402

TRACE_TASKS = 32  # fixed, so that every count repeats exactly for a seed
MIN_TASKS = 100  # so that at least 10 samples lie beyond the p90
TRACE_DIR = Path(__file__).resolve().parent / "out"


def attempt(wl, i, prm, tracer=None):
    """Run task i, then its oracles; returns (seconds, Check rows)."""
    if tracer is not None:
        tracer.task = i
        tracer.install()
    start = time.perf_counter()
    try:
        out = wl.run(prm)
        raised = None
    except FourierJacobiError as exc:  # an operation failed: the task fails
        out, raised = None, exc
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    if raised is not None:
        return elapsed, [workloads.Check(type(raised).__name__, math.inf, 0.0)]
    return elapsed, wl.check(i, prm, out)


def task_failed(rows):
    return not all(row.ok for row in rows if row.gross)


class Accuracy:
    """phi's relative error against its own tol over the sampled pairs."""

    def __init__(self):
        self.checked, self.missed, self.worst = 0, 0, 0.0

    def add(self, rows):
        for row in rows:
            if not row.gross:
                self.checked += 1
                self.missed += not row.ok
                self.worst = max(self.worst, row.err)

    def share(self):
        return self.missed / self.checked if self.checked else 0.0


# The host this runs on switches between a fast and a slow state (a fixed
# loop of numpy and interpreter work takes about 2.0 or 3.3 ms, CPU time
# following wall time); the states last seconds, and the share of time spent
# slow drifts over minutes, which no run length averages away.  So a fixed
# calibration loop, which calls no library code, runs between tasks, and
# each task's time is scaled to a host on which that loop takes
# CALIBRATION_REF_MS, by the mean of the calibrations just before and just
# after it.  A change to the library moves the task times, not the
# calibration.
CALIBRATION_REF_MS = 3.0
_CAL_X = np.random.default_rng(0).standard_normal(256)


def calibrate():
    """Seconds taken by a fixed interpreter loop and small numpy calls."""
    start = time.perf_counter()
    s = 0.0
    for k in range(20000):
        s += k * 0.5
    for _ in range(100):
        s += float(np.sum(np.exp(_CAL_X * 1j)).real)
    return time.perf_counter() - start


def timed(wl, seconds):
    durations, calibrations, failed, accuracy = [], [], 0, Accuracy()
    i = 0
    while sum(durations) < seconds or i < MIN_TASKS:
        calibrations.append(calibrate())
        elapsed, rows = attempt(wl, i, wl.params(i))
        durations.append(elapsed)
        failed += task_failed(rows)
        accuracy.add(rows)
        i += 1
    calibrations.append(calibrate())
    ms = [2.0 * d / (c0 + c1) * CALIBRATION_REF_MS
          for d, c0, c1 in zip(durations, calibrations, calibrations[1:])]
    host = statistics.fmean(calibrations) * 1e3 / CALIBRATION_REF_MS
    print(json.dumps({"phi_tol": {"checked": accuracy.checked, "missed": accuracy.missed,
                                  "max_rel_err": accuracy.worst},
                      "unscaled": {"task_p50_ms": 1e3 * statistics.median(durations),
                                   "tasks_per_s": len(durations) / sum(durations),
                                   "host_slowdown": host}}), file=sys.stderr)
    return {
        "attempted": len(ms), "failed": failed, "correct": failed == 0,
        "task_p50_ms": statistics.median(ms),
        "task_p90_ms": statistics.quantiles(ms, n=10)[8],
        "tasks_per_s": 1e3 * len(ms) / sum(ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(wl, seed):
    """Interleave untraced and traced runs of the same TRACE_TASKS tasks."""
    import tracing

    tracer = tracing.Tracer()
    plain, spanned, verdicts = [], [], []
    failed, accuracy = 0, Accuracy()
    lookups = {k: [0, 0] for k in tracer.cache_info()}  # hits, misses inside traced tasks
    for i in range(TRACE_TASKS):
        # alternate the order so neither pass always runs second
        for traced_pass in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced_pass:
                plain.append(attempt(wl, i, wl.params(i))[0])
                continue
            before = tracer.cache_info()
            elapsed, rows = attempt(wl, i, wl.params(i), tracer)
            for k, info in tracer.cache_info().items():
                lookups[k][0] += info.hits - before[k].hits
                lookups[k][1] += info.misses - before[k].misses
            spanned.append(elapsed)
            verdicts.append([(row.name, row.ok) for row in rows])
            failed += task_failed(rows)
            accuracy.add(rows)
    metrics = layer_metrics(tracer, lookups, plain, spanned, accuracy)
    TRACE_DIR.mkdir(exist_ok=True)
    tracer.dump(TRACE_DIR / f"trace-{wl.name}-seed{seed}.jsonl",
                {"workload": wl.name, "seed": seed, "tasks": TRACE_TASKS, "verdicts": verdicts})
    return {"attempted": TRACE_TASKS, "failed": failed, "correct": failed == 0,
            "metrics": metrics}


def layer_metrics(tracer, lookups, plain, spanned, accuracy):
    calls, points, self_s = tracer.totals()
    n = TRACE_TASKS

    def per_task(x):
        return x / n

    def ms(*names):
        return per_task(1e3 * sum(self_s[k] for k in names))

    def layer_ms(prefix):
        return ms(*[k for k in self_s if k.startswith(prefix + ".")])

    def ratio(key):
        hits, misses = lookups[key]
        return hits / (hits + misses) if hits + misses else 0.0

    def base_share(part, base):
        return part / base if base else 0.0

    p50_plain = statistics.median(plain) * 1e3
    p50_traced = statistics.median(spanned) * 1e3
    return {
        "trace.task_ms": per_task(1e3 * sum(spanned)),
        "trace.overhead_pct": 100.0 * (p50_traced - p50_plain) / p50_plain,
        "trace.errors": per_task(sum(tracer.errors.values())),
        "special.gauss_2f1.points": per_task(points["special.gauss_2f1"]),
        "special.series.points": per_task(points["special.series"]),
        "special.series.self_ms": ms("special.series"),
        "special.direct.points": per_task(points["special.direct.dispatched"]),
        "special.pfaff.points": per_task(points["special.pfaff"]),
        "special.invz.points": per_task(points["special.invz.dispatched"]),
        "special.invz_degenerate.points": per_task(points["special.invz_degenerate"]),
        "special.mp_fallback.points": per_task(points["special.mp_fallback"]),
        "special.mp_fallback.share": base_share(points["special.mp_fallback"],
                                                points["special.gauss_2f1"]),
        "special.mp_fallback.self_ms": ms("special.mp_fallback"),
        "special.near_one.points": per_task(points["special.near_one"]),
        "special.log_case.points": per_task(points["special.log_case"]),
        "special.near_one.self_ms": ms("special.near_one", "special.log_case"),
        "special.self_ms": layer_ms("special"),
        "core.phi.calls": per_task(calls["core.phi"]),
        "core.phi.points": per_task(points["core.phi"]),
        "core.phi.self_ms": ms("core.phi"),
        "core.phi_second_kind.self_ms": ms("core.phi_second_kind"),
        "core.c_function.calls": per_task(calls["core.c_function"]),
        "core.c_function.self_ms": ms("core.c_function"),
        "core.self_ms": layer_ms("core"),
        "quadrature.nodes": per_task(points["quadrature.nodes"]),
        "quadrature.self_ms": layer_ms("quadrature"),
        "quadrature.leggauss.hit_ratio": ratio("quadrature.leggauss"),
        "grid.eval.calls": per_task(calls["grid.eval"]),
        "grid.eval.self_ms": ms("grid.eval"),
        "transform.forward.calls": per_task(calls["transform.forward"]),
        "transform.forward.self_ms": ms("transform.forward"),
        "transform.inverse.self_ms": ms("transform.inverse"),
        "transform.self_ms": layer_ms("transform"),
        "translation.batch.calls": per_task(calls["translation.batch"]),
        "translation.self_ms": layer_ms("translation"),
        "translation.kernel_nodes.lookups": per_task(sum(lookups["translation.kernel_nodes"])),
        "translation.kernel_nodes.hit_ratio": ratio("translation.kernel_nodes"),
        "resolvent.tlambda_build.self_ms": ms("resolvent.tlambda_build"),
        "resolvent.b_hat.self_ms": ms("resolvent.b_hat"),
        "resolvent.self_ms": layer_ms("resolvent"),
        "tauberian.scan.self_ms": ms("tauberian.scan"),
        "tauberian.self_ms": layer_ms("tauberian"),
        "furstenberg.step.self_ms": ms("furstenberg.step"),
        "oracle.phi.tol_miss_share": accuracy.share(),
        "oracle.phi.max_rel_err": accuracy.worst,
    }


def environment():
    versions = {pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "mpmath")}
    return {"python": platform.python_version(), **versions,
            "nproc": len(os.sched_getaffinity(0)), "threads": THREADS}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.warm_up()
    print("ready", flush=True)
    # the host's speed just after set-up, to scale the set-up time by
    setup_slowdown = statistics.fmean(calibrate() for _ in range(5)) * 1e3 / CALIBRATION_REF_MS
    if args.mode == "setup":
        result = {}
    elif args.mode == "timed":
        result = timed(wl, args.seconds)
    else:
        result = traced(wl, args.seed)
    result["setup_slowdown"] = setup_slowdown
    print(json.dumps(result), flush=True)
    print(json.dumps({"environment": environment()}), file=sys.stderr)


if __name__ == "__main__":
    main()
