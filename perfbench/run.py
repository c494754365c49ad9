"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout holding ``src/fourierjacobi``.  Each
workload runs in one worker process on one thread, as a closed loop: the
next task starts when the previous one has returned.

``--trace 0`` first starts ``SETUP_SAMPLES - 1`` workers that only set up
(import, inputs, one warm-up call per task kind) and exit; the last worker
sets up the same way and then runs tasks for S seconds of timed wall time,
and for at least 100 tasks so that the p90 has 10 samples beyond it.
``setup_s`` is the median time from starting a worker to its first timed
task.  Every time is scaled to a reference host speed, measured by a
calibration loop just after set-up and between timed tasks (see
worker.py).  ``--trace 1`` runs a fixed number of tasks, each once untraced
and once with spans around the library's layer boundaries, and prints the
per-layer figures per task; it writes the spans and the oracle verdicts to
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` counts
the tasks in which an operation failed its oracle (see workloads.py).  The
worker writes phi's accuracy against its tol, the thread count and the
package versions to standard error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("spectral-lowband", "spectral-highband", "resolvent-strip",
             "convolution-iteration")
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def start_worker(args, mode):
    env = dict(os.environ, PYTHONHASHSEED="0")  # same set and dict order in every run
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        fail(f"worker for {args.workload} exited during set-up")
    return proc, ready


def finish_worker(proc):
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("worker timed out")
    if proc.returncode != 0:
        fail(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        fail("worker printed no result")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "fourierjacobi" / "__init__.py").is_file():
        fail(f"no src/fourierjacobi under {ROOT}: run from a checkout of the library")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    if args.trace:
        proc, _ = start_worker(args, "traced")
        res = finish_worker(proc)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in res["metrics"].items()}
    else:
        setups, unscaled = [], []
        for mode in ["setup"] * (SETUP_SAMPLES - 1) + ["timed"]:
            proc, ready = start_worker(args, mode)
            res = finish_worker(proc)
            setups.append(ready / res["setup_slowdown"])
            unscaled.append(ready)
        print(json.dumps({"setup_unscaled_s": unscaled}), file=sys.stderr)
        metrics = {
            "task_p50_ms": {"value": res["task_p50_ms"], "unit": "ms"},
            "task_p90_ms": {"value": res["task_p90_ms"], "unit": "ms"},
            "tasks_per_s": {"value": res["tasks_per_s"], "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": bool(res["correct"]), "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]), "metrics": metrics}))


def unit_of(name):
    if name.endswith("_ms"):
        return "ms/task"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_share", ".share", "hit_ratio", "_rel_err")):
        return "ratio"
    return "count/task"


if __name__ == "__main__":
    main()
