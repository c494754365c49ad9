"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

For each workload (all four by default) it checks that

* two traced runs with the same seed print identical per-layer counts and
  write identical oracle verdicts;
* the metrics a traced run prints are exactly BENCHMARK.json's per_layer
  list, and those of a short untraced run exactly its end_to_end list, each
  with the unit BENCHMARK.json gives;
* run.py refuses, with a non-zero exit and no result line, a directory that
  holds only BENCHMARK.json and perfbench/.

Exits 0 when every check passes.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BARE = HERE / "out" / "bare"
# per-layer figures that must repeat exactly: counts and the ratios of counts
EXACT_UNITS = ("count/task", "ratio")


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def verdicts(workload, seed):
    path = HERE / "out" / f"trace-{workload}-seed{seed}.jsonl"
    with open(path) as fh:
        return json.loads(fh.readline())["verdicts"]


def names_and_units(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    failures = []

    def expect(ok, message):
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            failures.append(message)

    for name in args.workload or [w["name"] for w in bench["workloads"]]:
        traced = []
        for _ in range(2):
            code, result = run("--workload", name, "--seed", str(args.seed), "--trace", "1",
                               "--seconds", "1")
            expect(code == 0 and result is not None, f"{name}: traced run exits 0 with a result")
            if result is None:
                break
            traced.append((result, verdicts(name, args.seed)))
        if len(traced) == 2:
            (a, va), (b, vb) = traced
            expect(names_and_units(a) == per_layer,
                   f"{name}: traced metrics match BENCHMARK.json per_layer")
            exact = [k for k, unit in per_layer.items() if unit in EXACT_UNITS]
            differ = [k for k in exact if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
            expect(not differ, f"{name}: {len(exact)} per-layer counts repeat exactly"
                   + (f" (differ: {differ})" if differ else ""))
            expect(va == vb and (a["attempted"], a["failed"]) == (b["attempted"], b["failed"]),
                   f"{name}: oracle verdicts repeat exactly ({a['failed']} of {a['attempted']} "
                   "tasks failed)")
        code, result = run("--workload", name, "--seed", str(args.seed), "--trace", "0",
                           "--seconds", "1")
        expect(code == 0 and result is not None and names_and_units(result) == end_to_end,
               f"{name}: untraced metrics match BENCHMARK.json end_to_end")
        if result is not None:
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name}: result has exactly correct, attempted, failed, metrics")

    shutil.rmtree(BARE, ignore_errors=True)
    BARE.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", BARE)
    shutil.copytree(HERE, BARE / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, result = run("--workload", bench["workloads"][0]["name"], "--seed", "1",
                       "--trace", "0", "--seconds", "1", cwd=BARE)
    expect(code != 0 and result is None, "a directory without the library is refused")
    shutil.rmtree(BARE)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
