#!/usr/bin/env python3
"""Build tcc_benchmark from this checkout and run one workload.

Usage (from the repository root):
    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds benchmark/ into benchmark/build/ (a no-op once
built), runs tcc_benchmark for S seconds, and prints as the last line
of standard output one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics,
with --trace 1 its per_layer metrics (from a traced run, whose Chrome
trace lands in benchmark/build/). Build output goes to standard error.
Exits non-zero without a result if the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = HERE / "build"
BINARY = BUILD / "tcc_benchmark"
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD), "--target", "tcc_benchmark",
              "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("build failed: " + " ".join(step))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"unknown workload {args.workload!r}")
    build()

    out = BUILD / f"result.{args.workload}.{os.getpid()}.json"
    cmd = [str(BINARY), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--out", str(out)]
    if args.trace:
        cmd += ["--trace", str(BUILD / f"trace.{args.workload}.json")]
    try:
        # Exit 1 still writes the result (with failed simulations).
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
        if proc.returncode not in (0, 1) or not out.exists():
            sys.exit(f"tcc_benchmark exited {proc.returncode}")
        result = json.loads(out.read_text())
    except subprocess.TimeoutExpired:
        sys.exit(f"tcc_benchmark ran past {RUN_TIMEOUT_S} s and was killed")
    finally:
        out.unlink(missing_ok=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"]:
            sys.exit(f"{m['name']}: unit {got['unit']!r} != {m['unit']!r}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    failed = result["sims_failed"]
    print(json.dumps({
        "correct": failed == 0 and result["gates_ok"] and proc.returncode == 0,
        "attempted": result["sims"],
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
