#!/usr/bin/env python3
"""End-to-end benchmark of libmaxmin: build the driver, run one workload.

    python3 perfbench/run.py --workload fig4-gmp --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
library, maxmin-sim and the driver (RelWithDebInfo) under .bench_build/;
later runs only check that the build is current. The driver runs the
workload for --seconds; its last stdout line, which this script prints
as its own last line, is one JSON object with `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1). The line before it records the run's context:
cores, compiler, build type, git revision and seeds.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
CLI = os.path.join(BUILD, "maxmin_tools", "maxmin-sim")
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the driver and maxmin-sim up to date.
    Compiler output goes to stderr so stdout stays the result."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench_driver", "maxmin_sim_cli"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
            return False
    return True


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 1
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--maxmin-sim", CLI]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"driver exceeded {DRIVER_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0:
        log(f"driver exited with {proc.returncode}")
        return 1
    lines = [line for line in out.splitlines() if line.strip()]
    if len(lines) < 2:
        log("driver printed no result")
        return 1
    context = json.loads(lines[-2])["context"]
    result = json.loads(lines[-1])
    context["git_rev"] = git_rev()
    print(json.dumps({"context": context}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
