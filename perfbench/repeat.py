#!/usr/bin/env python3
"""Repeat the benchmark and summarise the spread of every metric.

    python3 perfbench/repeat.py --runs 10 [--trace 0] [--first-seed N]

Runs perfbench/run.py --runs times on every workload of BENCHMARK.json,
for its run_seconds, one process at a time, each run with its own seed
(first-seed, first-seed + 1, ...). For each metric it prints the median,
the first and third quartiles (Python's statistics.quantiles(n=4)) and
the spread, (Q3 - Q1) / median. It sets each end-to-end spread against
the metric's bound in BENCHMARK.json: OK under a third of the bound,
WIDE up to the bound, OVER beyond it. It also prints the failed share
of the operations and the first run's context (cores, compiler, build
type, git revision), so a recheck on another host names that host.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    lines = [line for line in out.stdout.splitlines() if line.strip()]
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 to give quartiles")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            context, result = run_once(workload, seed, seconds, args.trace)
            runs.append({"context": context, "result": result})
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']}", file=sys.stderr, flush=True)
        first = runs[0]["context"]
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"\n== {workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {seconds} s each; "
              f"failed {failed}/{attempted}")
        print(f"   host: {first['nproc']} cores, {first['compiler']}, "
              f"{first['build_type']}, rev {first['git_rev']}")
        print(f"   {'metric':26} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            unit = runs[0]["result"]["metrics"][name]["unit"]
            med, q1, q3, spread = summarise(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and args.trace == 0:
                flag = " OK" if spread < bound / 3 else (
                    " WIDE" if spread <= bound else " OVER")
            print(f"   {name + ' (' + unit + ')':26} {med:14.6g} {q1:14.6g} "
                  f"{q3:14.6g} {spread:8.4f} "
                  f"{'' if bound is None else format(bound, '6.2f')}{flag}")


if __name__ == "__main__":
    main()
