#!/usr/bin/env python3
"""Steadiness check: run one workload N times, alternating with another.

    python3 perfbench/steady.py --workload large_cold --other paper_suite \
        [--runs 10] [--first-seed 1]

Run i of each workload uses seed first_seed + i and lasts BENCHMARK.json's
run_seconds; the two workloads take turns so that slow drift of the machine
lands on both. Each run's metrics go to stderr as it ends. For every
end-to-end metric of each workload, prints the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median,
plus the share of failed operations.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("steady.py: %s seed %d failed (exit %d)"
                 % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def report(workload, results):
    print("== %s: %d runs" % (workload, len(results)))
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print("   correct: %s, failed share: %s"
          % (all(r["correct"] for r in results), shares))
    print("   %-26s %14s %14s %14s %8s" % ("metric", "median", "q1", "q3", "spread"))
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print("   %-26s %14.6g %14.6g %14.6g %7.2f%%"
              % (name, med, q1, q3, 100 * spread))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--other", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    names = [args.workload, args.other]
    results = {name: [] for name in names}
    for i in range(args.runs):
        order = names if i % 2 == 0 else list(reversed(names))
        for name in order:
            seed = args.first_seed + i
            result = run_once(name, seed, seconds)
            results[name].append(result)
            print("run %d %s seed %d: %s" % (i + 1, name, seed, " ".join(
                "%s=%.6g" % (k, v["value"])
                for k, v in result["metrics"].items())),
                  file=sys.stderr, flush=True)
    for name in names:
        report(name, results[name])


if __name__ == "__main__":
    main()
