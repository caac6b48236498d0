#!/usr/bin/env python3
"""Build and run the qfs benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds qfs_perfbench and the repository's qfsd from source into
.bench_build/perfbench (the repository's CMake tree is included unchanged,
see perfbench/CMakeLists.txt), then runs one workload from the repository
root. Build output goes to stderr; the last line of stdout is the result
JSON printed by qfs_perfbench. Exits non-zero without a result when the
sources are missing, the build fails or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("paper_suite", "large_cold", "daemon_hot")


def build():
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                     os.path.join("tools", "qfsd.cpp")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            sys.exit("run.py: repository sources not found (missing %s)" % required)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "qfs_perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "qfs_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("run.py: build failed: %s" % e)
    sys.stdout.flush()
    proc = subprocess.run([binary, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", args.trace], cwd=ROOT)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
