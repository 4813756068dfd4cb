#!/usr/bin/env python3
"""Builds and runs the served-path benchmark.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 servebench/run.py --selftest

Run from the root of a checkout.  The benchmark is compiled from the
checkout's sources into .bench_build/servebench (CMake, Release-style
RelWithDebInfo flags); data dirs and result files go to .bench_build/work.
The last line of standard output is the result JSON.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "servebench")
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
WORK = os.path.join(ROOT, ".bench_build", "work")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    if not os.path.exists(os.path.join(ROOT, "src", "net", "server.cc")):
        log("servebench: the repository sources (src/) are not here")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("servebench: build step failed: " + " ".join(cmd))
            return False
    return True


def run(cmd):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("servebench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    return proc.returncode


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        if not build("servebench_selftest"):
            return 2
        return run([os.path.join(BUILD, "servebench_selftest"),
                    os.path.join(WORK, "selftest")])
    if not args.workload:
        ap.error("--workload is required")
    if not build("servebench"):
        return 2
    return run([os.path.join(BUILD, "servebench"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--workdir", WORK])


if __name__ == "__main__":
    sys.exit(main())
