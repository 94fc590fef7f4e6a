#!/usr/bin/env python3
"""Builds the engine benchmark from source (Release) and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wave10k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The build goes to .bench_build/perfbench; spans of a traced run go to
.bench_trace/. The last line of standard output is the benchmark's JSON
result; build output goes to standard error. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")
WORKLOADS = ("wave10k", "serve48", "resub1k")


def build():
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 4)))
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    generated = "Makefile"
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
        generated = "build.ninja"
    if not os.path.exists(os.path.join(BUILD, generated)):
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", BUILD, "--parallel", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check the benchmark's checker against the "
                        "reference oracle on small runs")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(BUILD, "perfbench")
    if args.selftest:
        return subprocess.run([binary, "--selftest"]).returncode

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        command += ["--trace-out", os.path.join(
            TRACE_DIR, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    sys.stderr.flush()
    # exec rather than a child process: set-up time counts from here.
    command += ["--start-ns", str(time.monotonic_ns())]
    os.execv(binary, command)


if __name__ == "__main__":
    sys.exit(main())
