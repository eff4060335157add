#!/usr/bin/env python3
"""Build kv_bench from the repository's sources and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: small-put, read-heavy, sealed-4k (see BENCHMARK.json). The build
and the run's working files go to $CARGO_TARGET_DIR, or .bench_build when
it is unset. Build output goes to stderr; the last line of stdout is the run's
JSON result. Exits non-zero, without a result, when the library sources are
missing, the build fails, or the run does not finish cleanly.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", cmake_dir, "--target", "kv_bench", "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return None
    return os.path.join(cmake_dir, "kv_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    sources = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(sources, "cluster", "tcp_cluster.h")):
        print("error: library sources not found under %s" % sources,
              file=sys.stderr)
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        print("error: build failed", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", os.path.join(build_dir, "work")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(e.stdout or "")
        print("error: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    lines = run.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if run.returncode != 0 or not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(run.stdout)
        print("error: kv_bench exited with %d and no result" % run.returncode,
              file=sys.stderr)
        return run.returncode or 4
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
