#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources and run one workload.

    python3 perfbench/run.py --workload kv-mem --seed 1 --seconds 12 --trace 0

Run from the root of the checkout. The build tree and the run's temporary
data live under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
The binary's self-tests run before every measurement. The last line of
standard output is the JSON result; the exit code is nonzero when the
build, a self-test or a correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure once, then build incrementally; build output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(os.path.join(out_root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 2
    if subprocess.run([binary, "--selftest"], stdout=sys.stderr).returncode != 0:
        print("run.py: self-tests failed", file=sys.stderr)
        return 3

    data = os.path.join(out_root, f"data-{os.getpid()}")
    shutil.rmtree(data, ignore_errors=True)
    os.makedirs(data)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--data", data],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    finally:
        shutil.rmtree(data, ignore_errors=True)

    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        print(f"run.py: benchmark exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode
    json.loads(proc.stdout.rstrip("\n").splitlines()[-1])  # the result line parses
    return 0


if __name__ == "__main__":
    sys.exit(main())
