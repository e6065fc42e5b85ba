#!/usr/bin/env python3
"""Benchmark entry point: builds the benchmark from source, then runs it.

    python3 perfbench/run.py --workload conv_pool --seed 1 --seconds 40 \
        --trace 0

Run from the repository root. The first run configures and builds
src/ plus perfbench/ into the build directory ($CARGO_TARGET_DIR when
set, else .bench_build); later runs only rebuild what changed. Build
output goes to stderr, so the last stdout line is the benchmark's JSON
result. Exits non-zero without a result when src/ is missing or the
build or the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
WORKLOADS = ("conv_pool", "v3_pool")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found; run from the repository root")
    cfg_dir = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(os.path.join(cfg_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", cfg_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", cfg_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(cfg_dir, "maxel_perfbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "perfbench-out")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(rc)


if __name__ == "__main__":
    main()
