#!/usr/bin/env python3
"""Serving benchmark entry point for the DOINN contour-prediction stack.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tile_closed --seed 1 --seconds 10 --trace 0

Builds doinn_serve and the benchmark runner from source into .bench_build/
(the first run configures and compiles, later runs are incremental), then
runs one workload. The runner's last stdout line is the result JSON; the
lines above it are the human-readable report. perfbench/METRICS.md
documents every metric. Exits nonzero on any build failure, correctness
mismatch or self-check failure.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("tile_closed", "fullchip_large", "mixed_open")
# The runner itself stays well inside this; it is a backstop so a hung run
# still ends (and kills its server) before the 180 s per-run limit.
RUNNER_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target",
         "doinn_serve", "perfbench_runner"],
        check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("CMakeLists.txt", "src", "apps"):
        if not os.path.exists(os.path.join(root, needed)):
            log(f"{needed} missing at the checkout root; "
                "the benchmark needs the repository sources")
            return 2
    build_dir = os.path.join(root, ".bench_build")
    try:
        build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2

    work = os.path.join(build_dir, "work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(build_dir, "perfbench_runner"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(build_dir, "doinn", "doinn_serve"),
           "--work", work]
    try:
        proc = subprocess.run(cmd, timeout=RUNNER_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        log(f"runner exceeded {RUNNER_TIMEOUT_S} s and was killed")
        code = 3
    shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
