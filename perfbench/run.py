#!/usr/bin/env python3
"""Build the benchmark driver from the repository sources, then run it.

    python3 perfbench/run.py --workload suite|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root. The driver is compiled (Release) into the
directory named by CARGO_TARGET_DIR, default `.bench_build`, relative to the
root; later runs rebuild only what changed. Build output goes to stderr, so
the last line on stdout is the driver's JSON result. Exits non-zero without
a result when the sources are missing, the build fails or the driver fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DRIVER_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("run from the repository root: src/CMakeLists.txt not found")
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    root = os.path.realpath(ROOT)
    if os.path.commonpath([root, os.path.realpath(build_dir)]) != root:
        fail("the build directory must lie inside the repository")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_driver", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["suite", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    driver = build()
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        code = subprocess.run(cmd, timeout=DRIVER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {DRIVER_TIMEOUT_S} s")
    if code:
        fail(f"driver exited with code {code}")


if __name__ == "__main__":
    main()
