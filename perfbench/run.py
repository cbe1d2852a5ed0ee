#!/usr/bin/env python3
"""Builds and runs streamlab's benchmark (perfbench) from the repository root.

    python3 perfbench/run.py --workload <study|campaign|fleet> --seed <n> \
        --seconds <s> --trace <0|1>

The first run in a checkout configures and builds the library and the
benchmark binary (Release) into $CARGO_TARGET_DIR, default .bench_build;
later runs only re-check the build. The benchmark binary prints its
report, and its last stdout line is the JSON result. Exits nonzero, with
no result, when the build fails; passes through the binary's exit code.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def run_quiet(cmd, timeout):
    """Runs a build step; its output goes to stderr so stdout stays the report."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        sys.stderr.write(f"perfbench: build step failed: {' '.join(cmd)}\n")
        sys.exit(proc.returncode or 1)


def build(build_dir):
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                  BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
              BUILD_TIMEOUT_S)


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: build timed out\n")
        sys.exit(1)
    binary = os.path.join(build_dir, "perfbench")
    try:
        proc = subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        sys.stderr.write("perfbench: run timed out\n")
        sys.exit(1)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
