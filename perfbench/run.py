#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet_stream --seed 1 --seconds 25 --trace 0

The library and the benchmark are built with CMake into the directory
named by CARGO_TARGET_DIR (default: .bench_build) under the repository
root; the first run configures and builds, later runs only check that
the build is up to date. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. Traces and other run files go
to .bench_out/. Exits non-zero, without a result, when the repository
sources are missing or the build fails.
"""

import os
import subprocess
import sys

WORKLOADS = ("fleet_stream", "wire_realtime", "trigger_relearn")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    values = {"--workload": None, "--seed": "1", "--seconds": "25", "--trace": "0"}
    i = 0
    while i < len(argv):
        key = argv[i]
        if key not in values or i + 1 >= len(argv):
            fail(f"unknown or incomplete argument: {key}")
        values[key] = argv[i + 1]
        i += 2
    if values["--workload"] not in WORKLOADS:
        fail(f"--workload must be one of {', '.join(WORKLOADS)}")
    if values["--trace"] not in ("0", "1"):
        fail("--trace must be 0 or 1")
    return values


def git_commit(root):
    """HEAD of the repository at `root`; "unknown" when `root` is not the
    top of a git work tree (an exported checkout)."""
    try:
        result = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = result.stdout.split()
    if result.returncode != 0 or len(lines) != 2:
        return "unknown"
    if os.path.realpath(lines[0]) != os.path.realpath(root):
        return "unknown"
    return lines[1]


def build(root, build_dir):
    here = os.path.join(root, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                check=False)
        if result.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "perfbench")


def main():
    args = parse_args(sys.argv[1:])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for required in ("CMakeLists.txt", os.path.join("src", "engine", "engine.hpp")):
        if not os.path.exists(os.path.join(root, required)):
            fail(f"repository source missing: {required}")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(root, build_dir)
    binary = build(root, build_dir)
    # Relative to the repository root (the benchmark's working directory)
    # so the unix socket path inside it stays short.
    out_dir = ".bench_out"
    os.makedirs(os.path.join(root, out_dir), exist_ok=True)
    command = [binary, "--workload", args["--workload"], "--seed", args["--seed"],
               "--seconds", args["--seconds"], "--trace", args["--trace"],
               "--commit", git_commit(root), "--out-dir", out_dir]
    sys.stdout.flush()
    result = subprocess.run(command, cwd=root, check=False)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
