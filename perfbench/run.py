#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a source tree.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which compiles the libraries in src/)
under .bench_build/perfbench, runs the harness self-tests, then runs the
benchmark with the given arguments. The benchmark's last line of standard
output is one JSON object with the result. Build output goes to standard
error. Exits non-zero, without a result, when the sources are missing or
the build or self-tests fail.
"""

import os
import subprocess
import sys

BUILD_TYPE = "RelWithDebInfo"


def fail(message):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd):
    """Run a build step with its output on stderr; fail on a non-zero exit."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail("command failed (%d): %s" % (result.returncode, " ".join(cmd)))


def main():
    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(bench_dir, "CMakeLists.txt")):
        fail("run from the root of the source tree (perfbench/ not found)")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")

    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", bench_dir, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs])
    run_quiet([os.path.join(build_dir, "perfbench_selftest"), "--gtest_brief=1"])

    binary = os.path.join(build_dir, "perfbench")
    result = subprocess.run([binary] + sys.argv[1:])
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
