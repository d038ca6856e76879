#!/usr/bin/env python3
"""Builds levbench against the repository's levity library and runs it.

Usage, from the repository root:

    python3 levbench/run.py --workload <compile-cold|store-warm|run-hot|serve-hot> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds a Release tree in .bench_build/levbench
(the levity library from the repository's own CMakeLists.txt, plus the
benchmark); later runs only re-check it. A build that is not Release is
refused, as bench/record_common.py refuses to record one. The benchmark's
last line of standard output is its JSON result; scratch files (the
store-warm `.levc` store, trace spans) go to .bench_build/work.
"""

import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(OUT_DIR, "levbench")
BUILD_LOG = os.path.join(OUT_DIR, "levbench-build.log")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"levbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_type():
    """CMAKE_BUILD_TYPE from the build tree's CMakeCache.txt, or None."""
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"CMAKE_BUILD_TYPE:\w+=(.*)$", line.strip())
                if m:
                    return m.group(1) or "unspecified"
    except OSError:
        return None
    return "unspecified"


def run_logged(cmd):
    with open(BUILD_LOG, "a") as log:
        return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "driver", "Session.h"))):
        fail("the levity sources (CMakeLists.txt, src/) are not beside "
             "levbench/; run from a full checkout of the repository")
    os.makedirs(OUT_DIR, exist_ok=True)
    if build_type() is None:
        if run_logged(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                       "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            fail(f"cmake configure failed; see {BUILD_LOG}")
    jobs = str(min(4, os.cpu_count() or 1))
    if run_logged(["cmake", "--build", BUILD_DIR, "--target", "levbench",
                   "-j", jobs]) != 0:
        fail(f"build failed; see {BUILD_LOG}")
    kind = build_type()
    if kind is None or kind.lower() != "release":
        fail(f"the benchmark was built with CMAKE_BUILD_TYPE={kind}, not "
             "Release; its numbers would not be comparable")
    return os.path.join(BUILD_DIR, "levbench")


def main():
    binary = build()
    cmd = [binary] + sys.argv[1:] + ["--work-dir", os.path.join(OUT_DIR, "work")]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run did not end within {RUN_TIMEOUT_S} s", code=3)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
