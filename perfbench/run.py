#!/usr/bin/env python3
"""Build the benchmark driver from this checkout's sources and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

The first run configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench; later runs only let the build check that it is up
to date. Build output goes to stderr, so the driver's last line of stdout
stays the JSON result. Exits with the build's or the driver's exit code.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
SPANS = os.path.join(BUILD, "spans")


def build():
    """Configures (once) and builds the driver; returns the exit code."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        code = subprocess.run(cmd, stdout=sys.stderr).returncode
        if code != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return code
    return 0


def main(argv):
    code = build()
    if code != 0:
        return code
    os.makedirs(SPANS, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run([DRIVER, *argv, "--spans-dir", SPANS]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
