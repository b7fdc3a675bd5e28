#!/usr/bin/env python3
"""Builds bench_e2e from this checkout's sources and runs one measurement.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Every argument is passed through to bench_e2e (see bench_e2e.cc). The
build goes to .bench_build/ and run outputs (traces, durable-site scratch
state) to .bench_out/, both at the root of the checkout; build logs go to
stderr, so the last line on stdout is bench_e2e's JSON result. Exits
nonzero without a result when the system's sources are missing or do not
build.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("run.py: no src/ next to e2ebench/; nothing to build")
    for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", "4",
                 "--target", "bench_e2e"]):
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if proc.returncode != 0:
            sys.exit(f"run.py: '{' '.join(cmd)}' failed "
                     f"(exit {proc.returncode})")


def main():
    build()
    binary = os.path.join(BUILD, "bench_e2e")
    proc = subprocess.run([binary, "--out-dir", OUT] + sys.argv[1:],
                          cwd=ROOT)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
