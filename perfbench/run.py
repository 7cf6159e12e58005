#!/usr/bin/env python3
"""Build the wall-clock benchmark from source and run it.

    python3 perfbench/run.py --workload traversal --seed 1 --seconds 30 --trace 0

Run from the root of a full checkout (the directory holding dune-project
and lib/). The benchmark is built with dune in release mode into
_perfbench_build/, then run with the given arguments; its standard output
is passed through, so the last line is the JSON result. Build messages go
to standard error. Exit codes: those of bench.exe (0 correct, 1 an output
check failed, 2 bad arguments), or 2 when the build fails or there is
nothing to build, or 3 when the run exceeds its time limit.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = "_perfbench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("perfbench: dune-project or lib/ missing; run from a full checkout", file=sys.stderr)
        return False
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release", "-j", "2",
           "./perfbench/bench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    return done.returncode == 0 and os.path.isfile(EXE)


def main(argv):
    if not build():
        return 2
    sys.stdout.flush()
    try:
        return subprocess.run([EXE] + argv, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
