#!/usr/bin/env python3
"""Build the benchmark and the ftqcd daemon from source, then run one
workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The arguments are passed to the
benchmark binary (perfbench/bench.ml), whose last line of output is the
JSON result.  Exit status: the benchmark's (0 ok, 1 output mismatch),
or 2 when the build or the run fails -- then no result line is printed.
"""

import os
import signal
import subprocess
import sys

BUILD_DIR = "_build"
BENCH = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
FTQCD = os.path.join(BUILD_DIR, "default", "bin", "ftqcd.exe")
# A run measures for --seconds and then checks its outputs; anything
# far beyond that is a hang.
RUN_TIMEOUT_S = 170


def build():
    # The shared dune cache lives outside the checkout: keep it off so
    # the build reads and writes only here.
    cmd = ["dune", "build", "--root", ".", "--cache=disabled",
           "--build-dir", BUILD_DIR, "./perfbench/bench.exe", "./bin/ftqcd.exe"]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    # A session of its own, so a timeout can take down the daemon and
    # its fleet workers along with the benchmark.
    proc = subprocess.Popen([BENCH, "--ftqcd", FTQCD] + sys.argv[1:],
                            start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
