#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/NOTES.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: launch_pb_bound, launch_unbuffered, campaign, mc_sweep.

The script configures and builds perfbench/ (a CMake package that
compiles the simulator from ../src) in Release mode under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
the benchmark binary with the given arguments. The binary's last stdout
line is the result JSON; build output goes to stderr. Without the
simulator sources next to perfbench/ it exits 2 and prints no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: simulator sources (src/) not found next to "
                 "perfbench/; nothing to benchmark")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def main(argv):
    bdir = build_dir()
    binary = build(bdir)
    cmd = [binary] + argv + ["--out-dir", os.path.join(bdir, "out")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(done.stdout)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
