#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench_driver (a Release
build of the simulator sources) in .bench_build, runs one workload and
forwards its output.  The last line of standard output is the driver's
JSON result; the exit code is the driver's (0 only when every output
check passed).  Build output goes to standard error.  See README.md.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
SCRATCH_DIR = os.path.join(ROOT, ".bench_tmp")    # the driver's corpus
WORKLOADS = ("paper-sweep", "ablation-fanout", "corpus-replay")

# Each of these silently changes the measured program; the driver
# refuses to run with any of them set.
FORBIDDEN_ENV = ("REPLAY_SIM_INSTS", "REPLAY_SIM_JOBS",
                 "REPLAY_STATIC_CHECK", "REPLAY_TRACEV3_NO_MMAP")

RUN_TIMEOUT_S = 175
BUILD_JOBS = "4"


def build():
    """Configure (once) and build the driver; return its path or None."""
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    steps = [configure,
             ["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
              "-j", BUILD_JOBS]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    driver = os.path.join(BUILD_DIR, "perfbench_driver")
    return driver if os.path.exists(driver) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    driver = build()
    if not driver:
        return 1

    env = dict(os.environ)
    cleared = [name for name in FORBIDDEN_ENV
               if env.pop(name, None) is not None]
    if cleared:
        print("perfbench: cleared " + ", ".join(cleared) +
              " (each changes the measured program)")

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: driver exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        out = None
    finally:
        # A driver that died cannot have removed its corpus directory.
        for leftover in glob.glob(os.path.join(SCRATCH_DIR,
                                               "*.%d.*" % proc.pid)):
            shutil.rmtree(leftover, ignore_errors=True)
    if out is None:
        return 1

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        valid = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        valid = False
    if not valid or proc.returncode < 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("perfbench: driver ended without a result (exit %d)"
              % proc.returncode, file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
