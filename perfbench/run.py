#!/usr/bin/env python3
"""Build the benchmark and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload kv-write --seed 1 --seconds 15 --trace 0

Builds perfbench/ (which compiles the repository's src/ through its own
CMake files) into .bench_build/, runs the workload in a private data
directory under .bench_data/ that is removed on exit, and passes through the
program's output: the last line of stdout is the run's JSON result. Build
output and diagnostics go to stderr. Exits non-zero, without a result, when
the build fails or the workload cannot start.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DATA = os.path.join(ROOT, ".bench_data")
BINARY = os.path.join(BUILD, "crafty_perfbench")
WORKLOADS = ("kv-write", "kv-read", "kv-large", "txn-bank")
# The whole run, build included, must end within this many seconds.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 850


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt: run from the root of a full checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "crafty_perfbench"])
    deadline = time.monotonic() + BUILD_LIMIT_S
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr,
                                timeout=max(1, deadline - time.monotonic())
                                ).returncode
        except FileNotFoundError:
            fail("cmake is not installed")
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if rc != 0:
            fail("build failed: " + " ".join(cmd))


def on_term(signum, frame):
    # Unwind through main's finally: stop the workload, remove its data.
    sys.exit(1)


def main():
    signal.signal(signal.SIGTERM, on_term)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be between 1 and 60")

    build()
    os.makedirs(DATA, exist_ok=True)
    data = tempfile.mkdtemp(prefix="run-", dir=DATA)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--datadir", data]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        rc = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s did not finish in %d s" %
              (args.workload, RUN_LIMIT_S), file=sys.stderr)
        rc = 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(data, ignore_errors=True)
        try:
            os.rmdir(DATA)
        except OSError:
            pass
    sys.exit(rc)


if __name__ == "__main__":
    main()
