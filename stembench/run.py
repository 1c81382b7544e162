#!/usr/bin/env python3
"""Build and run the stembench harness.

    python3 stembench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds bench.exe and server.exe with
dune into .bench_build/dune (release profile), then runs the harness,
pinned to one CPU, whose last stdout line is the result object.  Build output and progress
go to stderr.  Exits non-zero, printing no result, if the build or the
run fails.  Extra flags (--tiny) pass through to bench.exe.
"""

import os
import signal
import subprocess
import sys

RUN_LIMIT_S = 170  # the harness ends on its own well before this


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    rel = os.path.relpath(here, root)
    build_dir = os.path.join(root, ".bench_build", "dune")
    os.makedirs(build_dir, exist_ok=True)
    exes = [os.path.join(rel, "bench.exe"), os.path.join(rel, "server.exe")]
    build = subprocess.run(
        ["dune", "build", "--root", root, "--build-dir", build_dir,
         "--profile", "release", "-j", "2"] + ["./" + e for e in exes],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("stembench: build failed", file=sys.stderr)
        return 1
    bench = os.path.join(build_dir, "default", rel, "bench.exe")
    # One CPU for the harness and everything it starts: a served
    # request's hand-off between client and server is then a context
    # switch on one core, not a cross-CPU wakeup, whose latency on a
    # shared virtual machine swings by tens of percent from run to run.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    data = os.path.join(root, ".bench_build", "stembench-data")
    proc = subprocess.Popen([bench] + sys.argv[1:] + ["--data", data],
                            start_new_session=True)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print("stembench: run exceeded %d s; killed" % RUN_LIMIT_S, file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
