#!/usr/bin/env python3
"""Builds the library and the benchmark program in Release, then runs one
workload of the end-to-end benchmark and passes its report through.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The last line of standard output is the
JSON result; build output goes to standard error. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM = os.path.join(BUILD, "perfbench")
CPUS = 2


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no CMakeLists.txt and src/ at %s; run from the "
                 "root of a full checkout" % ROOT)
    # Configure every time (about a second once cached), so a build tree
    # made before a change to the benchmark's own CMake files picks it up.
    subprocess.run(
        ["cmake", "-S", ROOT, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
         "-DCMAKE_PROJECT_simq_INCLUDE=" +
         os.path.join(HERE, "project_hook.cmake")],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that the oracle rejects perturbed answers")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)
    sys.stdout.flush()
    if args.selftest:
        return subprocess.run([PROGRAM, "--selftest", "1"]).returncode
    # Confine the run to two CPUs and size the library's thread pool to
    # them. On a shared host whose vCPUs are overcommitted, a process that
    # keeps all four vCPUs busy makes the host steal a large and varying
    # share of them; on two, steal stays low and run-to-run figures repeat
    # (README.md, "Steadiness").
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:CPUS])
    env = dict(os.environ, SIMQ_THREADS=str(CPUS))
    data = os.path.join(ROOT, ".bench_build", "perfbench-data", str(os.getpid()))
    os.makedirs(data, exist_ok=True)
    try:
        return subprocess.run(
            [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--data-dir", data], env=env).returncode
    finally:
        shutil.rmtree(data, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
