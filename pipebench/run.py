#!/usr/bin/env python3
"""Builds and runs the end-to-end pipeline benchmark (see README.md here).

Usage, from the root of a LiteRace checkout:

    python3 pipebench/run.py --workload <name> --seed <n> --seconds <s> --trace 0|1
    python3 pipebench/run.py --compare <result-a.json> <result-b.json>

The benchmark is compiled from the checkout's sources into .bench_build/
(rebuilt incrementally on every call). Each run works in
.bench_build/pipebench-work/, where it also leaves its result document and,
for --trace 1, the span timeline as Chrome trace JSON. The last line of
standard output is the run's summary JSON. Without the LiteRace sources
next to this directory the build fails and the script exits non-zero
without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "pipebench")
WORK = os.path.join(ROOT, ".bench_build", "pipebench-work")
BINARY = os.path.join(BUILD, "pipebench")
# A run must end within 180 s; the build may take longer on first use.
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "--target", "pipebench",
              "-j", jobs]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("error: benchmark build failed (%s)\n"
                                 % log_path)
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--compare", nargs=2, metavar="RESULT")
    args = parser.parse_args()
    if args.compare:
        cmd = ["--compare"] + [os.path.abspath(p) for p in args.compare]
    elif None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    else:
        cmd = ["--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--out-dir", WORK]
    if not build():
        return 1
    os.makedirs(WORK, exist_ok=True)
    proc = subprocess.Popen([BINARY] + cmd, cwd=WORK)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("error: benchmark run exceeded %d s\n"
                         % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
