#!/usr/bin/env python3
"""Build and run the served-path benchmark of priod.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the source tree. It builds priod_server and the
servebench load generator from the sources into .bench_build (Release),
then runs one measurement and passes through its output, whose last line
is the JSON result. Records and Chrome traces land in .bench_results.
See servebench/README.md for the workloads and metrics.
"""
import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
RESULTS_DIR = ".bench_results"
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Configures and builds into BUILD_DIR; build output goes to stderr."""
    build_dir = os.path.join(ROOT, BUILD_DIR)
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
         "--target", "servebench", "priod_server"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit("run.py: build failed: " + " ".join(step))
    return build_dir


def commit_id():
    """The git commit of the tree, or 'unknown' outside a git checkout."""
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no prio sources next to servebench/ (src/ missing)")
    build_dir = build()
    results = os.path.join(ROOT, RESULTS_DIR)
    os.makedirs(results, exist_ok=True)
    cmd = [os.path.join(build_dir, "servebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(build_dir, "priod_server"),
           "--out", results, "--commit", commit_id()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
