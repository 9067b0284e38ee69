#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--size full|small]

Run from the root of a checkout. The first run configures and builds the
lognic libraries and the benchmark program (Release) under
$CARGO_TARGET_DIR, or .bench_build when it is unset; later runs rebuild
incrementally. Build output goes to stderr, so the last line of stdout is
the program's JSON result. Traced runs write their per-layer table and
Chrome trace under <build dir>/out.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("explore_grid", "explore_nsga", "check", "des_long")


def build(root, build_dir):
    bench_dir = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", bench_dir, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--size", default="full", choices=("full", "small"))
    a = p.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    for needed in ("src", "include", os.path.join("tests", "check", "corpus")):
        if not os.path.isdir(os.path.join(root, needed)):
            sys.exit("run.py: %s/ missing; run from the root of a lognic "
                     "checkout" % needed)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    try:
        exe = build(root, os.path.join(build_dir, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("run.py: build failed: %s" % e)
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", a.trace,
           "--size", a.size, "--out", os.path.join(build_dir, "out")]
    sys.exit(subprocess.run(cmd, cwd=root).returncode)


if __name__ == "__main__":
    main()
