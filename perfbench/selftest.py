#!/usr/bin/env python3
"""Self-test of the repo benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. For every workload in BENCHMARK.json it
runs a reduced-size pass (--size small) untraced and traced, and checks
that each finishes with exit code 0, reports correct outputs, and prints
exactly the end-to-end (untraced) or per-layer (traced) metrics that
BENCHMARK.json names, each with its unit. The traced run fails its own
correctness check unless the replay's counts and report digest equal the
untraced pass's, so a passing traced run also proves that equality.
Exits non-zero on the first failure.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def fail(msg):
    sys.exit("selftest: FAIL: " + msg)


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {"0": spec["end_to_end"], "1": spec["per_layer"]}
    for w in spec["workloads"]:
        for trace in ("0", "1"):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w["name"], "--seed", "1", "--seconds",
                   "0.1", "--trace", trace, "--size", "small"]
            p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               timeout=600)
            what = "%s --trace %s" % (w["name"], trace)
            if p.returncode != 0:
                fail("%s exited %d" % (what, p.returncode))
            lines = p.stdout.strip().splitlines()
            if not lines:
                fail("%s printed nothing" % what)
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                fail("%s: result keys %s" % (what, sorted(result)))
            if result["correct"] is not True:
                fail("%s: outputs incorrect" % what)
            if result["attempted"] < 1:
                fail("%s: attempted %s" % (what, result["attempted"]))
            metrics = result["metrics"]
            want = [m["name"] for m in expected[trace]]
            if sorted(metrics) != sorted(want):
                fail("%s: metrics %s, expected %s"
                     % (what, sorted(metrics), sorted(want)))
            for m in expected[trace]:
                got = metrics[m["name"]]
                if got.get("unit") != m["unit"]:
                    fail("%s: %s unit %s, expected %s"
                         % (what, m["name"], got.get("unit"), m["unit"]))
                v = got.get("value")
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    fail("%s: %s value %r" % (what, m["name"], v))
                if trace == "0" and v <= 0:
                    fail("%s: end-to-end %s is %r" % (what, m["name"], v))
            print("selftest: ok  %-28s %d metrics" % (what, len(metrics)))
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
