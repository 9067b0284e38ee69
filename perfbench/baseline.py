#!/usr/bin/env python3
"""Record the benchmark's baseline into perfbench/baseline.json.

    python3 perfbench/baseline.py

Run from the root of a checkout, with nothing else loading the machine.
For every workload of BENCHMARK.json it makes one untraced run per seed
of SEEDS (run_seconds from BENCHMARK.json each) and records the median
and quartiles of every end-to-end metric, with the spread
(q3 - q1) / median that the bounds in BENCHMARK.json are compared
against; then one traced run per seed of TRACED_SEEDS (the default seed
and the held-out one), whose per-layer table it records as measured
(trace_overhead_frac is the tracing overhead). Writes OUT. Exits
non-zero if any run fails or reports incorrect outputs.
"""
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = list(range(1, 11))
TRACED_SEEDS = [1, 1009]
OUT = os.path.join(HERE, "baseline.json")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", trace]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("baseline: %s seed %d trace %s failed (exit %d)"
                 % (workload, seed, trace, p.returncode))
    result = json.loads(lines[-1])
    if result["correct"] is not True:
        sys.exit("baseline: %s seed %d trace %s: incorrect outputs"
                 % (workload, seed, trace))
    return result


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    doc = {"run_seconds": spec["run_seconds"], "seeds": SEEDS,
           "machine": "%s, %d logical CPUs" % (platform.machine(),
                                               os.cpu_count() or 0),
           "workloads": {}}
    for w in (w["name"] for w in spec["workloads"]):
        values = {}
        runs = []
        for seed in SEEDS:
            r = run(w, seed, spec["run_seconds"], "0")
            runs.append({"seed": seed, "attempted": r["attempted"],
                         "failed": r["failed"],
                         "metrics": {k: v["value"]
                                     for k, v in r["metrics"].items()}})
            for k, v in r["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        end_to_end = {}
        for k, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            end_to_end[k] = {"median": med, "q1": q1, "q3": q3,
                             "spread": spread, "bound": bounds[k],
                             "unit": spec_unit(spec, k)}
            print("%-13s %-12s median %-12.6g spread %.4f (bound %.2f)"
                  % (w, k, med, spread, bounds[k]), flush=True)
        traced = {}
        for seed in TRACED_SEEDS:
            r = run(w, seed, spec["run_seconds"], "1")
            traced[str(seed)] = {k: v["value"]
                                 for k, v in r["metrics"].items()}
            print("%-13s traced seed %d: trace_overhead_frac %.4f"
                  % (w, seed, traced[str(seed)]["trace_overhead_frac"]),
                  flush=True)
        doc["workloads"][w] = {"end_to_end": end_to_end, "runs": runs,
                               "per_layer": traced}
    with open(OUT, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print("baseline: wrote %s" % OUT)


def spec_unit(spec, name):
    for m in spec["end_to_end"]:
        if m["name"] == name:
            return m["unit"]
    return ""


if __name__ == "__main__":
    main()
