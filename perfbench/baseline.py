#!/usr/bin/env python3
"""Measures the benchmark's baseline: every workload in BENCHMARK.json
untraced on seeds 1-10, then one traced run per workload, and writes
per-workload JSON files.

    python3 perfbench/baseline.py [--out perfbench/baseline]

Each file holds every run's info and result lines, per metric the median,
quartiles and spread (interquartile range / median, from
statistics.quantiles(values, n=4)), and the traced run's per-layer summary
and spans. Compare a later commit's files with these to see what moved.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SEEDS = range(1, 11)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        raise SystemExit("%s seed %d trace %d failed (exit %d)" % (workload, seed, trace, p.returncode))
    return {"seed": seed, "run_s": time.monotonic() - t0,
            "info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summary(runs):
    out = {}
    for name in runs[0]["result"]["metrics"]:
        vals = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        out[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=os.path.join(BENCH, "baseline"))
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    os.makedirs(a.out, exist_ok=True)
    for w in (x["name"] for x in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run(w, seed, spec["run_seconds"], 0))
            print(w, seed, json.dumps(runs[-1]["result"]), flush=True)
        traced = run(w, SEEDS[0], spec["run_seconds"], 1)
        with open(os.path.join(BENCH, ".work", "trace", "%s-seed%d.json" % (w, SEEDS[0]))) as f:
            trace = json.load(f)
        s = summary(runs)
        for name, v in s.items():
            print("%s %s median %.4g spread %.3f" % (w, name, v["median"], v["spread"] or 0), flush=True)
        with open(os.path.join(a.out, w + ".json"), "w") as f:
            json.dump({"workload": w, "run_seconds": spec["run_seconds"], "summary": s, "runs": runs,
                       "traced_run": traced, "trace": trace}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
