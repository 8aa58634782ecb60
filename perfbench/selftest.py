#!/usr/bin/env python3
"""Self-test of the ADJ benchmark, on a tiny graph with one timed query per run.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that
  * an untraced run is correct and prints every end_to_end metric with its unit,
  * a traced run is correct and prints every per_layer metric with its unit,
  * a run against a corrupted reference checksum counts every query as failed.
Tiny runs also compute the DuckDB reference twice, by its factorized form and
by the plain join text, and fail if the two disagree. Exits 1 on any failure.
"""
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None, "exit code %d" % p.returncode
    return json.loads(lines[-1]), None


def check_metrics(result, wanted):
    problems = []
    got = result["metrics"]
    for m in wanted:
        if m["name"] not in got:
            problems.append("missing metric " + m["name"])
        elif got[m["name"]].get("unit") != m["unit"]:
            problems.append("%s has unit %r, not %r" % (m["name"], got[m["name"]].get("unit"), m["unit"]))
        elif not isinstance(got[m["name"]].get("value"), (int, float)):
            problems.append(m["name"] + " has no numeric value")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        problems.append("unexpected metrics " + ", ".join(sorted(extra)))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            r, err = run(w, trace)
            if err:
                failures.append("%s trace=%d: %s" % (w, trace, err))
                continue
            problems = check_metrics(r, wanted)
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                problems.append("not correct: %s" % json.dumps({k: r[k] for k in ("correct", "attempted", "failed")}))
            failures += ["%s trace=%d: %s" % (w, trace, p) for p in problems]
        r, err = run(w, 0, "--corrupt-reference")
        if err:
            failures.append("%s corrupted reference: %s" % (w, err))
        elif r["correct"] or r["attempted"] < 1 or r["failed"] != r["attempted"]:
            failures.append("%s corrupted reference not counted as failure: %s" % (
                w, json.dumps({k: r[k] for k in ("correct", "attempted", "failed")})))
        print("%s: %s" % (w, "ok" if not [f for f in failures if f.startswith(w)] else "FAILED"), flush=True)
    for f in failures:
        print("FAIL " + f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
