#!/usr/bin/env python3
"""Measures the run-to-run spread of every end-to-end metric.

    python3 perfbench/spread.py [--workloads a,b] [--runs 10] \\
        [--first-seed 1] [--write perfbench/baseline.json]

Run from the repository root. For each workload it runs perfbench/run.py
once per seed (first-seed, first-seed+1, ...) with run_seconds from
BENCHMARK.json and tracing off, then prints per metric the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median: for the bounded metrics next to their bound, and for
every other end-to-end number a run prints (throughput, latency, lag,
recovery) too. With --write it stores those figures, every raw value,
and the hardware and workload settings the runs recorded, as the
baseline a later change is compared against.
Exits non-zero if a run fails or reports incorrect output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd), proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("incorrect output: %s" % " ".join(cmd))
    return result


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--write", default="")
    args = ap.parse_args()

    build = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"run_seconds": bench["run_seconds"], "runs": args.runs,
           "first_seed": args.first_seed, "workloads": {}}
    for workload in args.workloads.split(","):
        values, units = {}, {}
        fails = attempted = 0
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, bench["run_seconds"])
            attempted += result["attempted"]
            fails += result["failed"]
            # The run's full record holds every metric it printed.
            record_path = os.path.join(build, "results", "%s-seed%d-trace0.json"
                                       % (workload, seed))
            for name, m in json.load(open(record_path))["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (n, values[n][-1]) for n in bounds)), flush=True)
        record = {"fail_frac": fails / max(1, attempted), "metrics": {},
                  "meta": json.load(open(record_path))["meta"]}
        for name, vals in sorted(values.items(), key=lambda kv: (kv[0] not in bounds, kv[0])):
            q1, med, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median if median else 0.0
            record["metrics"][name] = {
                "unit": units[name], "median": median, "q1": q1, "q3": q3,
                "spread": spread, "bound": bounds.get(name), "values": vals}
            if name in bounds:
                note = "(bound %.2f)%s" % (bounds[name], "" if spread <= bounds[name] / 3 else "  WIDE")
            else:
                note = "(unbounded)"
            print("  %-22s median %-12.6g spread %.4f %s" % (name, median, spread, note),
                  flush=True)
        out["workloads"][workload] = record
    if args.write:
        with open(args.write, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
