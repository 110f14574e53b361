#!/usr/bin/env python3
"""Steadiness check for the host benchmark.

Runs the command in BENCHMARK.json once per seed on each named workload
(tracing off), then prints, per workload and end-to-end metric, the
median, the first and third quartile (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median, and flags any spread at or above a third of
the metric's bound (setup_s excepted: only its median is gated).

Usage, from the repository root:

    python3 hostbench/steadiness.py [--seeds 1-10] [workload ...]

With no workload named, every workload in BENCHMARK.json runs. The JSON
printed at the end is the shape of RECORD.json's "steadiness" entries.
"""

import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    args = sys.argv[1:]
    seeds = parse_seeds("1-10")
    if args[:1] == ["--seeds"]:
        seeds = parse_seeds(args[1])
        args = args[2:]
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"nproc": os.cpu_count(), "seeds": seeds, "run_seconds": bench["run_seconds"], "workloads": {}}
    steady = True
    for w in workloads:
        values = {name: [] for name in bounds}
        failed = 0
        for seed in seeds:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{w} seed {seed}: " + ", ".join(f"{k}={v[-1]:.4f}" for k, v in values.items()),
                  file=sys.stderr, flush=True)
        rows = {}
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": round(spread, 4)}
            if name != "setup_s" and spread >= bounds[name] / 3:
                steady = False
                print(f"UNSTEADY {w} {name}: spread {spread:.4f} >= bound/3 {bounds[name] / 3:.4f}",
                      file=sys.stderr)
        record["workloads"][w] = {"failed_cells": failed, "metrics": rows}
    print(json.dumps(record, indent=2))
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
