#!/usr/bin/env python3
"""Run one workload on several seeds and print each metric's spread.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload cxl-stream --runs 10 [--seconds 20] [--trace 0]

For every metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the interquartile range
as a share of the median, next to the metric's bound from BENCHMARK.json:
the figures a run-to-run comparison of this benchmark is judged by.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {p.returncode}")
        res = json.loads(lines[-1])
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())
                         if k in bounds or args.trace), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for k in sorted(values):
        v = values[k]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else 0.0
        b = bounds.get(k)
        print(f"{k:36} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} {'' if b is None else b:>6}")


if __name__ == "__main__":
    os.environ.setdefault("PYTHONUNBUFFERED", "1")
    main()
