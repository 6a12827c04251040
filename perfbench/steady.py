#!/usr/bin/env python3
"""Steadiness check: runs one workload N times and summarises each metric.

    python3 perfbench/steady.py --workload fleet_detnet --runs 10 [--seconds 10]
        [--first-seed 1]

Each run gets its own seed (first-seed, first-seed + 1, ...).  For every
metric it prints the median, the quartiles (statistics.quantiles, n=4), the
spread (q3 - q1) / median and max / min; with BENCHMARK.json's bounds it also
flags end-to-end spreads above a third of the bound (setup_s excepted: its
bound applies to the median only).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        sys.exit(f"run with seed {seed} failed (exit {proc.returncode})")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    lo, hi = min(values), max(values)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / q2 if q2 else float("nan"),
        "max_over_min": hi / lo if lo else float("nan"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}

    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        runs.append(run_once(args.workload, seed, args.seconds))
        print(f"run {i + 1}/{args.runs} (seed {seed}) done", file=sys.stderr)

    print(f"{args.workload}: {args.runs} runs, {args.seconds} s each")
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'max/min':>8}")
    steady = True
    for name in runs[0]:
        s = summarise([r[name] for r in runs])
        flag = ""
        if name in bounds and name != "setup_s":
            if s["spread"] > bounds[name] / 3:
                flag = "  > bound/3"
                steady = False
        print(f"{name:34} {s['median']:14.6g} {s['q1']:14.6g} {s['q3']:14.6g} "
              f"{s['spread']:8.4f} {s['max_over_min']:8.4f}{flag}")
    print("steady" if steady else "NOT steady: a spread exceeds bound/3")


if __name__ == "__main__":
    main()
