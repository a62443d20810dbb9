#!/usr/bin/env python3
"""Helpers around the spend-path benchmark, run from the repository root.

  python3 spendbench/tools.py spread --workload spend --seeds 1-10
      Run the benchmark once per seed and print, for every end-to-end
      metric, the median, the quartiles and the spread (Q3 - Q1) / median
      next to the metric's bound from BENCHMARK.json.

  python3 spendbench/tools.py determinism --workload all --seed 7
      Run one seed twice and the next seed once; the generated-input and
      work-counter fingerprints must repeat for the same seed and change
      for the other one. Exits 1 otherwise.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys

BENCHMARK = "BENCHMARK.json"


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) with the quartiles of
    statistics.quantiles(values, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(bench, workload, seed, seconds, trace=0):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return out.stdout


def cmd_spread(args, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in parse_seeds(args.seeds):
        result = json.loads(run(bench, args.workload, seed, seconds).strip().splitlines()[-1])
        print(f"seed {seed}: correct {result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    worst = 0.0
    for name, v in values.items():
        med, q1, q3, s = spread(v)
        bound = bounds.get(name, float("nan"))
        flag = "" if s < bound / 3 else "  <-- above bound/3"
        worst = max(worst, s / bound)
        print(f"  {name:<10} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
              f"spread {s:.4f}  bound {bound}{flag}")
    print(f"  worst spread / bound: {worst:.3f}")


def fingerprints(stdout):
    return re.findall(r"determinism inputs (\w+) counters (\w+)", stdout)


def cmd_determinism(args, bench):
    seconds = args.seconds
    a = fingerprints(run(bench, args.workload, args.seed, seconds))
    b = fingerprints(run(bench, args.workload, args.seed, seconds))
    c = fingerprints(run(bench, args.workload, args.seed + 1, seconds))
    print(f"seed {args.seed}:     {a}\nseed {args.seed}:     {b}\nseed {args.seed + 1}: {c}")
    same = a == b and len(a) > 0
    differ = all(x[0] != y[0] and x[1] != y[1] for x, y in zip(a, c))
    print(f"same seed repeats: {same}; other seed changes both: {differ}")
    if not (same and differ):
        raise SystemExit(1)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--workload", required=True)
    s.add_argument("--seeds", default="1-10")
    s.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    d = sub.add_parser("determinism")
    d.add_argument("--workload", default="all")
    d.add_argument("--seed", type=int, default=7)
    d.add_argument("--seconds", type=int, default=2)
    args = p.parse_args()
    with open(BENCHMARK) as f:
        bench = json.load(f)
    {"spread": cmd_spread, "determinism": cmd_determinism}[args.cmd](args, bench)


if __name__ == "__main__":
    main()
