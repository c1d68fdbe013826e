#!/usr/bin/env python3
"""Run one workload N times with seeds 1..N and print, for each metric, its
median, quartiles and spread (quartile distance as a share of the median).

    python3 perfbench/stats.py --workload mixed_stream --runs 10
    python3 perfbench/stats.py --workload bulk_query --runs 5 --trace 1

This is how the bounds in BENCHMARK.json were set: each end-to-end bound
is at least three times the spread seen over ten seeds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        complaints = [l for l in out.stderr.splitlines()
                      if l.startswith("perfbench:")]
        sys.exit(f"seed {seed}: exit code {out.returncode}\n" +
                 "\n".join(complaints[-10:]))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    values, units, failed = {}, {}, []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, args.seconds, args.trace)
        failed.append(f'{result["failed"]}/{result["attempted"]}')
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            flush=True)

    print(f"\n{args.workload}: {args.runs} runs, failed/attempted {failed}")
    print(f"{'metric':<36} {'unit':<8} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<36} {units[name]:<8} {med:>12.4g} {q1:>12.4g} "
              f"{q3:>12.4g} {spread:>7.3f}")


if __name__ == "__main__":
    main()
