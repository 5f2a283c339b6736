#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload repeatedly, each time with another seed, and prints
for every end-to-end metric its median, first and third quartile and
spread (the distance between the quartiles as a share of the median),
next to the bound in BENCHMARK.json.  The bounds are set from this
output: a spread must stay within its bound (setup_s excepted), and
should stay below a third of it.

Run from the repository root:

    python3 perfbench/steady.py                    # 10 runs of every workload
    python3 perfbench/steady.py --runs 5 --workload long-lines
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), elapsed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in workloads:
        values = {}
        failed_shares = set()
        longest = 0.0
        for i in range(args.runs):
            seed = args.first_seed + i
            result, elapsed = run_once(bench["command"], workload, seed, seconds)
            longest = max(longest, elapsed)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect")
            failed_shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, longest run {longest:.1f} s, "
              f"failed shares {sorted(failed_shares)}")
        print(f"{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = " OVER" if spread > bound else (" wide" if spread > bound / 3 else "")
            bound_text = f"{bound:6.3f}" if bound is not None else "     -"
            print(f"{name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {bound_text}{flag}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
