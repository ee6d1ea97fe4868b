#!/usr/bin/env python3
"""Steadiness check: two sets of runs of one build, compared per metric.

Runs the command from BENCHMARK.json on every workload, once per seed, for
each set (rounds interleave the workloads so host drift spreads over all of
them). Prints, per workload and metric, each set's median and quartiles,
the quartile spread as a share of the median, and the ratio of the second
set's median to the first. A spread above a third of the metric's bound,
or a median moving the wrong way by more than the bound, is flagged.

    python3 perfbench/steady.py                          # 2 sets x 5 seeds, all workloads
    python3 perfbench/steady.py --runs 10                # 2 sets x 10 seeds
    python3 perfbench/steady.py --workloads paper16,mesh64 --seed0 2000

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


SETS = 2


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} exited with {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print(f"  {workload} seed {seed}: {result['failed']} of "
              f"{result['attempted']} checks failed", file=sys.stderr)
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--runs", type=int, default=5, help="seeds per set")
    ap.add_argument("--seed0", type=int, default=1000, help="first seed")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    bounds = {m["name"]: m for m in metrics}

    # values[set][workload][metric] -> list of values
    values = [{w: {} for w in workloads} for _ in range(SETS)]
    for s in range(SETS):
        for r in range(args.runs):
            seed = args.seed0 + r
            for w in workloads:
                res = run_once(bench["command"], w, seed, seconds)
                print(f"set {s} seed {seed} {w}: done", file=sys.stderr)
                for name, m in res["metrics"].items():
                    values[s][w].setdefault(name, []).append(m["value"])

    for w in workloads:
        print(f"\n== {w}")
        head = f"{'metric':<28}"
        for s in range(SETS):
            head += f" {'set' + str(s) + ' median':>15} {'q1':>12} {'q3':>12} {'spread':>7}"
        head += f" {'ratio':>7}"
        print(head)
        for name in (m["name"] for m in metrics):
            if name not in values[0][w]:
                print(f"{name:<28} missing")
                continue
            line = f"{name:<28}"
            meds = []
            flag = ""
            m = bounds[name]
            for s in range(SETS):
                med, q1, q3, spread = summary(values[s][w][name])
                meds.append(med)
                line += f" {med:>15.6g} {q1:>12.6g} {q3:>12.6g} {spread:>7.3f}"
                if spread > m["bound"] / 3:
                    flag = "  <- spread above bound/3"
            ratio = meds[1] / meds[0] if meds[0] else float("inf")
            line += f" {ratio:>7.3f}"
            worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            if worse > m["bound"]:
                    flag += "  <- median moved beyond bound"
            print(line + flag)


if __name__ == "__main__":
    main()
