#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

    python3 e2e_bench/spread.py --workloads churn traffic --seeds 1-10 \
        [--seconds 10] [--out spread.json]

For every workload and metric: the median of the per-seed values, their
first and third quartiles (statistics.quantiles, n=4) and the spread, the
distance between the quartiles as a share of the median, set beside the
metric's bound in BENCHMARK.json; a spread under a third of the bound is
marked steady. Runs are sequential. A run that fails or prints no result
stops the script with a non-zero exit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", help="write the per-seed values as JSON here")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {}
    for w in args.workloads:
        values = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                sys.stdout.write(proc.stdout)
                print("%s seed %d failed (exit %d)" % (w, seed, proc.returncode))
                return 1
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (w, seed, json.dumps(result["metrics"])),
                  flush=True)
        report[w] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            report[w][name] = {"values": vals, "median": med, "q1": q1,
                               "q3": q3, "spread": spread,
                               "bound": bounds[name]}
            steady = spread < bounds[name] / 3
            note = "bound %.2f  %s" % (bounds[name],
                                      "steady" if steady else "NOT STEADY")
            print("%-8s %-34s median %-14.6g spread %6.2f%%  %s"
                  % (w, name, med, spread * 100, note))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seconds": args.seconds, "seeds": args.seeds,
                       "workloads": report}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
