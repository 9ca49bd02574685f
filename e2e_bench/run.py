#!/usr/bin/env python3
"""Builds and runs the end-to-end exchange benchmark (README.md).

    python3 e2e_bench/run.py --workload churn --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
benchmark binary and the libraries it links into the build directory
($CARGO_TARGET_DIR, else .bench_build); later runs rebuild incrementally.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1 runs
the workload twice with the same seed, untraced then traced, prints every
per-layer metric of the traced run, and reports the difference between the
two runs' end-to-end metrics as the tracing overhead; that difference
includes the traced run's sending half its bursts through send_batch's two
public halves. Each of the two runs
sets up once, so a trace run costs about as much as an untraced one. The traced run's
spans, merged with the runtime's own trace, are written as Chrome trace
JSON under <build dir>/traces/ (open in ui.perfetto.dev).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is non-zero when the build
fails, a run fails, or any correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A whole invocation, both runs of a trace run included, ends within this.
RUN_BUDGET_S = 170
BUILD_TYPE = "RelWithDebInfo"


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    if configured:
        return os.path.abspath(configured)
    return os.path.join(ROOT, ".bench_build")


def build_step(cmd):
    """Runs one build command; its log goes to stderr only if it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise subprocess.CalledProcessError(proc.returncode, cmd)


def build(bdir):
    """Configures (once) and builds the benchmark binary."""
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        build_step(["cmake", "-S", HERE, "-B", bdir,
                    "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    build_step(["cmake", "--build", bdir, "--target", "sdx_e2e", "-j", jobs])
    return os.path.join(bdir, "sdx_e2e")


def run_binary(binary, args, extra, timeout):
    """Runs sdx_e2e once; returns (exit code, output lines, result)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--scale", args.scale] + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is not None:
        lines = lines[:-1]
    return proc.returncode, lines, result


def e2e_lines(lines):
    """sdx_e2e's `e2e <name> <value> <unit> n=<samples>` lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "e2e":
            out[parts[1]] = float(parts[2])
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["churn", "traffic", "mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "toy"], default="full")
    ap.add_argument("--plant-wrong-delivery", action="store_true",
                    help="self-test: corrupt one checked delivery")
    args = ap.parse_args()

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("e2e_bench: build failed: %s" % e, file=sys.stderr)
        return 1

    work = os.path.join(bdir, "work")
    # setup_s is the median of three set-ups; a trace run runs twice, so
    # each of its runs sets up once.
    extra = ["--setups", "1" if args.trace else "3", "--work-dir", work]
    if args.plant_wrong_delivery:
        extra.append("--plant-wrong-delivery")
    deadline = time.monotonic() + RUN_BUDGET_S

    try:
        if not args.trace:
            code, lines, result = run_binary(binary, args, extra + ["--trace", "0"],
                                             RUN_BUDGET_S)
            print("\n".join(lines))
            if result is None:
                print("e2e_bench: sdx_e2e printed no result", file=sys.stderr)
                return 1
            print(json.dumps(result))
            return code

        code0, lines0, result0 = run_binary(binary, args, extra + ["--trace", "0"],
                                            RUN_BUDGET_S)
        for line in lines0:
            print("untraced: " + line)
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        trace_out = os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))
        code1, lines1, result1 = run_binary(
            binary, args,
            extra + ["--trace", "1", "--trace-out", os.path.relpath(trace_out)],
            max(1.0, deadline - time.monotonic()))
        print("\n".join(lines1))
    except subprocess.TimeoutExpired:
        print("e2e_bench: run exceeded %d s" % RUN_BUDGET_S, file=sys.stderr)
        return 1
    if result0 is None or result1 is None:
        print("e2e_bench: sdx_e2e printed no result", file=sys.stderr)
        return 1

    # Tracing overhead: the traced run's end-to-end metrics against the
    # untraced run's, same seed, same work. The traced run sends every other
    # burst through send_batch's two halves instead of send_batch itself, so
    # on the packet workloads the difference includes that change of path.
    print("overhead includes the traced run's split bursts (half of them "
          "through BorderRouter::forward + Fabric::inject_batch)")
    plain, traced = e2e_lines(lines0), e2e_lines(lines1)
    for name, before in plain.items():
        after = traced.get(name)
        if after is not None and before:
            print("overhead %-20s untraced %-14.6g traced %-14.6g %+.2f%%"
                  % (name, before, after, (after / before - 1) * 100))
    before, after = plain.get("ops_per_s", 0), traced.get("ops_per_s", 0)
    overhead = (before - after) / before if before else 0.0
    result1["metrics"]["trace.overhead_frac"] = {"value": overhead,
                                                 "unit": "ratio"}
    result1["correct"] = bool(result0["correct"] and result1["correct"])
    print(json.dumps(result1))
    return code0 or code1


if __name__ == "__main__":
    sys.exit(main())
