#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, at toy scale.

    python3 e2e_bench/selftest.py

Runs every workload on a toy exchange (6 participants, 300 prefixes) for
about a second, untraced and traced, and asserts that:
  * each run exits 0 and its last line is the result object, carrying every
    end_to_end (untraced) or per_layer (traced) metric of BENCHMARK.json
    with its unit;
  * every end-to-end metric the workload defines prints on a `metric` line
    with a unit and a sample count;
  * the traced run prints the unattributed remainder and the tracing
    overhead;
and that a planted wrong delivery trips packet_fail_frac, marks the result
incorrect and makes the run exit non-zero. Exits non-zero on any failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The end-to-end metrics each workload prints under its own names.
NAMED = {
    "churn": ["setup_s", "update_rate_ups", "update_latency_p50_ms",
              "update_latency_p99_ms", "install_stall_p50_ms",
              "single_update_latency_p50_ms", "line_rate_drain_ups",
              "update_fail_frac", "peak_rss_mb"],
    "traffic": ["setup_s", "packet_rate_mpps", "packet_latency_p50_us",
                "packet_latency_p99_us", "packet_fail_frac", "peak_rss_mb"],
    "mixed": ["setup_s", "update_latency_p50_ms", "update_latency_p99_ms",
              "packet_latency_p50_us", "packet_latency_p99_us",
              "packet_rate_mpps", "install_stall_p50_ms", "update_fail_frac",
              "packet_fail_frac", "peak_rss_mb"],
}

failures = []


def expect(ok, what):
    print("%-4s %s" % ("ok" if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--scale", "toy"] + list(extra),
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, lines, result


def metric_lines(lines):
    """name -> (value, unit, samples) from `metric` lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 5 and parts[0] == "metric" and parts[4].startswith("n="):
            out[parts[1]] = (float(parts[2]), parts[3], int(parts[4][2:]))
    return out


def check_metrics(result, declared, what):
    got = result["metrics"] if result else {}
    for m in declared:
        entry = got.get(m["name"])
        expect(entry is not None and entry.get("unit") == m["unit"]
               and isinstance(entry.get("value"), (int, float)),
               "%s: %s prints with unit %s" % (what, m["name"], m["unit"]))
    extra = sorted(set(got) - {m["name"] for m in declared})
    expect(not extra, "%s: no undeclared metrics %s" % (what, extra))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in [x["name"] for x in bench["workloads"]]:
        code, lines, result = run(w, 0)
        expect(code == 0 and result is not None and result["correct"],
               "%s untraced: exit 0 with a correct result" % w)
        check_metrics(result, bench["end_to_end"], w + " untraced")
        named = metric_lines(lines)
        for name in NAMED[w]:
            value, unit, samples = named.get(name, (None, "", 0))
            expect(value is not None and unit and samples >= 1,
                   "%s: %s prints with a unit and a sample count" % (w, name))
        for name in [n for n in named if n.endswith("_fail_frac")]:
            expect(named[name][0] == 0, "%s: %s is 0" % (w, name))

        code, lines, result = run(w, 1)
        expect(code == 0 and result is not None and result["correct"],
               "%s traced: exit 0 with a correct result" % w)
        check_metrics(result, bench["per_layer"], w + " traced")
        expect(any(l.startswith("remainder ") for l in lines),
               "%s traced: prints the unattributed remainder" % w)
        expect(any(l.startswith("overhead ") for l in lines),
               "%s traced: prints the tracing overhead" % w)

    for w in ["traffic", "mixed"]:
        code, lines, result = run(w, 0, "--plant-wrong-delivery")
        frac = metric_lines(lines).get("packet_fail_frac", (0,))[0]
        expect(code != 0 and result is not None and not result["correct"]
               and result["failed"] >= 1 and frac > 0,
               "%s: a planted wrong delivery trips packet_fail_frac (%g) "
               "and a non-zero exit" % (w, frac))

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
