#!/usr/bin/env python3
"""End-to-end benchmark of the EXPRESS simulator.

    python3 perfbench/run.py --workload broadcast|churn|chaos --seed N \
        --seconds S --trace 0|1 [--tiny]

Run from the root of a source checkout. The first call builds the
simulator and the perfbench binary from source into .bench_build/.

One run launches the perfbench binary (perfbench.cpp) again and again,
each time in a fresh single-threaded process on the same seeded inputs,
until --seconds of wall time are used, then reports the median of every
metric over those episodes. Process-to-process drift on a shared host
is 11-16 % (coefficient of variation) and whole-process, so steadiness
comes from medians over many processes, not from short episodes inside
one.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced and traced episodes and reports the per-layer
metrics, including obs.trace_overhead (traced over untraced run_s).

Every episode checks the workload's exact outputs. The run also checks
that all its episodes, traced or not, reproduce the same deterministic
outputs. The last line of stdout is the JSON result; the lines before it
are a human-readable report. On a wrong output the result says
"correct": false and the exit code is 1. When the benchmark cannot run at
all (no sources to build, a crashed or hung episode) it prints the reason
to stderr, no result line, and exits 2.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ("broadcast", "churn", "chaos")

# Outputs that depend only on the seed and the program: every episode of
# a run, traced or not, must reproduce them exactly.
DETERMINISTIC = (
    "delivered",
    "control_bytes",
    "state_bytes_peak",
    "sim.events",
    "fail_ratio",
    "count_error_ppm",
    "convergence_p50_s",
    "convergence_max_s",
    "counting.query_ms_p99",
)
# Outcome figures of the workloads, zero where they do not apply; they
# are listed with the per-layer metrics because end-to-end metrics must
# never read zero.
QUALITY = ("fail_ratio", "count_error_ppm", "convergence_p50_s",
           "convergence_max_s")
MIN_EPISODES = 3  # untraced episodes per run (trace runs: pairs)
EPISODE_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a wrong output)."""


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD), "--parallel", jobs],
    ]
    if (BUILD / "CMakeCache.txt").exists():
        steps = steps[1:]
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as exc:
            raise BenchError(f"cannot run {cmd[0]}: {exc}") from exc
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise BenchError("build failed: " + " ".join(cmd))


def episode(workload, seed, traced, tiny):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=EPISODE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"episode timed out: {' '.join(cmd)}") from exc
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, ValueError) as exc:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"episode printed no result line (exit "
                         f"{proc.returncode}): {' '.join(cmd)}") from exc
    if proc.returncode != 0 and not rec["errors"]:
        rec["errors"].append(f"episode exited {proc.returncode}")
    return rec


def run_episodes(args):
    """Episodes until the time budget is spent; returns (untraced, traced)."""
    untraced, traced = [], []
    start = time.monotonic()
    per_iteration = []
    while True:
        t0 = time.monotonic()
        untraced.append(episode(args.workload, args.seed, False, args.tiny))
        if args.trace:
            traced.append(episode(args.workload, args.seed, True, args.tiny))
        per_iteration.append(time.monotonic() - t0)
        if any(r["errors"] for r in untraced + traced):
            break
        done = len(untraced) >= (2 if args.trace else MIN_EPISODES)
        elapsed = time.monotonic() - start
        if done and elapsed + statistics.median(per_iteration) > args.seconds:
            break
    return untraced, traced


def consistency_errors(records):
    first = records[0]
    errors = []
    for rec in records[1:]:
        kind = "traced" if rec["trace"] else "untraced"
        for name in DETERMINISTIC:
            a, b = first["values"].get(name), rec["values"].get(name)
            if a != b:
                errors.append(f"{kind} episode diverged on {name}: {b} != {a}")
        if (rec["attempted"], rec["failed"]) != (first["attempted"],
                                                 first["failed"]):
            errors.append(f"{kind} episode diverged on attempted/failed")
    return errors


def median_value(records, name):
    try:
        return statistics.median(r["values"][name] for r in records)
    except KeyError as exc:
        raise BenchError(f"perfbench did not report metric {name}") from exc


def layer_checks(workload, untraced, traced, metrics):
    """The traced run confirms each workload loads its layer, or says not."""
    def v(name):
        return metrics[name]["value"]
    setup = median_value(untraced, "setup_s")
    run_traced = median_value(traced, "run_s")
    checks = []
    if workload in ("broadcast", "churn"):
        checks.append((v("routing.build_s") > 0.5 * setup,
                       f"routing.build_s {v('routing.build_s'):.3f} s is most "
                       f"of setup_s {setup:.3f} s"))
        checks.append((v("routing.recomputes") == 0, "routing.recomputes is 0"))
    if workload == "chaos":
        checks.append((v("audit.s") > 0.5 * run_traced,
                       f"audit.s {v('audit.s'):.3f} s is most of traced "
                       f"run_s {run_traced:.3f} s"))
    if workload == "broadcast":
        quiet = [n for n in metrics
                 if n.startswith(("sub.subscribe", "sub.unsubscribe",
                                  "sub.joins", "sub.prunes", "counting."))
                 and v(n) != 0]
        checks.append((not quiet,
                       "sub.* and counting.* are zero in the timed phase"
                       + (f" (not: {quiet})" if quiet else "")))
    return checks


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny topologies, for the benchmark's own tests")
    args = parser.parse_args()

    try:
        spec = json.loads(SPEC.read_text())
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        build()
        untraced, traced = run_episodes(args)
        records = untraced + traced
        errors = [e for r in records for e in r["errors"]]
        if not errors:
            errors = consistency_errors(records)
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        metrics = {}
        for m in wanted:
            if m["name"] == "obs.trace_overhead":
                value = (median_value(traced, "run_s") /
                         median_value(untraced, "run_s"))
            else:
                value = median_value(traced if args.trace else untraced,
                                     m["name"])
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} "
          f"untraced and {len(traced)} traced episodes, medians reported")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:16.6f} {m['unit']}")
    print("  quality: " + ", ".join(
        f"{q}={median_value(untraced, q):.6g}" for q in QUALITY))
    if args.trace:
        print("  (traced run_s - step, host and audit spans = "
              "sim.step.unattributed_s)")
        for ok, text in layer_checks(args.workload, untraced, traced, metrics):
            print(f"  layer check {'ok ' if ok else 'NOT'} {text}")
    for e in errors:
        print(f"  CHECK FAILED: {e}")

    first = records[0]
    result = {
        "correct": not errors and first["failed"] == 0,
        "attempted": first["attempted"],
        "failed": first["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
