#!/usr/bin/env python3
"""Noise study for the perfbench benchmark.

    python3 perfbench/noise_study.py [--seeds 10] [--sets 2] [--out raw.jsonl]

Runs run.py untraced once per (set, workload, seed) -- seeds 1..N in
every set, the sets one after the other -- and prints, per workload and
end-to-end metric, each set's median and quartiles over its seeds, the
spread (quartile distance over median) and the difference between the
sets' medians as a share of the first. Each spread and difference is
flagged when it exceeds the metric's bound in BENCHMARK.json, or a third
of it.

--out appends every raw result line to a file.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_one(workload, seed):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed: {' '.join(cmd)}\n{proc.stdout}")
    return json.loads(lines[-1])


def report(rows, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    by_workload = {}
    for row in rows:
        sets = by_workload.setdefault(row["workload"], {})
        sets.setdefault(row["set"], []).append(row)
    for workload, sets in by_workload.items():
        set_ids = sorted(sets)
        print(f"\n{workload}: sets {set_ids}, "
              f"{[len(sets[s]) for s in set_ids]} seeds each")
        print(f"  {'metric':26s} {'set':>3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s} {'vs set 0':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            first_median = None
            for s in set_ids:
                values = [r["metrics"][name]["value"] for r in sets[s]]
                q1, med, q3 = (statistics.quantiles(values, n=4)
                               if len(values) > 1 else values * 3)
                spread = (q3 - q1) / med
                if first_median is None:
                    first_median = med
                diff = (med - first_median) / first_median
                worst = max(spread, abs(diff))
                flag = ("  > BOUND" if worst > bound else
                        "  > bound/3" if worst > bound / 3 else "")
                print(f"  {name:26s} {s:3d} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {spread:7.2%} {diff:+8.2%} "
                      f"{bound:6.2f}{flag}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--out", type=Path, help="append raw results here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    rows = []
    for s in range(args.sets):
        for workload in (w["name"] for w in spec["workloads"]):
            for seed in range(1, args.seeds + 1):
                result = run_one(workload, seed)
                row = {"set": s, "workload": workload, "seed": seed,
                       "metrics": result["metrics"]}
                rows.append(row)
                if args.out:
                    with args.out.open("a") as f:
                        f.write(json.dumps(row) + "\n")
                values = ", ".join(f"{k}={v['value']:.4g}" for k, v
                                   in result["metrics"].items())
                print(f"set {s} {workload} seed {seed}: {values}", flush=True)
    report(rows, spec)


if __name__ == "__main__":
    main()
