#!/usr/bin/env bash
# Performance regression gate: re-run bench_core RUNS times and compare
# against the committed BENCH_core.json baseline. Wall-time rows are
# judged on their median over the runs: it fails (exit 1) if the median
# scheduler or FIB throughput drops by more than 10%, or the median
# churn wall time rises by more than 10%. When both sides used the same
# --quick setting, every run must also match the baseline's
# deterministic work counters exactly: scheduler and churn event
# counts, fan-out hops and sends, FIB entries, churn packet/byte/
# delivery totals, and the modules block.
# When a committed BENCH_reliable.json baseline and the
# bench_reliable binary both exist, the reliable repair-path gate runs
# too: delivery must stay complete, repair rounds/bytes must not
# regress, and subcast repair must keep beating channel-wide repair.
# Both halves always run and print their verdicts; the script exits 1
# at the end if either failed, so a core timing failure cannot hide a
# reliable regression.
#
# Usage:
#   scripts/bench_gate.sh [path/to/bench_core] [path/to/result.json]
#
# With no arguments it builds nothing: it expects build/bench/bench_core
# to exist (run cmake --build build first) and writes the fresh results
# to temporary files. Pass an existing result JSON as the second
# argument to skip the benchmark runs and judge that one result (e.g. in
# CI where the run already happened). bench_reliable is auto-detected
# next to bench_core.
set -euo pipefail

RUNS=5  # bench_core runs per gate; wall-time rows use their median

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
baseline="$repo_root/BENCH_core.json"
bench_bin="${1:-$repo_root/build/bench/bench_core}"
result="${2:-}"

if [[ ! -f "$baseline" ]]; then
  echo "bench_gate: missing committed baseline $baseline" >&2
  exit 2
fi

cleanup_files=()
cleanup() { rm -f "${cleanup_files[@]}"; }
trap cleanup EXIT

results=()
if [[ -n "$result" ]]; then
  results=("$result")
else
  if [[ ! -x "$bench_bin" ]]; then
    echo "bench_gate: benchmark binary not found: $bench_bin" >&2
    echo "bench_gate: build it first (cmake --build build --target bench_core)" >&2
    exit 2
  fi
  for ((run = 1; run <= RUNS; ++run)); do
    run_result="$(mktemp /tmp/bench_core.XXXXXX.json)"
    cleanup_files+=("$run_result")
    echo "bench_gate: running $bench_bin ($run/$RUNS) ..."
    (cd "$repo_root" && "$bench_bin" --out "$run_result" > /dev/null)
    results+=("$run_result")
  done
fi

core_verdict=PASS
python3 - "$baseline" "${results[@]}" <<'EOF' || core_verdict=FAIL
import json
import statistics
import sys

TOLERANCE = 0.10  # 10%

with open(sys.argv[1]) as f:
    base = json.load(f)
runs = []
for path in sys.argv[2:]:
    with open(path) as f:
        runs.append(json.load(f))

failures = []


def lookup(doc, where, block, key):
    """doc[block][key], or None after recording a named failure: a gated
    row missing from the baseline or a run fails the gate."""
    value = doc.get(block, {}).get(key)
    if value is None:
        print(f"  {block}.{key}: missing from {where} FAIL")
        failures.append(f"{block}.{key} missing from {where}")
    return value


def check_median(name, block, key, higher_is_better):
    """Wall-time row: the median over the runs must stay within 10%."""
    baseline = lookup(base, "baseline", block, key)
    values = [lookup(r, f"run {i + 1}", block, key)
              for i, r in enumerate(runs)]
    if baseline is None or None in values:
        return
    median = statistics.median(values)
    if higher_is_better:
        label, bound = "floor", baseline * (1.0 - TOLERANCE)
        ok = median >= bound
    else:
        label, bound = "ceiling", baseline * (1.0 + TOLERANCE)
        ok = median <= bound
    print(f"  {name:28s} baseline={baseline:>11.4g} min={min(values):>11.4g} "
          f"median={median:>11.4g} max={max(values):>11.4g} "
          f"{label}={bound:>11.4g} {'ok' if ok else 'FAIL'}")
    if not ok:
        failures.append(name)


print(f"bench_gate: comparing {len(runs)} run(s) against committed "
      "BENCH_core.json")
check_median("scheduler.events_per_sec", "scheduler", "events_per_sec", True)
check_median("fib.lookups_per_sec", "fib", "lookups_per_sec", True)
check_median("churn.wall_s", "churn", "wall_s", False)


def check_exact(name, baseline, currents):
    """Deterministic work counter: every run must equal the baseline."""
    wrong = [c for c in currents if c != baseline]
    shown = wrong[0] if wrong else currents[0]
    print(f"  {name:32s} baseline={baseline!s:>14} "
          f"current={shown!s:>14} {'(exact, every run)':>20s} "
          f"{'FAIL' if wrong else 'ok'}")
    if wrong:
        failures.append(name)


# The simulated work is seeded and machine-independent, so its counters
# must match the committed baseline bit for bit whenever the run sizes
# match (same --quick setting). Any drift means behaviour changed.
EXACT = [
    ("scheduler", "events"),
    ("fanout", "hops"),
    ("fanout", "sends"),
    ("fib", "entries"),
    ("churn", "sim_events"),
    ("churn", "packets_sent"),
    ("churn", "bytes_sent"),
    ("churn", "total_link_bytes"),
    ("churn", "data_delivered"),
]
if all(r.get("quick") == base.get("quick") for r in runs):
    for block, key in EXACT:
        baseline = lookup(base, "baseline", block, key)
        if baseline is not None:
            check_exact(f"{block}.{key}", baseline,
                        [r.get(block, {}).get(key) for r in runs])
    base_modules = base.get("modules", {})
    keys = base_modules.keys() | set().union(
        *(r.get("modules", {}).keys() for r in runs))
    for key in sorted(keys):
        check_exact(f"modules.{key}", base_modules.get(key),
                    [r.get("modules", {}).get(key) for r in runs])
else:
    print("  exact counters: skipped (baseline and result differ in --quick)")

if failures:
    print(f"bench_gate: FAIL ({', '.join(failures)})")
    sys.exit(1)
print("bench_gate: PASS")
EOF

# ----------------------------------------------------------------------
# Reliable repair-path gate (auto-detected: needs the committed baseline
# and the bench_reliable binary built next to bench_core).
# ----------------------------------------------------------------------
reliable_baseline="$repo_root/BENCH_reliable.json"
reliable_bin="$(dirname "$bench_bin")/bench_reliable"

reliable_verdict=SKIPPED
if [[ -f "$reliable_baseline" && -x "$reliable_bin" ]]; then
  reliable_result="$(mktemp /tmp/bench_reliable.XXXXXX.json)"
  cleanup_files+=("$reliable_result")
  echo "bench_gate: running $reliable_bin ..."
  reliable_verdict=PASS
  if ! (cd "$repo_root" && "$reliable_bin" --out "$reliable_result"); then
    echo "bench_gate: $reliable_bin failed" >&2
    reliable_verdict=FAIL
  fi
fi

if [[ "$reliable_verdict" == PASS ]]; then
  python3 - "$reliable_baseline" "$reliable_result" <<'EOF' || reliable_verdict=FAIL
import json
import sys

TOLERANCE = 0.10  # 10%

with open(sys.argv[1]) as f:
    base = json.load(f)
with open(sys.argv[2]) as f:
    cur = json.load(f)

failures = []


def check_ceiling(name, baseline, current):
    """Metric where lower is better: fail if it rises >10%."""
    ceiling = baseline * (1.0 + TOLERANCE)
    verdict = "ok" if current <= ceiling else "FAIL"
    print(f"  {name:36s} baseline={baseline:>12.0f} "
          f"current={current:>12.0f} ceiling={ceiling:>12.1f} {verdict}")
    if current > ceiling:
        failures.append(name)


def lookup(doc, where, mode, key):
    """doc[mode][key], or None after recording a named failure: a gated
    row missing from the baseline or the run fails the gate."""
    value = doc.get(mode, {}).get(key)
    if value is None:
        print(f"  {mode}.{key}: missing from {where} FAIL")
        failures.append(f"{mode}.{key} missing from {where}")
    return value


print("bench_gate: comparing against committed BENCH_reliable.json")
for mode in ("subcast", "channel_wide"):
    delivered_all = lookup(cur, "run", mode, "delivered_all")
    if delivered_all is False:
        print(f"  {mode}.delivered_all: FAIL (blocks lost for good)")
        failures.append(f"{mode}.delivered_all")
    for key in ("repair_rounds", "repair_bytes"):
        baseline = lookup(base, "baseline", mode, key)
        current = lookup(cur, "run", mode, key)
        if baseline is not None and current is not None:
            check_ceiling(f"{mode}.{key}", baseline, current)
# The paper's point (§2.1): repairing through the covering subtree must
# cost strictly less than flooding the channel.
# (A missing repair_bytes row already failed above.)
sub_b = cur.get("subcast", {}).get("repair_bytes")
chan_b = cur.get("channel_wide", {}).get("repair_bytes")
if sub_b is not None and chan_b is not None:
    verdict = "ok" if sub_b < chan_b else "FAIL"
    print(f"  subcast < channel_wide repair bytes   "
          f"{sub_b} vs {chan_b} {verdict}")
    if sub_b >= chan_b:
        failures.append("subcast_vs_channel_repair_bytes")

if failures:
    print(f"bench_gate: FAIL ({', '.join(failures)})")
    sys.exit(1)
print("bench_gate: PASS (reliable)")
EOF
elif [[ "$reliable_verdict" == SKIPPED ]]; then
  echo "bench_gate: skipping reliable gate (baseline or binary missing)"
fi

echo "bench_gate: core $core_verdict, reliable $reliable_verdict"
if [[ "$core_verdict" == FAIL || "$reliable_verdict" == FAIL ]]; then
  exit 1
fi
