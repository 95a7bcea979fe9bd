#!/usr/bin/env bash
# Performance regression gate: re-run bench_core and compare against the
# committed BENCH_core.json baseline. Fails (exit 1) if scheduler
# throughput drops by more than 10% or churn wall time rises by more
# than 10%. When a committed BENCH_reliable.json baseline and the
# bench_reliable binary both exist, the reliable repair-path gate runs
# too: delivery must stay complete, repair rounds/bytes must not
# regress, and subcast repair must keep beating channel-wide repair.
#
# Usage:
#   scripts/bench_gate.sh [path/to/bench_core] [path/to/result.json]
#
# With no arguments it builds nothing: it expects build/bench/bench_core
# to exist (run cmake --build build first) and writes the fresh result
# to a temporary file. Pass an existing result JSON as the second
# argument to skip the benchmark run (e.g. in CI where the run already
# happened). bench_reliable is auto-detected next to bench_core.
set -euo pipefail

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

if [[ -z "$result" ]]; then
  if [[ ! -x "$bench_bin" ]]; then
    echo "bench_gate: benchmark binary not found: $bench_bin" >&2
    echo "bench_gate: build it first (cmake --build build --target bench_core)" >&2
    exit 2
  fi
  result="$(mktemp /tmp/bench_core.XXXXXX.json)"
  cleanup_files+=("$result")
  echo "bench_gate: running $bench_bin ..."
  (cd "$repo_root" && "$bench_bin" --out "$result")
fi

python3 - "$baseline" "$result" <<'EOF'
import json
import sys

TOLERANCE = 0.10  # 10%

with open(sys.argv[1]) as f:
    base = json.load(f)
with open(sys.argv[2]) as f:
    cur = json.load(f)

failures = []


def check_floor(name, baseline, current):
    """Metric where higher is better: fail if it drops >10%."""
    floor = baseline * (1.0 - TOLERANCE)
    verdict = "ok" if current >= floor else "FAIL"
    print(f"  {name:32s} baseline={baseline:>14.1f} "
          f"current={current:>14.1f} floor={floor:>14.1f} {verdict}")
    if current < floor:
        failures.append(name)


def check_ceiling(name, baseline, current):
    """Metric where lower is better: fail if it rises >10%."""
    ceiling = baseline * (1.0 + TOLERANCE)
    verdict = "ok" if current <= ceiling else "FAIL"
    print(f"  {name:32s} baseline={baseline:>14.3f} "
          f"current={current:>14.3f} ceiling={ceiling:>14.3f} {verdict}")
    if current > ceiling:
        failures.append(name)


print("bench_gate: comparing against committed BENCH_core.json")
check_floor("scheduler.events_per_sec",
            base["scheduler"]["events_per_sec"],
            cur["scheduler"]["events_per_sec"])
# Fast-path blocks appeared with the flat-FIB/timer-wheel PR; guard the
# missing-key case so the gate still runs against older baselines.
if "fib" in base and "fib" in cur:
    check_floor("fib.lookups_per_sec",
                base["fib"]["lookups_per_sec"],
                cur["fib"]["lookups_per_sec"])
if "timer_wheel" in base and "timer_wheel" in cur:
    check_floor("timer_wheel.events_per_sec",
                base["timer_wheel"]["events_per_sec"],
                cur["timer_wheel"]["events_per_sec"])
check_ceiling("churn.wall_s", base["churn"]["wall_s"], cur["churn"]["wall_s"])

if failures:
    print(f"bench_gate: FAIL ({', '.join(failures)} regressed >10%)")
    sys.exit(1)
print("bench_gate: PASS")
EOF

# ----------------------------------------------------------------------
# Reliable repair-path gate (auto-detected: needs the committed baseline
# and the bench_reliable binary built next to bench_core).
# ----------------------------------------------------------------------
reliable_baseline="$repo_root/BENCH_reliable.json"
reliable_bin="$(dirname "$bench_bin")/bench_reliable"

if [[ -f "$reliable_baseline" && -x "$reliable_bin" ]]; then
  reliable_result="$(mktemp /tmp/bench_reliable.XXXXXX.json)"
  cleanup_files+=("$reliable_result")
  echo "bench_gate: running $reliable_bin ..."
  (cd "$repo_root" && "$reliable_bin" --out "$reliable_result")

  python3 - "$reliable_baseline" "$reliable_result" <<'EOF'
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


print("bench_gate: comparing against committed BENCH_reliable.json")
# Guard every key: the gate must keep running against baselines from
# before (or after) a schema change instead of KeyError-ing.
for mode in ("subcast", "channel_wide"):
    if mode not in base or mode not in cur:
        continue
    if "delivered_all" in cur[mode] and not cur[mode]["delivered_all"]:
        print(f"  {mode}.delivered_all: FAIL (blocks lost for good)")
        failures.append(f"{mode}.delivered_all")
    for key in ("repair_rounds", "repair_bytes"):
        if key in base[mode] and key in cur[mode]:
            check_ceiling(f"{mode}.{key}", base[mode][key], cur[mode][key])
# The paper's point (§2.1): repairing through the covering subtree must
# cost strictly less than flooding the channel.
if "subcast" in cur and "channel_wide" in cur and \
        "repair_bytes" in cur.get("subcast", {}) and \
        "repair_bytes" in cur.get("channel_wide", {}):
    sub_b = cur["subcast"]["repair_bytes"]
    chan_b = cur["channel_wide"]["repair_bytes"]
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
else
  echo "bench_gate: skipping reliable gate (baseline or binary missing)"
fi
