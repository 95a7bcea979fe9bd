#!/usr/bin/env bash
# Golden determinism gate for the observability plane (DESIGN.md §11).
#
#   1. Captures the pinned seed-7 churn and chaos scenarios and checks
#      the trace JSONL and metrics snapshot of each against the sha256
#      digests committed in tests/golden/obs_capture.sha256, so a change
#      that moves any record or metric fails across commits, not only
#      between two runs of one binary. Re-pin only with a stated reason.
#   2. Captures churn seed 7 a second time and asserts both artifacts
#      are byte-identical (scripts/tracediff.py for the trace, cmp for
#      the snapshot).
#   3. Captures a different seed and asserts tracediff reports the first
#      divergent record (non-zero exit).
# Run by ctest as `obs_golden` and by the CI `obs` step.
#
# Usage: scripts/obs_golden.sh [path/to/obs_capture]
set -uo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
capture="${1:-$repo_root/build/bench/obs_capture}"
digests="$repo_root/tests/golden/obs_capture.sha256"

if [[ ! -x "$capture" ]]; then
  echo "obs_golden: capture binary not found: $capture" >&2
  echo "  build it first: cmake --build build --target obs_capture" >&2
  exit 2
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
fail=0

run() {
  local tag="$1"; shift
  "$capture" "$@" \
    --trace-out "$workdir/$tag.jsonl" \
    --metrics-out "$workdir/$tag.json" >/dev/null || {
    echo "obs_golden: capture ($tag: $*) failed" >&2
    exit 1
  }
}

run churn --scenario churn --seed 7
run chaos --scenario chaos --seed 7
if (cd "$workdir" && sha256sum --quiet -c "$digests"); then
  echo "obs_golden: churn and chaos artifacts match the committed digests"
else
  echo "obs_golden: FAIL — artifacts differ from $digests" >&2
  fail=1
fi

run b --scenario churn --seed 7
run c --scenario churn --seed 8

if python3 "$repo_root/scripts/tracediff.py" \
    "$workdir/churn.jsonl" "$workdir/b.jsonl"; then
  echo "obs_golden: same-seed traces identical"
else
  echo "obs_golden: FAIL — same-seed traces diverge (see above)" >&2
  fail=1
fi

if cmp -s "$workdir/churn.json" "$workdir/b.json"; then
  echo "obs_golden: same-seed metrics snapshots identical"
else
  echo "obs_golden: FAIL — same-seed metrics snapshots differ" >&2
  fail=1
fi

if python3 "$repo_root/scripts/tracediff.py" \
    "$workdir/churn.jsonl" "$workdir/c.jsonl"; then
  echo "obs_golden: FAIL — different-seed traces compare identical" >&2
  fail=1
else
  echo "obs_golden: different-seed divergence detected and located"
fi

if [[ "$fail" -ne 0 ]]; then
  echo "obs_golden: FAILED" >&2
  exit 1
fi
echo "obs_golden: all green"
