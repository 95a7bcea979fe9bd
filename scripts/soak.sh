#!/usr/bin/env bash
# Chaos-soak gate: run the seeded fault-injection campaign under the
# invariant auditor and require a fully clean outcome — at least 200
# faults injected, zero invariant violations, zero unconverged faults —
# that reproduces the committed reference exactly: every field of the
# result but wall_s, the audit count and each fault's convergence time
# included, must equal BENCH_soak.json. The campaign is seeded, so a
# fault in the protocol or in the incremental audit shifts these.
#
# Usage:
#   scripts/soak.sh [path/to/soak_chaos] [path/to/result.json]
#                   [path/to/reference.json]
#
# With no arguments it expects build/bench/soak_chaos to exist (run
# cmake --build build first) and writes the fresh result to a temporary
# file. Pass an existing result JSON as the second argument to skip the
# campaign run (e.g. in CI where the run already happened). The
# reference defaults to BENCH_soak.json at the repository root.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
soak_bin="${1:-$repo_root/build/bench/soak_chaos}"
result="${2:-}"
reference="${3:-$repo_root/BENCH_soak.json}"

if [[ -z "$result" ]]; then
  if [[ ! -x "$soak_bin" ]]; then
    echo "soak: campaign binary not found: $soak_bin" >&2
    echo "soak: build it first (cmake --build build --target soak_chaos)" >&2
    exit 2
  fi
  result="$(mktemp /tmp/soak_chaos.XXXXXX.json)"
  trap 'rm -f "$result"' EXIT
  echo "soak: running $soak_bin ..."
  # The binary exits non-zero on violations; let the JSON check below
  # produce the diagnostic instead of dying on the raw exit code.
  (cd "$repo_root" && "$soak_bin" --faults 200 --out "$result") || true
fi

python3 - "$result" "$reference" <<'EOF'
import json
import sys

MIN_FAULTS = 200
# Host-dependent fields; everything else is a function of the seed.
NOT_COMPARED = {"wall_s"}

with open(sys.argv[1]) as f:
    report = json.load(f)
with open(sys.argv[2]) as f:
    reference = json.load(f)

faults = report["faults"]
violations = report["violations"]
unconverged = report["unconverged"]
audits = report["audits_run"]

failures = []
if faults < MIN_FAULTS:
    failures.append(f"only {faults} faults injected (need >= {MIN_FAULTS})")
if violations != 0:
    failures.append(f"{violations} invariant violations")
if unconverged != 0:
    failures.append(f"{unconverged} faults never reached audit-clean")
if audits <= faults:
    failures.append(f"campaign trivially idle ({audits} audits for {faults} faults)")

mismatches = []
for key in sorted(set(report) | set(reference)):
    if key in NOT_COMPARED:
        continue
    got, want = report.get(key), reference.get(key)
    if key == "per_fault" and isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            mismatches.append(f"per_fault has {len(got)} entries, reference {len(want)}")
        for g, w in zip(got, want):
            if g != w:
                mismatches.append(f"fault {w.get('index')}: {g} != reference {w}")
    elif got != want:
        mismatches.append(f"{key}: {got} != reference {want}")
for line in mismatches[:20]:
    print(f"soak:   {line}")
if mismatches:
    failures.append(f"{len(mismatches)} fields differ from {sys.argv[2]}")

print(f"soak: {faults} faults, {audits} audits, "
      f"{violations} violations, {unconverged} unconverged, "
      f"max convergence {report['max_convergence_s']:.3f} s, "
      f"mean {report['mean_convergence_s']:.3f} s")
for outcome in report.get("per_fault", []):
    if outcome["violations"] or not outcome["converged"]:
        print(f"soak:   fault {outcome['index']} ({outcome['kind']}): "
              f"violations={outcome['violations']} "
              f"converged={outcome['converged']}")

if failures:
    print(f"soak: FAIL ({'; '.join(failures)})")
    sys.exit(1)
print("soak: PASS")
EOF
