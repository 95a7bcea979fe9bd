#!/usr/bin/env bash
# Sanitizer gate for the simulator core.
#
# Builds the whole tree with AddressSanitizer + UndefinedBehaviorSanitizer,
# runs the full test suite, then a quick bench_core pass — so the slab
# scheduler's pointer recycling, the InlineFunction placement-new
# machinery, and the COW payload sharing are all exercised under the
# sanitizers, not just under the unit-test assertions.
#
# Usage: scripts/check.sh [build-dir]      (default: build-asan)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

on_fail() {
  echo >&2
  echo "check.sh: FAILED. If the failure is a -Werror=unused-result or" >&2
  echo "ordering issue, run the static gate for a faster diagnosis:" >&2
  echo "    scripts/lint.sh        (also the CI 'lint' job)" >&2
  echo "For layering, timer-lifecycle, or wire-coverage errors the" >&2
  echo "architecture linter names the exact edge/field:" >&2
  echo "    scripts/lint/archlint.py --root .   (layer DAG in scripts/lint/layers.toml)" >&2
  echo "If an Obs* determinism test or obs_golden failed, pinpoint the" >&2
  echo "first divergent event with the trace differ:" >&2
  echo "    scripts/obs_golden.sh  (also the CI 'obs' job)" >&2
  echo "    scripts/tracediff.py a.jsonl b.jsonl" >&2
  echo "If doclint_tree failed, a doc reference went stale — the finding" >&2
  echo "names the file and the missing target:" >&2
  echo "    scripts/lint/doclint.py --root ." >&2
}
trap 'on_fail' ERR
build_dir="${1:-$repo_root/build-asan}"

echo "== configure ($build_dir, ASan+UBSan) =="
cmake -B "$build_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"

echo "== build =="
cmake --build "$build_dir" -j "$(nproc)"

echo "== tests (ctest) =="
ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"

echo "== bench_core --quick (sanitized) =="
# Throughput numbers are meaningless under ASan; this run is purely a
# memory-correctness sweep of the slab/COW hot paths at scale. Write the
# JSON somewhere disposable so the committed BENCH_core.json (produced
# by a normal optimized build) is not clobbered with sanitized numbers.
"$build_dir/bench/bench_core" --quick --out "$build_dir/BENCH_core.quick.json"

echo "== check.sh: all green =="
