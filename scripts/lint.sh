#!/usr/bin/env bash
# Static-analysis gate (DESIGN.md §7) — the third CI job next to
# verify (build+test) and sanitize (ASan/UBSan).
#
# Layers, in order:
#   1. detlint        custom determinism/protocol lints (pure Python,
#                     always run — no toolchain dependency)
#   2. archlint       architecture/lifecycle/wire-coverage lints
#                     (layer DAG in scripts/lint/layers.toml)
#   3. doclint        documentation honesty: DESIGN.md §-refs resolve,
#                     every bench has an EXPERIMENTS.md entry, README
#                     gate rows name real scripts, relative md links
#                     resolve
#   4. format check   clang-format diff-gate, or whitespace fallback
#   5. clang-tidy     .clang-tidy profile, only when installed
#   6. cppcheck       with scripts/lint/cppcheck-suppressions.txt,
#                     only when installed
#
# The container image does not ship the clang tools; CI installs them.
# Skipping an uninstalled tool is reported but is not a failure —
# detlint, archlint and the format gate always run and always gate.
#
# Usage:
#   scripts/lint.sh               full gate
#   scripts/lint.sh --changed     fast pre-commit mode: detlint +
#                                 archlint on files touched per git
#                                 (staged, unstaged and untracked);
#                                 skips the format/tidy/cppcheck layers
#   scripts/lint.sh --self-test   cpp_scan unit tests + detlint,
#                                 archlint and doclint fixture suites
set -uo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

if [[ "${1:-}" == "--self-test" ]]; then
  fail=0
  echo "== cpp_scan unit tests =="
  python3 "$repo_root/scripts/lint/test_cpp_scan.py" || fail=1
  echo "== detlint fixtures =="
  python3 "$repo_root/scripts/lint/detlint.py" --self-test \
    --root "$repo_root" || fail=1
  echo "== archlint fixtures =="
  python3 "$repo_root/scripts/lint/archlint.py" --self-test \
    --root "$repo_root" || fail=1
  echo "== doclint fixtures =="
  python3 "$repo_root/scripts/lint/doclint.py" --self-test \
    --root "$repo_root" || fail=1
  exit "$fail"
fi

if [[ "${1:-}" == "--changed" ]]; then
  # Files git considers modified (staged + unstaged + untracked),
  # restricted to C++ sources under src/; deleted files have nothing
  # left to scan. Archlint still scans the whole tree for cross-file
  # context but reports only these files.
  mapfile -t changed < <(
    cd "$repo_root" && {
      git diff --name-only --diff-filter=d HEAD --
      git ls-files --others --exclude-standard
    } | sort -u | grep -E '^src/.*\.(cpp|hpp|h|cc)$' || true
  )
  if [[ "${#changed[@]}" -eq 0 ]]; then
    echo "lint.sh --changed: no modified C++ sources under src/"
    exit 0
  fi
  printf 'lint.sh --changed: %d file(s)\n' "${#changed[@]}"
  abs=()
  for f in "${changed[@]}"; do abs+=("$repo_root/$f"); done
  fail=0
  python3 "$repo_root/scripts/lint/detlint.py" --root "$repo_root" \
    "${abs[@]}" || fail=1
  python3 "$repo_root/scripts/lint/archlint.py" --root "$repo_root" \
    "${abs[@]}" || fail=1
  if [[ "$fail" -ne 0 ]]; then
    echo "lint.sh --changed: FAILED — see findings above" >&2
    exit 1
  fi
  echo "lint.sh --changed: clean"
  exit 0
fi

fail=0

echo "== detlint (determinism & protocol-safety lints) =="
if python3 "$repo_root/scripts/lint/detlint.py" --root "$repo_root"; then
  echo "detlint: clean"
else
  fail=1
fi

echo "== archlint (architecture, lifecycle & wire coverage) =="
if python3 "$repo_root/scripts/lint/archlint.py" --root "$repo_root"; then
  echo "archlint: clean"
else
  fail=1
fi

echo "== doclint (documentation cross-reference honesty) =="
if python3 "$repo_root/scripts/lint/doclint.py" --root "$repo_root"; then
  echo "doclint: clean"
else
  fail=1
fi

echo "== format check =="
"$repo_root/scripts/format_check.sh" || fail=1

echo "== clang-tidy =="
if command -v clang-tidy >/dev/null 2>&1; then
  # clang-tidy needs a compilation database; configure a build dir if
  # none exists yet (CMakeLists.txt exports compile_commands.json).
  build_dir="$repo_root/build"
  if [[ ! -f "$build_dir/compile_commands.json" ]]; then
    cmake -B "$build_dir" -S "$repo_root" >/dev/null
  fi
  mapfile -t tidy_sources < <(find "$repo_root/src" -name '*.cpp' | sort)
  if clang-tidy -p "$build_dir" --quiet "${tidy_sources[@]}"; then
    echo "clang-tidy: clean"
  else
    fail=1
  fi
else
  echo "clang-tidy not installed; skipped (CI runs it)"
fi

echo "== cppcheck =="
if command -v cppcheck >/dev/null 2>&1; then
  if cppcheck --enable=warning,performance,portability \
    --std=c++20 --inline-suppr --error-exitcode=1 --quiet \
    --suppressions-list="$repo_root/scripts/lint/cppcheck-suppressions.txt" \
    -I "$repo_root/src" "$repo_root/src"; then
    echo "cppcheck: clean"
  else
    fail=1
  fi
else
  echo "cppcheck not installed; skipped (CI runs it)"
fi

if [[ "$fail" -ne 0 ]]; then
  echo "lint.sh: FAILED — see findings above (detlint/archlint live in" \
    "scripts/lint/)" >&2
  exit 1
fi
echo "== lint.sh: all green =="
