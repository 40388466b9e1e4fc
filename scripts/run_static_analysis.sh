#!/usr/bin/env bash
# Static-analysis driver: clang-tidy over every translation unit plus a
# clang-format conformance check. Exits non-zero on any diagnostic.
#
# Usage: scripts/run_static_analysis.sh [--tidy-only|--format-only]
#
# Tools are gated: a missing clang-tidy/clang-format is reported and that
# stage is skipped (exit 0), so the script is safe to call from environments
# that only carry the compiler toolchain. CI installs both tools and
# therefore runs both stages for real.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE="${1:-all}"
STATUS=0

# Sources under analysis: everything we compile, not the build trees.
mapfile -t SOURCES < <(find src tests examples \
  \( -name '*.cpp' -o -name '*.hpp' \) | sort)

run_format() {
  if ! command -v clang-format > /dev/null 2>&1; then
    echo "run_static_analysis: clang-format not found; skipping format check"
    return 0
  fi
  echo "run_static_analysis: clang-format --dry-run over ${#SOURCES[@]} files"
  if ! clang-format --dry-run -Werror "${SOURCES[@]}"; then
    echo "run_static_analysis: formatting violations found (fix with" \
         "clang-format -i)" >&2
    STATUS=1
  fi
}

run_tidy() {
  if ! command -v clang-tidy > /dev/null 2>&1; then
    echo "run_static_analysis: clang-tidy not found; skipping lint pass"
    return 0
  fi
  # clang-tidy needs a compilation database; configure the tidy preset
  # without CMAKE_CXX_CLANG_TIDY so the build itself stays fast and we
  # drive the tool over the database instead.
  local db_dir=build-tidy
  if [[ ! -f "$db_dir/compile_commands.json" ]]; then
    cmake -B "$db_dir" -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
  fi
  mapfile -t CPP_SOURCES < <(printf '%s\n' "${SOURCES[@]}" | grep '\.cpp$')
  echo "run_static_analysis: clang-tidy over ${#CPP_SOURCES[@]}" \
       "translation units"
  local runner
  if command -v run-clang-tidy > /dev/null 2>&1; then
    runner=(run-clang-tidy -quiet -p "$db_dir")
    if ! "${runner[@]}" "${CPP_SOURCES[@]}"; then
      STATUS=1
    fi
  else
    for f in "${CPP_SOURCES[@]}"; do
      if ! clang-tidy -quiet -p "$db_dir" "$f"; then
        STATUS=1
      fi
    done
  fi
}

case "$MODE" in
  --format-only) run_format ;;
  --tidy-only) run_tidy ;;
  all) run_format; run_tidy ;;
  *) echo "usage: $0 [--tidy-only|--format-only]" >&2; exit 2 ;;
esac

if [[ "$STATUS" -ne 0 ]]; then
  echo "run_static_analysis: FAILED" >&2
else
  echo "run_static_analysis: clean"
fi
exit "$STATUS"
