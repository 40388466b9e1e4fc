#!/usr/bin/env bash
# Campaign digest check: runs the same scenario selection twice under two
# settings that must not change any simulation, and fails unless every
# per-scenario trace digest is byte-identical.
#
#   jobs    --jobs 1 vs --jobs JOBS: the thread schedule changes nothing.
#   oracle  GRIDSIM_NET_ORACLE=1 vs 0, both at --jobs JOBS: the incremental
#           max-min solver matches the retained global oracle down to the
#           last ulp of every flow rate.
#
# Usage: scripts/check_digests.sh MODE [FILTER] [JOBS] [path/to/gridsim]
#   MODE    jobs | oracle
#   FILTER  glob over scenario names/groups (default: table4*)
#   JOBS    worker count (default: nproc)
#   GRIDSIM_CLI overrides the default binary location.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE="${1:-}"
FILTER="${2:-table4*}"
JOBS="${3:-$(nproc)}"
CLI="${4:-${GRIDSIM_CLI:-build/src/tools/gridsim}}"

# Each mode names a reference run (a) and a candidate run (b).
case "$MODE" in
  jobs)
    RUN_A=("$CLI" campaign --jobs 1)
    RUN_B=("$CLI" campaign --jobs "$JOBS")
    WHAT="--jobs 1 and --jobs $JOBS" ;;
  oracle)
    RUN_A=(env GRIDSIM_NET_ORACLE=1 "$CLI" campaign --jobs "$JOBS")
    RUN_B=(env GRIDSIM_NET_ORACLE=0 "$CLI" campaign --jobs "$JOBS")
    WHAT="the oracle and incremental solvers at --jobs $JOBS" ;;
  *)
    echo "usage: $0 jobs|oracle [filter] [jobs] [path/to/gridsim]" >&2
    exit 2 ;;
esac

if [[ ! -x "$CLI" ]]; then
  echo "check_digests: gridsim binary not found at '$CLI'" >&2
  echo "build it first: cmake --preset release && cmake --build --preset release" >&2
  exit 2
fi

WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

"${RUN_A[@]}" --filter "$FILTER" --out "$WORKDIR/a" >/dev/null
"${RUN_B[@]}" --filter "$FILTER" --out "$WORKDIR/b" >/dev/null

# The report keeps one scenario object per line, so name+digest pairs fall
# out with grep/sed — no JSON parser needed.
extract() {
  grep -o '"name": "[^"]*", "group": "[^"]*", "ok": [a-z]*, "digest": "[0-9a-f]*"' \
    "$1/CAMPAIGN.json"
}

extract "$WORKDIR/a" > "$WORKDIR/a.digests" || true
extract "$WORKDIR/b" > "$WORKDIR/b.digests" || true

if [[ ! -s "$WORKDIR/a.digests" ]]; then
  echo "check_digests: no scenario digests found for filter '$FILTER'" >&2
  exit 2
fi

if ! diff -u "$WORKDIR/a.digests" "$WORKDIR/b.digests"; then
  echo "check_digests: digest mismatch between $WHAT" >&2
  exit 1
fi

COUNT="$(wc -l < "$WORKDIR/a.digests")"
echo "check_digests: $COUNT scenario digests identical for $WHAT (filter '$FILTER')"
