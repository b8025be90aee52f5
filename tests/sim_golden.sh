#!/usr/bin/env bash
# Byte-compares turquois_sim reports against a golden file:
#
#   tests/sim_golden.sh TURQUOIS_SIM GOLDEN_FILE [--update]
#
# The golden pins per-repetition decisions and latencies, the latency
# summary, the medium totals and the audit lines of Turquois runs that the
# deployment golden (n <= 7) does not reach: n=16 under the Byzantine and
# adaptive-omission adversaries, n=16 Byzantine with divergent proposals,
# and n=64 failure-free. Seed 5 is one whose eight
# divergent Byzantine repetitions all decided even before stalled undecided
# senders attached the evidence of their bottoms (DESIGN.md §5.1).
#
# --update rewrites the golden after an intentional change; the commit
# that does so must say which lines moved and why.
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 TURQUOIS_SIM GOLDEN_FILE [--update]" >&2
  exit 2
fi
sim="$1"
golden="$2"

runs=(
  "--n 16 --faults byzantine;adaptive --dist unanimous --reps 8 --seed 3 --timeout 60 --verbose"
  "--n 16 --faults byzantine --dist divergent --reps 8 --seed 5 --timeout 60 --verbose"
  "--n 64 --reps 3 --seed 1 --verbose"
)

report() {
  local run
  for run in "${runs[@]}"; do
    echo "\$ turquois_sim $run"
    # Word splitting is intended: each entry is a flag list without spaces
    # inside any one flag.
    # shellcheck disable=SC2086
    "$sim" $run
    echo
  done
}

if [ "${3:-}" = "--update" ]; then
  report > "$golden"
  echo "wrote $golden"
  exit 0
fi

actual="$(mktemp)"
trap 'rm -f "$actual"' EXIT
report > "$actual"
if ! diff -u "$golden" "$actual"; then
  echo "turquois_sim reports differ from $golden (diff above)" >&2
  exit 1
fi
