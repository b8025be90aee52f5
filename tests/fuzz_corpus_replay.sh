#!/usr/bin/env bash
# Replays every top-level turquois_fuzz reproducer through turquois_sim:
#
#   tests/fuzz_corpus_replay.sh TURQUOIS_SIM CORPUS_DIR
#
# Each *.repro file ends in one turquois_sim command line; on fixed code it
# must exit 0 with a passing audit. CORPUS_DIR/stalls/ holds known liveness
# limits that are expected to keep failing, so the glob leaves it out.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 TURQUOIS_SIM CORPUS_DIR" >&2
  exit 2
fi
sim="$1"
corpus="$2"

count=0
for repro in "$corpus"/*.repro; do
  cmd=$(grep -v '^#' "$repro")
  # eval undoes the single quotes around fault and topology specs.
  if ! out=$(eval "\"\$sim\" ${cmd#turquois_sim }"); then
    echo "FAIL: $repro exits non-zero"
    echo "$out"
    exit 1
  fi
  if ! grep -q '^audit: .*(pass)$' <<<"$out"; then
    echo "FAIL: $repro has no passing audit line"
    echo "$out"
    exit 1
  fi
  count=$((count + 1))
done
[ "$count" -gt 0 ] || { echo "no reproducers in $corpus"; exit 1; }
echo "replayed $count reproducers"
