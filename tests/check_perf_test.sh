#!/usr/bin/env bash
# Runs tools/check_perf.py on one (current, baseline) pair of perf reports
# and checks its verdict: the exit status, and a line the output must hold.
#
#   tests/check_perf_test.sh PYTHON CHECKER CURRENT BASELINE EXIT PATTERN
#
# PATTERN is an extended regular expression (grep -E).
set -u

python="$1" checker="$2" current="$3" baseline="$4" want_rc="$5" pattern="$6"
out=$("$python" "$checker" "$current" "$baseline" 2>&1)
rc=$?
printf '%s\n' "$out"
if [ "$rc" -ne "$want_rc" ]; then
  echo "check_perf_test: expected exit $want_rc, got $rc"
  exit 1
fi
if ! grep -qE -- "$pattern" <<<"$out"; then
  echo "check_perf_test: output lacks /$pattern/"
  exit 1
fi
