#!/usr/bin/env bash
# Documentation consistency checks, run by the CI docs job and by ctest
# (check_docs), and usable locally:
#
#   tools/check_docs.sh [--links-only] [BUILD_DIR]
#
# 1. Link check: every relative markdown link in the repo's *.md files
#    must point at an existing file (external http(s) links are skipped —
#    CI has no network guarantee).
# 2. Baseline check: the committed BENCH_*.json baselines and the docs
#    must agree — every committed baseline is referenced from README.md
#    or EXPERIMENTS.md (an orphan baseline is stale), every baseline the
#    docs/CI/perf checker name exists in the repo (a dangling reference
#    means a renamed or deleted file), and each carries a "schema" line.
# 3. Flag check: every `--flag` mentioned in README.md, DESIGN.md or
#    EXPERIMENTS.md must appear in the --help/usage output of at least one
#    built binary, so the docs can never describe a flag that doesn't
#    exist (or no longer exists). Needs a build; skipped under
#    --links-only.
set -euo pipefail

cd "$(dirname "$0")/.."

links_only=0
build_dir=build
for arg in "$@"; do
  case "$arg" in
    --links-only) links_only=1 ;;
    *) build_dir="$arg" ;;
  esac
done

fail=0

# ---------------------------------------------------------------- 1. links --
echo "== markdown link check =="
for md in *.md; do
  case "$md" in
    # Machine-generated retrieval artifacts, not maintained documentation.
    SNIPPETS.md|PAPERS.md) continue ;;
  esac
  # Extract (target) parts of [text](target) links; fenced code blocks are
  # stripped first (C++ lambdas like [](Value v) would parse as links).
  while IFS= read -r target; do
    [ -z "$target" ] && continue
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"   # drop in-file anchors
    [ -z "$path" ] && continue
    if [ ! -e "$path" ]; then
      echo "BROKEN LINK: $md -> $target"
      fail=1
    fi
  done < <(awk '/^```/{fence=!fence; next} !fence' "$md" |
           grep -oE '\]\([^)]+\)' | sed -E 's/^\]\(//; s/\)$//')
done
[ "$fail" -eq 0 ] && echo "links ok"

# ------------------------------------------------------------ 2. baselines --
echo "== BENCH baseline drift check =="
for bench in BENCH_*.json; do
  [ -e "$bench" ] || continue
  if ! grep -q '"schema"' "$bench"; then
    echo "NO SCHEMA: $bench has no \"schema\" field"
    fail=1
  fi
  if ! grep -qF -- "$bench" README.md EXPERIMENTS.md; then
    echo "ORPHAN BASELINE: $bench is committed but neither README.md nor"
    echo "  EXPERIMENTS.md mentions it"
    fail=1
  fi
done
# Dangling references the other way: every BENCH_<name>.json the docs, CI
# config, or perf checker name must exist (wildcard references like
# BENCH_campaign_*.json don't match the pattern and are skipped).
while IFS= read -r ref; do
  if [ ! -e "$ref" ]; then
    echo "MISSING BASELINE: docs/CI reference $ref but it is not committed"
    fail=1
  fi
done < <(grep -ohE 'BENCH_[A-Za-z0-9_]+\.json' \
           README.md EXPERIMENTS.md .github/workflows/ci.yml \
           tools/check_perf.py | sort -u |
         grep -vE '^BENCH_(table2_fail_stop|table3_byzantine|ablation_[a-z]+|campaign[A-Za-z0-9_]*)\.json$')
[ "$fail" -eq 0 ] && echo "baselines ok"

if [ "$links_only" -eq 1 ]; then
  exit "$fail"
fi

# ---------------------------------------------------------------- 3. flags --
# Flags whose documentation refers to third-party tools (cmake, ctest,
# google-benchmark) rather than to our binaries.
ignore_flags="--output-on-failure --test-dir --benchmark_out --build"

flag_docs=(README.md DESIGN.md EXPERIMENTS.md)
echo "== doc flag check (${flag_docs[*]}; build dir: $build_dir) =="
binaries=(
  "$build_dir/tools/turquois_sim"
  "$build_dir/tools/turquois_campaign"
  "$build_dir/tools/turquois_fuzz"
  "$build_dir/tools/trace_inspect"
  "$build_dir/tools/turquois_node"
  "$build_dir/tools/turquois_soak"
  "$build_dir/bench/table1_failure_free"
  "$build_dir/bench/large_n"
  "$build_dir/bench/service_throughput"
  "$build_dir/bench/sim_micro"
  "$build_dir/bench/spatial_grid"
  "$build_dir/bench/ablation_sigma"
  "$build_dir/bench/ablation_medium"
  "$build_dir/bench/ablation_timeout"
)
for bin in "${binaries[@]}"; do
  if [ ! -x "$bin" ]; then
    echo "missing binary: $bin (build first, or pass the build dir)"
    exit 1
  fi
done

# Usage text of every binary (they print usage and exit non-zero on --help).
help_text=$(for bin in "${binaries[@]}"; do "$bin" --help 2>&1 || true; done)

while IFS=: read -r doc flag; do
  case " $ignore_flags " in
    *" $flag "*) continue ;;
  esac
  if ! grep -qF -- "$flag" <<<"$help_text"; then
    echo "UNDOCUMENTED-IN-HELP: $doc mentions '$flag' but no binary's"
    echo "  usage output contains it"
    fail=1
  fi
done < <(grep -oE '\-\-[a-z][a-z_-]+' "${flag_docs[@]}" | sort -u)
[ "$fail" -eq 0 ] && echo "flags ok"

exit "$fail"
