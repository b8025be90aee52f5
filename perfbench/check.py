#!/usr/bin/env python3
"""Runs every workload and reports the benchmark's steadiness.

    python3 perfbench/check.py [--seeds 10] [--repeat 5]

For each workload in BENCHMARK.json, runs perfbench/run.py for run_seconds
once per seed 1..--seeds, then --repeat times on the held-out seed, and
prints every end-to-end metric with its unit, domain, median and spreads.
A spread is the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median. A metric is flagged
when its seed-to-seed spread is wider than its bound, since a later change
is judged by runs on different seeds; a sim metric must also repeat exactly
on the held-out seed, and a host metric's run-to-run spread there must stay
within its bound too (host times are scaled to a reference machine speed,
see README.md, "Host noise").

One traced run on the held-out seed prints the per-layer metrics. Exits
non-zero when a run fails a check or a metric is flagged.
`--seeds 1 --repeat 1` is a quick pass over all workloads.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

# Never used while the benchmark or a change is tuned: a later change
# confirms a claimed gain on this seed.
HELD_OUT_SEED = 20100628

# BENCHMARK.json admits no key beyond name, unit, better and bound, so the
# time domain of each metric is declared here. Host metrics are wall-clock
# or memory of the runner process; ok_frac is an outcome tally; every other
# metric is simulated, a pure function of the seed (a host metric missing
# here shows up as a sim metric that does not repeat).
HOST = frozenset({
    "setup_s", "rep_wall_p50_ms", "decisions_per_wall_s", "peak_rss_mb",
    "sim.self_ms", "crypto.ots_verify_us", "key_infra.setup_ms",
    "turquois.recv_ms", "turquois.send_ms", "bracha.timer_ms", "audit.ms",
    "trace.overhead_frac", "trace.span_overhead_frac", "unattributed_frac",
    "host.probe_us",
})


def domain(name):
    if name in HOST:
        return "host"
    return "-" if name == "ok_frac" else "sim"


def run(workload, seed, seconds, trace=0):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=False)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode != 0 or not result.get("correct") or result.get("failed"):
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit "
                         f"{done.returncode}, result {result}")
    return result["metrics"]


def spread(values):
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def fmt(x):
    return "-" if x is None else f"{x:.4f}"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    flagged = 0
    for workload in (w["name"] for w in spec["workloads"]):
        by_seed = [run(workload, s, seconds) for s in range(1, args.seeds + 1)]
        held = [run(workload, HELD_OUT_SEED, seconds) for _ in range(args.repeat)]
        print(f"\n{workload}: {args.seeds} seed(s), held-out seed "
              f"{HELD_OUT_SEED} x{args.repeat}")
        print(f"  {'metric':26s} {'unit':9s} {'domain':6s} {'median':>14s}"
              f" {'seed spread':>12s} {'run spread':>12s} {'bound':>6s}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            values = [r[name]["value"] for r in by_seed]
            repeats = [r[name]["value"] for r in held]
            seed_spread = spread(values)
            bad = seed_spread is not None and seed_spread > bound
            if domain(name) == "host":
                run_spread = spread(repeats)
                bad = bad or (run_spread is not None and run_spread > bound)
                run_text = fmt(run_spread)
            else:
                run_text = "exact" if len(set(repeats)) <= 1 else "DIFFERS"
                bad = bad or run_text == "DIFFERS"
            flagged += bad
            print(f"  {name:26s} {m['unit']:9s} {domain(name):6s} "
                  f"{statistics.median(values):14.6g} {fmt(seed_spread):>12s} "
                  f"{run_text:>12s} {bound:6.3f}{'  <-- wide' if bad else ''}")
        traced = run(workload, HELD_OUT_SEED, seconds, trace=1)
        print(f"  per layer (traced, seed {HELD_OUT_SEED}):")
        for m in spec["per_layer"]:
            v = traced[m["name"]]
            print(f"    {m['name']:34s} {v['value']:14.6g} {v['unit']:9s} "
                  f"{domain(m['name'])}")
    print(f"\n{flagged} metric(s) wider than their bound")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
