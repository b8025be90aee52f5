#!/usr/bin/env python3
"""Checks a turquois-perf/1 report against its committed baseline.

Usage: tools/check_perf.py CURRENT.json BASELINE.json

Each bound is read from the baseline (DESIGN.md section 9). The check fails
when a bounded metric is missing or declared differently, when a bound is
broken, or when the two reports' grids list different cells. Exit status:
0 pass, 1 fail, 2 unreadable input.
"""
import json
import sys
from itertools import zip_longest

SCHEMA = "turquois-perf/1"
CELL_KEYS = ("protocol", "plan", "topology", "n", "reps")


def load(path):
    with open(path, encoding="utf-8") as f:
        report = json.load(f)
    if report.get("schema") != SCHEMA:
        raise ValueError(f"{path}: schema is not {SCHEMA}")
    metrics = {m["name"]: m for m in report["metrics"]}
    if len(metrics) != len(report["metrics"]):
        raise ValueError(f"{path}: a metric is declared twice")
    return report, metrics


def grid(report):
    return [tuple(c.get(k) for k in CELL_KEYS) for c in report.get("grid", [])]


def limits(base):
    """The (rule, limit) pairs the baseline's bound puts on the value."""
    bound, higher = base["bound"], base["better"] == "higher"
    out = [(rule, bound[rule]) for rule in ("floor", "ceiling") if rule in bound]
    if "max_drop" in bound:
        drop = bound["max_drop"]
        out.append((f"baseline {base['value']:.6g}, max drop {drop:.0%}",
                    base["value"] * (1 - drop if higher else 1 + drop)))
    return out


def check(current, cur_metrics, baseline, base_metrics):
    failures = []
    if current["name"] != baseline["name"]:
        failures.append(f"report {current['name']} checked against a baseline "
                        f"of {baseline['name']}")
    cur_grid, base_grid = grid(current), grid(baseline)
    if cur_grid != base_grid:
        first = next(p for p in zip_longest(cur_grid, base_grid) if p[0] != p[1])
        failures.append(f"grid differs from the baseline's ({len(cur_grid)} "
                        f"vs {len(base_grid)} cells); first difference "
                        f"{first[0]} vs {first[1]}")
    for name, cur in cur_metrics.items():
        if "bound" in cur and "bound" not in base_metrics.get(name, {}):
            failures.append(f"{name}: declares a bound the baseline does not")
    for name, base in base_metrics.items():
        if "bound" not in base:
            continue
        cur = cur_metrics.get(name)
        if cur is None:
            failures.append(f"{name}: bounded in the baseline but missing")
            continue
        for key in ("unit", "domain", "better", "bound"):
            if cur.get(key) != base[key]:
                failures.append(f"{name}: declares {key} {cur.get(key)} but "
                                f"the baseline {base[key]}")
        higher = base["better"] == "higher"
        for rule, limit in limits(base):
            value = cur["value"]
            ok = value is not None and (value >= limit if higher
                                        else value <= limit)
            print(f"check_perf: {name} = {value} {base['unit']} "
                  f"[{base['domain']}], {rule}: needs "
                  f"{'>=' if higher else '<='} {limit:.6g}: "
                  f"{'ok' if ok else 'FAIL'}")
            if not ok:
                failures.append(f"{name}: {rule} broken")
    return failures


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        failures = check(*load(argv[1]), *load(argv[2]))
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"check_perf: cannot read reports: {e!r}", file=sys.stderr)
        return 2
    for failure in failures:
        print(f"check_perf: FAIL — {failure}", file=sys.stderr)
    if failures:
        return 1
    print("check_perf: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
