#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the program and the runner from source (perfbench/CMakeLists.txt,
into $CARGO_TARGET_DIR or .bench_build at the checkout root), runs one
measurement with perfbench_runner, checks that the result names exactly the
metrics BENCHMARK.json declares for this mode (end_to_end with --trace 0,
per_layer with --trace 1) with the declared units, and prints the runner's
JSON result as the last stdout line. Exits non-zero, without a result, when
the sources are missing, the build fails, or the result does not match the
declaration; exits non-zero after the result when an output check failed.
"""

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUNNER_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, **kwargs):
    """subprocess.run in a process group of its own: on timeout the whole
    group (a build's compilers too) is killed and reaped."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            fail(f"{cmd[0]} exceeded {timeout} s")
        return proc.returncode, out


def build_dir():
    path = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources under {ROOT / 'src'}")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_runner",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        code, _ = run_group(step, BUILD_TIMEOUT_S, stdout=sys.stderr,
                            stderr=sys.stderr)
        if code != 0:
            fail(f"build step failed: {' '.join(step)}")
    return out / "perfbench_runner"


def declared(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    return spec, {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec, units = declared(args.trace)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    runner = build()
    code, out = run_group(
        [str(runner), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace)],
        RUNNER_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.splitlines()
    if not lines:
        fail(f"runner printed no result (exit {code})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"runner's last line is not JSON (exit {code})")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        fail(f"result metrics {sorted(got.items())} differ from "
             f"BENCHMARK.json {sorted(units.items())}")
    for line in lines:
        print(line)
    sys.exit(code)


if __name__ == "__main__":
    main()
