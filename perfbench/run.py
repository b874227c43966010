#!/usr/bin/env python3
"""Layer-ledger benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (and the library sources it
compiles) into .bench_build/perfbench, runs one workload, prints every metric
the run measured as '# name = value unit' lines, and ends with one JSON line
holding the metrics BENCHMARK.json declares for the mode: end_to_end with
--trace 0, per_layer with --trace 1. Exits non-zero, without a result line,
when the build fails or a declared metric is missing; exits non-zero after
the result line when an operation disagreed with the oracle.
"""
import argparse
import json
import os
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "tmp")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (a no-op when cached; an error if the cache belongs to
    another source tree) and let the build tool decide what is stale."""
    here = os.path.dirname(os.path.abspath(__file__))
    steps = [["cmake", "-S", here, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "ledger", "-j", "4"]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return os.path.join(BUILD_DIR, "ledger")


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny dictionaries, for the benchmark's own tests")
    args = ap.parse_args()

    try:
        wanted = declared_metrics(args.trace)
    except (OSError, ValueError, KeyError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 2
    binary = build()
    if binary is None:
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", WORK_DIR]
    if args.smoke:
        cmd.append("--smoke")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"ledger did not finish within {RUN_TIMEOUT_S} s")
        return 2
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"ledger exited {proc.returncode} without a result")
        return 2

    metrics = result["metrics"]
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    missing = [n for n in wanted if n not in metrics]
    if missing:
        log(f"metrics missing from the run: {', '.join(missing)}")
        return 2
    result["metrics"] = {n: metrics[n] for n in wanted}
    log(f"{args.workload} ran {time.monotonic() - start:.1f} s")
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
