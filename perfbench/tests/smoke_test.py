#!/usr/bin/env python3
"""Smoke-size checks of the layer-ledger benchmark.

    python3 perfbench/tests/smoke_test.py      (from the repository root)

Runs every workload at smoke size in both modes and checks that each metric
the benchmark documents is printed exactly once with its unit, that the
result line holds exactly the metrics BENCHMARK.json declares, that
parallel_ios_per_op repeats exactly for one seed, that the TimingBackend
decorator leaves every array counter unchanged, and that the benchmark
refuses to run without the library sources.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

WORKLOADS = ("basic-lookup-mem", "basic-churn-file", "dynamic-zipf-cached")
UPDATES = ("basic-churn-file", "dynamic-zipf-cached")

END_TO_END = {
    "throughput_ops_s": "ops/s", "lookup_p50_us": "us", "lookup_p99_us": "us",
    "lookup_ops": "count", "setup_s": "s", "parallel_ios_per_op": "ios/op",
    "failed_op_frac": "fraction", "peak_rss_mb": "MB",
    "stored_bytes_per_user_byte": "ratio",
    "throughput_raw_ops_s": "ops/s", "setup_raw_s": "s",
    "host_probe_op_us": "us",
}
UPDATE_METRICS = {
    f"{kind}_{what}": unit
    for kind in ("insert", "erase")
    for what, unit in (("p50_us", "us"), ("p99_us", "us"), ("ops", "count"))
}
PER_LAYER = {
    "expander.probe_addrs_ns": "ns", "core.inspect_ns": "ns",
    "core.plan_insert_ns": "ns", "core.plan_erase_ns": "ns",
    "core.dynamic.lookup_self_ns": "ns", "core.dynamic.insert_self_ns": "ns",
    "core.dynamic.erase_self_ns": "ns", "pdm.array.read_self_ns": "ns",
    "pdm.array.write_self_ns": "ns", "pdm.array.rounds_per_op": "rounds/op",
    "pdm.array.blocks_per_read": "blocks/round",
    "pdm.exec.queue_wait_ns_per_batch": "ns",
    "pdm.exec.join_wait_ns_per_batch": "ns",
    "pdm.exec.jobs_per_batch": "jobs/batch",
    "pdm.backend.load_ns_per_block": "ns",
    "pdm.backend.store_ns_per_block": "ns",
    "pdm.backend.calls_per_op": "calls/op",
    "pdm.backend.busy_frac": "fraction", "pdm.backend.errors": "count",
    "pdm.cache.hit_rate": "fraction",
    "pdm.cache.evictions_per_op": "blocks/op",
    "pdm.cache.flushed_blocks_per_op": "blocks/op",
    "obs.overhead_ns_per_op": "ns", "obs.overhead_ratio": "ratio",
    "trace.overhead_frac": "fraction", "trace.layer_sum_frac": "fraction",
}
LINE = re.compile(r"^# (\S+) = (\S+) (\S+)$")


def run(workload, trace, seed=7):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited "
                             f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m:
            printed.setdefault(m.group(1), []).append(m.group(3))
    return printed, json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open("BENCHMARK.json") as f:
            cls.spec = json.load(f)

    def check_mode(self, workload, trace, expected):
        printed, result = run(workload, trace)
        for name, unit in expected.items():
            self.assertEqual(printed.get(name), [unit], f"{workload}: {name}")
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in declared))
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        return result

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            want = dict(END_TO_END, **(UPDATE_METRICS if w in UPDATES else {}))
            with self.subTest(workload=w):
                self.check_mode(w, 0, want)

    def test_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result = self.check_mode(w, 1, PER_LAYER)
                if w != "dynamic-zipf-cached":
                    frac = result["metrics"]["trace.layer_sum_frac"]["value"]
                    self.assertGreater(frac, 0.8)
                    self.assertLessEqual(frac, 1.0)

    def test_parallel_ios_repeat_exactly(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = run(w, 0, seed=11)[1]["metrics"]["parallel_ios_per_op"]
                b = run(w, 0, seed=11)[1]["metrics"]["parallel_ios_per_op"]
                self.assertEqual(a["value"], b["value"])
                self.assertGreater(a["value"], 0)

    def test_timing_backend_is_invisible(self):
        run(WORKLOADS[0], 0)  # builds the ledger binary
        proc = subprocess.run(
            [os.path.join(".bench_build", "perfbench", "ledger"),
             "--self-check", "--workdir", os.path.join(".bench_build", "tmp")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(proc.stderr.count(": ok"), len(WORKLOADS))

    def test_refuses_without_sources(self):
        bare = os.path.join(".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
