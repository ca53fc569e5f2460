#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 -m unittest discover -s perfbench/tests -v

Builds the benchmark like run.py does, then checks that the input generator
is deterministic in --seed, that the metric names and units every mode
prints match BENCHMARK.json, that a one-second run of every workload exits
0 untraced and traced and leaves no scratch directory behind, and that the
benchmark fails cleanly outside a full checkout. The smoke runs use the
full-size inputs, so the suite takes about a minute.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402  (perfbench/run.py)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer metrics each workload exercises, so the traced run must measure
# them above zero: a renamed program counter or histogram, or a broken
# traced part, would otherwise print 0 and go unnoticed.
LAYERS_EXERCISED = {
    "lookup-lipp": ["index.cpu_us_per_op", "index.height", "index.nodes",
                    "index.inner_visits_per_op", "index.leaf_visits_per_op",
                    "storage.reads_per_op.leaf", "storage.read_blocks_per_op",
                    "storage.evictions_per_op", "storage.device_io_us_per_op",
                    "engine.shard_skew"],
    "engine-ycsb-c": ["engine.execute_us.p50", "engine.execute_us.p99", "engine.shard_skew",
                      "engine.scaling_x", "index.cpu_us_per_op", "index.height",
                      "index.leaf_visits_per_op", "storage.hit_ratio.leaf"],
    "ingest-pgm": ["engine.execute_us.p50", "engine.execute_us.p99", "engine.scaling_x",
                   "index.cpu_us_per_op", "index.height", "index.smos_per_kop",
                   "storage.writes_per_op.leaf", "storage.write_blocks_per_op",
                   "storage.device_io_us_per_op"],
    "server-ycsb-b": ["server.queue_wait_us.p50", "server.execute_us.p50",
                      "server.ctx_switches_per_op", "protocol.encode_ns_per_op",
                      "protocol.decode_ns_per_op", "recovery.wal_forces_per_kop",
                      "recovery.wal_blocks_per_op", "storage.writes_per_op.wal",
                      "index.cpu_us_per_op", "index.height"],
}


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class GeneratorTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def inputs(self, workload, seed):
        out = subprocess.run([str(self.binary), "--workload", workload, "--seed", str(seed),
                              "--seconds", "10", "--inputs-only"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                             check=True).stdout
        return last_json(out)

    def test_same_seed_same_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(self.inputs(w, 7), self.inputs(w, 7))

    def test_other_seed_other_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertNotEqual(self.inputs(w, 7)["inputs_digest"],
                                    self.inputs(w, 8)["inputs_digest"])


class SmokeTest(unittest.TestCase):
    """One-second runs through run.py, the command BENCHMARK.json names."""

    def run_bench(self, workload, trace):
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                               "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return last_json(proc.stdout)

    def check(self, result, defs):
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), [d["name"] for d in defs])
        for d in defs:
            self.assertEqual(result["metrics"][d["name"]]["unit"], d["unit"], d["name"])

    def test_untraced_prints_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result = self.run_bench(w, 0)
                self.check(result, SPEC["end_to_end"])
                for d in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][d["name"]]["value"], 0, d["name"])

    def test_traced_prints_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result = self.run_bench(w, 1)
                self.check(result, SPEC["per_layer"])
                for name in LAYERS_EXERCISED[w]:
                    self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_runs_leave_no_scratch_directory(self):
        self.run_bench("engine-ycsb-c", 0)
        runs = run.BUILD_ROOT / "runs"
        self.assertEqual(list(runs.iterdir()) if runs.exists() else [], [])


class IncompleteCheckoutTest(unittest.TestCase):
    def test_fails_without_library_sources(self):
        run.BUILD_ROOT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.BUILD_ROOT) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
