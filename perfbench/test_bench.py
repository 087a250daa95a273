#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size.

    python3 perfbench/test_bench.py

Runs every workload with `--size tiny` (the CLI at `--quick`, isp-million
at 10k raw flows) in both trace modes and asserts that every metric
BENCHMARK.json names is printed with its unit, that every output check
ran and passed, and that the known stage and flow counts come out.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

# Output checks each workload must run (as reported in the context line).
CHECKS = {
    "repro-full": {"exit_code", "figures_match_reference", "passes_byte_identical"},
    "repro-warm": {"exit_code", "figures_match_reference",
                   "figures_byte_identical_to_reference", "all_stages_hit", "store_loads"},
    "isp-million": {"decode_errors", "recovered_frac", "coalesce_ratio", "grouped_profit",
                    "curves_identical"},
}

STORE = ("store.objects", "store.bytes", "store.load_s", "store.save_s")


def run(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *argv],
                          cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=600)


class TinyRuns(unittest.TestCase):
    def run_workload(self, workload, trace):
        proc = run("--workload", workload, "--seed", "42", "--seconds", "1",
                   "--trace", str(trace), "--size", "tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        context = json.loads(lines[-2])["context"]
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        spec = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in spec])
        for m in spec:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        expected = set(CHECKS[workload])
        if not trace:
            expected -= {"store_loads"}
        self.assertLessEqual(expected, set(context["checks"]))
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_end_to_end_metrics(self):
        for workload in CHECKS:
            with self.subTest(workload=workload):
                m = self.run_workload(workload, 0)
                for name in ("wall_s", "cpu_s", "work_per_s", "peak_rss_mb", "setup_s"):
                    self.assertGreater(m[name], 0, name)
                self.assertEqual(m["success_frac"], 1.0)

    def test_per_layer_metrics(self):
        full = self.run_workload("repro-full", 1)
        self.assertEqual(full["stage.dataset.generate_runs"], 28)
        self.assertEqual(full["stage.dataset.generate_distinct"], 3)
        self.assertGreater(full["stage.dataset.generate_s"], 0)
        warm = self.run_workload("repro-warm", 1)
        self.assertEqual(warm["stage.hit_frac"], 1.0)
        # One stored object per distinct stage fingerprint.
        self.assertEqual(warm["store.objects"],
                         round(warm["stage.distinct_frac"] * warm["stage.runs"]))
        isp = self.run_workload("isp-million", 1)
        self.assertEqual(isp["netflow.records"], 2 * 10_000)
        self.assertEqual(isp["netflow.recovered_frac"], 1.0)
        self.assertGreater(isp["core.eval_s"], isp["core.search_s"])
        self.assertEqual(isp["core.eval_calls"], 5 * 10)
        # Layer probes report only on the workload whose layer they time.
        self.assertGreater(full["datasets.generate_s"], 0)
        self.assertGreater(warm["store.load_s"], 0)
        for m, names in ((full, STORE), (warm, ("datasets.generate_s",)),
                         (isp, STORE + ("datasets.generate_s",))):
            for name in names:
                self.assertEqual(m[name], 0, name)

    def test_refuses_outside_a_checkout(self):
        bare = os.path.join(ROOT, ".bench_build", "perfbench-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("target", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = run("--workload", "repro-full", "--seconds", "1", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
