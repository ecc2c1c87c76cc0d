#!/usr/bin/env python3
"""The benchmark's own tests: short runs of every workload pass their path
gates and verify every output, the same seed generates byte-identical
inputs, a traced run reports every per-layer metric, and the runner refuses
to run without the program's sources.

Run from the root of a source checkout:

    python3 perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

WORKLOADS = ["hit_replay", "miss_sweep", "lp_scale", "fleet_exec"]
BUILD_DIR = os.path.join(
    run.ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(BUILD_DIR)
        cls.spec = run.load_spec()
        cls.work = tempfile.mkdtemp(dir=BUILD_DIR, prefix="test-")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def aquabench(self, *args):
        out = subprocess.run([self.binary, *args], capture_output=True,
                             text=True, timeout=170)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        return out.stdout.strip().splitlines()

    def short_run(self, workload, trace):
        lines = self.aquabench(
            "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--slo-ms", "1000",
            "--work-dir", os.path.join(self.work, workload))
        return json.loads(lines[-2])["provenance"], json.loads(lines[-1])

    def test_same_seed_same_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                digest = lambda seed: self.aquabench(
                    "--workload", w, "--seed", str(seed), "--seconds", "1",
                    "--inputs-digest")
                self.assertEqual(digest(5), digest(5))
                self.assertNotEqual(digest(5), digest(6))

    def test_short_runs_pass_gates_and_verification(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                prov, result = self.short_run(w, 0)
                self.assertEqual(prov["path_failed"], 0, prov)
                self.assertEqual(result["failed"], 0, prov)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["metrics"]["ok_frac"]["value"], 1.0)
                # peak_rss_mb must cover the timed phase, not set-up.
                self.assertNotEqual(prov["peak_rss_scope"], "process")
                # Timings are scaled by calibration samples from both the
                # set-up and the timed phase.
                host = prov["host"]
                self.assertGreater(host["samples"], 6, host)
                self.assertGreater(host["factor_median"], 0, host)
                self.assertGreater(host["setup_factor_median"], 0, host)
                run.check_result(self.spec, json.dumps(result), 0)

    def test_traced_run_reports_every_layer_metric(self):
        prov, result = self.short_run("miss_sweep", 1)
        self.assertEqual(result["failed"], 0, prov)
        run.check_result(self.spec, json.dumps(result), 1)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        for layer in ("lang.parse_lower_us", "ir.canonicalize_us",
                      "core.manage_us", "codegen.generate_us",
                      "store.put_us", "service.encode_us"):
            self.assertGreater(m[layer], 0, layer)
        self.assertGreaterEqual(m["unattributed_frac"], 0)
        self.assertLess(m["unattributed_frac"], 0.5)
        self.assertGreater(m["service.warm_miss_frac"], 0)
        self.assertEqual(m["service.singleflight_joins"], 0)

    def test_runner_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "lp_scale",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=d, capture_output=True, text=True, timeout=170,
                env={k: v for k, v in os.environ.items()
                     if k != "CARGO_TARGET_DIR"})
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
