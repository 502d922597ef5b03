#!/usr/bin/env python3
"""Self-test of the benchmark: python3 perfbench/test_perfbench.py

Checks that BENCHMARK.json keeps to the benchmark's file format, and runs
every workload in smoke mode (tiny budgets, about a minute in all) with and
without tracing to check that each metric BENCHMARK.json names, and each
workload-scoped metric the README names, is reported with its unit and that
no operation failed. Builds the benchmark first if needed.
"""

import math
import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Metrics reported on the detail line beyond BENCHMARK.json's lists, with
# the workloads they apply to (README.md, "Workload-scoped metrics").
SCOPED_END_TO_END = {
    "rekey_case57": {"tick_s": "s", "campaign_s": "s", "mtd_cost_pct": "%",
                     "eta_min": "ratio", "ops_failed_ratio": "ratio"},
    "keying_case118": {"mtd_cost_pct": "%", "eta_min": "ratio",
                       "ops_failed_ratio": "ratio"},
    "serve_mix_case14": {"tick_s": "s", "rps": "1/s", "read_p50_us": "us",
                         "read_p99_us": "us", "write_p50_us": "us",
                         "write_p99_us": "us", "mtd_cost_pct": "%",
                         "eta_min": "ratio", "ops_failed_ratio": "ratio"},
}
SCOPED_PER_LAYER = {
    "rekey_case57": {"mtd.advance_hour_s": "s", "serve.tick_s": "s",
                     "estimation.mc_detect_s": "s"},
    "keying_case118": {},
    "serve_mix_case14": {"mtd.advance_hour_s": "s", "serve.tick_s": "s",
                         "estimation.mc_detect_s": "s",
                         "serve.gen_late_p99_us": "us"},
}


# Per-layer metrics the untraced run reports on its detail line too.
UNTRACED_PER_LAYER = {"serve_mix_case14": {"serve.gen_late_p99_us": "us"}}


class SpecTest(unittest.TestCase):
    def test_benchmark_json_format(self):
        spec = run.load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertIn(spec["run_seconds"], range(1, 61))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        names = [m["name"] for g in ("workloads", "end_to_end", "per_layer")
                 for m in spec[g]]
        self.assertEqual(len(names), len(set(names)))
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = run.load_spec()
        run.build()

    def check(self, workload, trace):
        detail = run.run_bench(workload, 1, 1, trace, smoke=True)
        out = run.result(detail, self.spec, trace)
        self.assertTrue(out["correct"], out)
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        group = "per_layer" if trace else "end_to_end"
        self.assertEqual(set(out["metrics"]),
                         {m["name"] for m in self.spec[group]})
        scoped = (SCOPED_PER_LAYER if trace else SCOPED_END_TO_END)[workload]
        for name, unit in scoped.items():
            self.assertIn(name, detail[group], name)
            self.assertEqual(detail[group][name]["unit"], unit, name)
        if not trace:
            for name, unit in UNTRACED_PER_LAYER.get(workload, {}).items():
                self.assertEqual(detail["per_layer"][name]["unit"], unit, name)
        for name, m in detail[group].items():
            self.assertTrue(math.isfinite(m["value"]), name)
        self.assertLessEqual(detail["pool_threads"] +
                             detail["client_threads"] - 1,
                             os.cpu_count())

    def test_rekey_case57(self):
        self.check("rekey_case57", 0)
        self.check("rekey_case57", 1)

    def test_keying_case118(self):
        self.check("keying_case118", 0)
        self.check("keying_case118", 1)

    def test_serve_mix_case14(self):
        self.check("serve_mix_case14", 0)
        self.check("serve_mix_case14", 1)


if __name__ == "__main__":
    unittest.main()
