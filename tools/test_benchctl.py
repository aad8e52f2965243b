#!/usr/bin/env python3
"""Unit tests for tools/benchctl: stats helpers, the per-metric gate table,
table-driven compare verdicts, and end-to-end exit codes via main().

Run directly (python3 tools/test_benchctl.py) or through ctest
(benchctl_unit). No build tree required — everything here is pure-Python
except the baseline sanity test, which only reads bench/baselines/.
"""

import contextlib
import copy
import importlib.machinery
import importlib.util
import io
import json
import os
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(TOOLS_DIR)


def _load_benchctl():
    loader = importlib.machinery.SourceFileLoader(
        "benchctl", os.path.join(TOOLS_DIR, "benchctl")
    )
    spec = importlib.util.spec_from_loader("benchctl", loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


benchctl = _load_benchctl()

ENV = {
    "cpu_model": "TestCPU v1",
    "cores": 4,
    "git_sha": "abc123",
    "build_type": "Release",
}


def run_doc(metrics):
    """A minimal schema-valid run document around {name: (median, mad)}."""
    return {
        "schema": benchctl.SCHEMA,
        "tool": "benchctl",
        "repeats": 3,
        "environment": dict(ENV),
        "metrics": {
            name: {
                "median": m,
                "mad": d,
                "unit": benchctl.rule_for(name)["unit"],
                "direction": benchctl.rule_for(name)["direction"],
                "samples": [m - d, m, m + d],
            }
            for name, (m, d) in metrics.items()
        },
    }


class StatsTest(unittest.TestCase):
    def test_median_odd(self):
        self.assertEqual(benchctl.median([3.0, 1.0, 2.0]), 2.0)

    def test_median_even(self):
        self.assertEqual(benchctl.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_median_single_and_empty(self):
        self.assertEqual(benchctl.median([7.0]), 7.0)
        self.assertEqual(benchctl.median([]), 0.0)

    def test_mad_symmetric(self):
        # median 3, |dev| = [2, 1, 0, 1, 2] -> MAD 1
        self.assertEqual(benchctl.mad([1.0, 2.0, 3.0, 4.0, 5.0]), 1.0)

    def test_mad_outlier_robust(self):
        # One wild outlier must not blow up the dispersion estimate — this is
        # why the gate uses MAD and not stddev.
        self.assertEqual(benchctl.mad([10.0, 10.0, 10.0, 10.0, 1000.0]), 0.0)

    def test_mad_empty(self):
        self.assertEqual(benchctl.mad([]), 0.0)


class RuleTest(unittest.TestCase):
    def test_latency_metrics_are_informational(self):
        rule = benchctl.rule_for("dataplane.poptrie.w1.lat_p99_ns")
        self.assertIsNone(rule["band"])

    def test_dataplane_mlps_wide_band_higher_better(self):
        rule = benchctl.rule_for("dataplane.poptrie.w4.churn.mlps")
        self.assertEqual(rule["direction"], "higher")
        self.assertGreater(rule["band"], benchctl.DEFAULT_BAND)

    def test_dataplane_load_lower_better(self):
        rule = benchctl.rule_for("dataplane.load_ms")
        self.assertEqual(rule["direction"], "lower")
        self.assertEqual(rule["band"], 0.25)
        rule = benchctl.rule_for("dataplane.fib_mib")
        self.assertEqual(rule["direction"], "lower")
        self.assertEqual(rule["band"], 0.02)
        rule = benchctl.rule_for("dataplane.rib_mib")
        self.assertEqual(rule["direction"], "lower")
        self.assertEqual(rule["band"], 0.02)

    def test_snapshot_image_bytes_gate_tightly(self):
        rule = benchctl.rule_for("snap.image_mib")
        self.assertEqual(rule["direction"], "lower")
        self.assertEqual(rule["unit"], "MiB")
        self.assertEqual(rule["band"], 0.02)

    def test_cycles_lower_better(self):
        rule = benchctl.rule_for("table4.realtier1a.poptrie18.mean_cycles")
        self.assertEqual(rule["direction"], "lower")

    def test_unknown_metric_gets_default_band(self):
        self.assertEqual(benchctl.rule_for("mystery.metric")["band"],
                         benchctl.DEFAULT_BAND)


class ParseDataplaneTest(unittest.TestCase):
    def test_load_record_and_cells(self):
        records = [
            {"phase": "load", "routes": 100000, "load_ms": 61.5, "fib_bytes": 3 << 20,
             "rib_bytes": 9 << 19},
            {"engine": "poptrie", "workers": 1, "churn": False, "mlps": 4.2,
             "lat_p50_ns": 2800.0, "lat_p99_ns": 8800.0},
            {"engine": "sail", "workers": 1, "status": "structural_limit"},
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "dataplane.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(records, f)
            out = benchctl.parse_dataplane("", path)
        self.assertEqual(out["dataplane.load_ms"], 61.5)
        self.assertEqual(out["dataplane.fib_mib"], 3.0)
        self.assertEqual(out["dataplane.rib_mib"], 4.5)
        self.assertEqual(out["dataplane.poptrie.w1.mlps"], 4.2)
        self.assertEqual(len(out), 6)


class ParseSnapshotTest(unittest.TestCase):
    def test_summary_and_phases(self):
        records = [
            {"phase": "live", "mlps": 50.0},
            {"phase": "snapshot_map", "mlps": 48.0, "load_ms": 2.5, "first_pass_ms": 9.0},
            {"phase": "snapshot_copy", "mlps": 49.0, "load_ms": 4.0, "first_pass_ms": 7.5},
            {"phase": "summary", "routes": 100000, "image_bytes": 5 << 19,
             "save_ms": 12.0, "snapshot_vs_live": 0.96},
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "snapshot.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(records, f)
            out = benchctl.parse_snapshot("", path)
        self.assertEqual(out["snap.image_mib"], 2.5)
        self.assertEqual(out["snap.save_ms"], 12.0)
        self.assertEqual(out["snap.map.load_ms"], 2.5)
        self.assertEqual(out["snap.copy.mlps"], 49.0)
        self.assertEqual(len(out), 10)


class CompareMetricTest(unittest.TestCase):
    """Table-driven verdicts for one metric at a time."""

    CASES = [
        # (name, base(median, mad), cand(median, mad), expected verdict)
        # lower-better ns metric, 10% band: +5% is within noise.
        ("micro.xorshift_ns", (100.0, 1.0), (105.0, 1.0), "ok"),
        # +20% on a 10% band: regression.
        ("micro.xorshift_ns", (100.0, 1.0), (120.0, 1.0), "regression"),
        # -20%: improvement.
        ("micro.xorshift_ns", (100.0, 1.0), (80.0, 1.0), "improvement"),
        # higher-better Mlps, 12% band: dropping 50 -> 40 is a regression.
        ("pipe.d18.random.pipelined.mlps", (50.0, 0.5), (40.0, 0.5), "regression"),
        # Mlps going UP is an improvement, not a regression (direction).
        ("pipe.d18.random.pipelined.mlps", (50.0, 0.5), (60.0, 0.5), "improvement"),
        # Noisy baseline: MAD 10/100 -> 3xMAD = 30% band swallows a +20% delta.
        ("micro.xorshift_ns", (100.0, 10.0), (120.0, 1.0), "ok"),
        # Latency metrics report but never gate.
        ("dataplane.poptrie.w1.lat_p99_ns", (5000.0, 10.0), (9000.0, 10.0), "info"),
    ]

    def test_verdict_table(self):
        for name, (bm, bd), (cm, cd), expected in self.CASES:
            with self.subTest(name=name, base=bm, cand=cm):
                verdict, _, _ = benchctl.compare_metric(
                    name,
                    {"median": bm, "mad": bd},
                    {"median": cm, "mad": cd},
                )
                self.assertEqual(verdict, expected)

    def test_missing_candidate_metric(self):
        verdict, _, _ = benchctl.compare_metric(
            "micro.xorshift_ns", {"median": 100.0, "mad": 1.0}, None
        )
        self.assertEqual(verdict, "missing")

    def test_missing_informational_metric_is_info(self):
        verdict, _, _ = benchctl.compare_metric(
            "dataplane.poptrie.w1.lat_p50_ns", {"median": 100.0, "mad": 1.0}, None
        )
        self.assertEqual(verdict, "info")

    def test_inject_regression_flips_clean_compare(self):
        base = {"median": 100.0, "mad": 1.0}
        verdict, _, _ = benchctl.compare_metric(
            "micro.xorshift_ns", base, dict(base), inject=2.0
        )
        self.assertEqual(verdict, "regression")
        # And on a higher-better metric the injection divides instead.
        verdict, _, _ = benchctl.compare_metric(
            "pipe.d18.random.pipelined.mlps", {"median": 50.0, "mad": 0.1},
            {"median": 50.0, "mad": 0.1}, inject=2.0
        )
        self.assertEqual(verdict, "regression")


class CompareRunsTest(unittest.TestCase):
    BASE = {
        "micro.xorshift_ns": (100.0, 1.0),
        "pipe.d18.random.pipelined.mlps": (50.0, 0.5),
    }

    def _compare(self, candidate, **kwargs):
        out = io.StringIO()
        code = benchctl.compare_runs(
            run_doc(self.BASE), candidate, out=out, **kwargs
        )
        return code, out.getvalue()

    def test_identical_runs_pass(self):
        code, text = self._compare(run_doc(self.BASE))
        self.assertEqual(code, 0)
        self.assertIn("PASS", text)

    def test_regression_fails_and_names_the_metric(self):
        worse = dict(self.BASE, **{"micro.xorshift_ns": (150.0, 1.0)})
        code, text = self._compare(run_doc(worse))
        self.assertEqual(code, 1)
        self.assertIn("FAIL", text)
        self.assertIn("micro.xorshift_ns", text)

    def test_missing_gated_metric_fails(self):
        partial = run_doc({"micro.xorshift_ns": (100.0, 1.0)})
        code, text = self._compare(partial)
        self.assertEqual(code, 1)
        self.assertIn("missing gated metrics", text)
        self.assertIn("pipe.d18.random.pipelined.mlps", text)

    def test_env_mismatch_demotes_to_informational(self):
        worse = run_doc(dict(self.BASE, **{"micro.xorshift_ns": (150.0, 1.0)}))
        worse["environment"]["cpu_model"] = "OtherCPU v9"
        code, text = self._compare(worse)
        self.assertEqual(code, 0)
        self.assertIn("WARNING: environment fingerprints differ", text)

    def test_env_mismatch_with_strict_env_still_gates(self):
        worse = run_doc(dict(self.BASE, **{"micro.xorshift_ns": (150.0, 1.0)}))
        worse["environment"]["cpu_model"] = "OtherCPU v9"
        code, _ = self._compare(worse, strict_env=True)
        self.assertEqual(code, 1)

    def test_inject_regression_fails_a_self_compare(self):
        code, text = self._compare(run_doc(self.BASE), inject=2.0)
        self.assertEqual(code, 1)
        self.assertIn("SELF-TEST", text)

    def test_new_candidate_metrics_are_reported_not_gated(self):
        extra = run_doc(dict(self.BASE, **{"table4.x.y.mean_cycles": (10.0, 0.1)}))
        code, text = self._compare(extra)
        self.assertEqual(code, 0)
        self.assertIn("new metrics", text)


class MainExitCodeTest(unittest.TestCase):
    """End-to-end through main(): the exit codes CI scripts rely on."""

    def _write(self, doc):
        f = tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False, dir=self.tmp.name
        )
        json.dump(doc, f)
        f.close()
        return f.name

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def _main(self, argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            return benchctl.main(argv)

    def test_clean_compare_exits_zero(self):
        path = self._write(run_doc({"micro.xorshift_ns": (100.0, 1.0)}))
        self.assertEqual(self._main(["compare", path, path]), 0)

    def test_injected_regression_exits_one(self):
        path = self._write(run_doc({"micro.xorshift_ns": (100.0, 1.0)}))
        self.assertEqual(
            self._main(["compare", path, path, "--inject-regression", "2.0"]), 1
        )

    def test_schema_mismatch_exits_two(self):
        good = self._write(run_doc({"micro.xorshift_ns": (100.0, 1.0)}))
        doc = run_doc({"micro.xorshift_ns": (100.0, 1.0)})
        doc["schema"] = "poptrie-bench/999"
        bad = self._write(doc)
        self.assertEqual(self._main(["compare", good, bad]), 2)

    def test_unreadable_file_exits_two(self):
        good = self._write(run_doc({}))
        missing = os.path.join(self.tmp.name, "nope.json")
        self.assertEqual(self._main(["compare", good, missing]), 2)

    def test_bad_inject_factor_exits_two(self):
        path = self._write(run_doc({"micro.xorshift_ns": (100.0, 1.0)}))
        self.assertEqual(
            self._main(["compare", path, path, "--inject-regression", "-1"]), 2
        )

    def test_list_exits_zero(self):
        self.assertEqual(self._main(["list"]), 0)


class CommittedBaselineTest(unittest.TestCase):
    """The baseline CI gates against must stay schema-valid and self-consistent."""

    BASELINE = os.path.join(REPO_DIR, "bench", "baselines", "ci-ubuntu.json")

    def test_baseline_loads_and_self_compares_clean(self):
        if not os.path.exists(self.BASELINE):
            self.skipTest("no committed baseline yet")
        doc = benchctl.load_run(self.BASELINE)
        self.assertTrue(doc["metrics"], "baseline has no metrics")
        for name, rec in doc["metrics"].items():
            self.assertGreaterEqual(rec["mad"], 0.0, name)
            self.assertEqual(len(rec["samples"]), doc["repeats"], name)
        out = io.StringIO()
        self.assertEqual(
            benchctl.compare_runs(doc, copy.deepcopy(doc), out=out), 0
        )
        self.assertEqual(
            benchctl.compare_runs(doc, copy.deepcopy(doc), inject=2.0, out=out), 1
        )

    def test_baseline_covers_every_gated_family(self):
        if not os.path.exists(self.BASELINE):
            self.skipTest("no committed baseline yet")
        doc = benchctl.load_run(self.BASELINE)
        for family in (
            "micro.",
            "table4.",
            "pipe.",
            "dataplane.",
            "update.",
            "churnloc.",
        ):
            self.assertTrue(
                any(name.startswith(family) for name in doc["metrics"]),
                f"baseline is missing the {family}* metric family",
            )


if __name__ == "__main__":
    unittest.main(verbosity=2)
