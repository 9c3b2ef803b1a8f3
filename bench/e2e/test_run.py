"""Tests for run.py: the statistics, the regression verdicts and the
correctness checks, plus one smoke pass of the whole pipeline.

  python3 bench/e2e/test_run.py
"""

import copy
import io
import json
import shutil
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def dist(values):
    return run.distribution(values, "ns")


class StatisticsTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
        self.assertEqual(list(run.quartiles(values)),
                         statistics.quantiles(values, n=4))
        self.assertEqual(run.quartiles(values)[1], statistics.median(values))

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(run.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_spread_is_quartile_distance_over_median(self):
        d = dist([90.0, 100.0, 110.0, 100.0, 100.0])
        self.assertEqual((d["q1"], d["median"], d["q3"]), (95.0, 100.0, 105.0))
        self.assertAlmostEqual(run.spread(d), 0.1)


class VerdictTest(unittest.TestCase):
    A = dist([100.0, 100.5, 99.5, 100.2, 99.8])

    def test_within_bound_is_ok(self):
        b = dist([105.0, 105.5, 104.5, 105.2, 104.8])
        self.assertEqual(run.verdict(self.A, b, "lower", 0.1), "ok")

    def test_beyond_bound_is_worse(self):
        b = dist([115.0, 115.5, 114.5, 115.2, 114.8])
        self.assertEqual(run.verdict(self.A, b, "lower", 0.1), "worse")

    def test_direction_follows_better(self):
        b = dist([85.0, 85.5, 84.5, 85.2, 84.8])
        self.assertEqual(run.verdict(self.A, b, "lower", 0.1), "ok")
        self.assertEqual(run.verdict(self.A, b, "higher", 0.1), "worse")

    def test_spread_beyond_bound_is_unresolved(self):
        b = dist([80.0, 120.0, 100.0, 70.0, 130.0])
        self.assertEqual(run.verdict(self.A, b, "lower", 0.1), "unresolved")

    def test_wide_spread_but_every_run_better_is_ok(self):
        b = dist([50.0, 70.0, 60.0, 40.0, 80.0])
        self.assertEqual(run.verdict(self.A, b, "lower", 0.1), "ok")


class PipelineTest(unittest.TestCase):
    """Runs `run.py --smoke` once, then feeds doctored copies of its raw
    reports back through the checks."""

    @classmethod
    def setUpClass(cls):
        cls.out = run.OUT_DIR / "test_smoke_results.json"
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--smoke",
             "--out", str(cls.out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise AssertionError(proc.stdout + proc.stderr)
        with open(cls.out) as f:
            cls.results = json.load(f)
        cls.reference = run.load_reference(smoke=True)
        cls.spec = run.load_spec()

    def report(self, workload):
        return copy.deepcopy(self.results["workloads"][workload]["report"])

    def failed(self, report):
        return run.summarize(report, self.spec, self.reference)["failed"]

    def test_smoke_pass_is_clean_and_complete(self):
        self.assertEqual(set(self.results["workloads"]),
                         set(run.spec_workloads(self.spec)))
        per_layer = [m["name"] for m in self.spec["per_layer"]]
        for name, summary in self.results["workloads"].items():
            self.assertEqual(summary["failed"], 0, summary["failures"])
            self.assertGreaterEqual(summary["attempted"], 2)
            self.assertEqual(list(summary["per_layer"]), per_layer)
            for d in summary["end_to_end"].values():
                self.assertGreater(d["median"], 0.0)

    def test_traced_repeat_has_the_untraced_digest(self):
        for name in self.results["workloads"]:
            digests = {r["digest"] for r in self.report(name)["repeats"]}
            self.assertEqual(len(digests), 1, name)

    def test_compare_of_a_run_with_itself_finds_no_change(self):
        # A smoke run's few samples may be too spread to resolve, but a run
        # is never worse than itself and its counts never differ.
        out = io.StringIO()
        run.compare(self.results, self.results, self.spec, out=out)
        self.assertNotIn("worse", out.getvalue())
        self.assertNotIn("differs", out.getvalue())
        self.assertEqual(out.getvalue().count(" same"),
                         4 * (len(self.spec["per_layer"]) - len(run.TIMED_LAYERS)))

    def test_wrong_segment_count_fails(self):
        report = self.report("fluid-40k")
        report["repeats"][0]["facts"]["segments"] += 1
        self.assertEqual(self.failed(report), 1)

    def test_digest_drift_between_repeats_fails(self):
        report = self.report("deadline-20k")
        report["repeats"][1]["digest"] = "0" * 16
        self.assertEqual(self.failed(report), 1)

    def test_latency_off_reference_fails(self):
        for name in ("fluid-40k", "deadline-20k", "cache-churn-k4"):
            report = self.report(name)
            reference = self.reference[name]
            for rep in report["repeats"]:
                for key in ("mean_latency_ms", "p95_latency_ms"):
                    rep["facts"][key] = reference[key][0] * 1.2
            self.assertEqual(self.failed(report), len(report["repeats"]), name)

    def test_packet_conservation_break_fails(self):
        report = self.report("packet-train")
        report["repeats"][0]["facts"]["dropped"] += 1
        self.assertEqual(self.failed(report), 1)


class BareTreeTest(unittest.TestCase):
    def test_without_sources_exits_nonzero_and_prints_no_result(self):
        bare = run.BUILD_DIR / "test_bare_tree"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / "bench" / "e2e",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "bench/e2e/run.py", "--workload", "fluid-40k",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=170)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
