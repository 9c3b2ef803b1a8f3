"""Tests for scripts/e2e_parity.py: which differences fail the parity check
and which are only listed.

  python3 -m unittest discover -s tests/scripts -t tests/scripts
"""

import contextlib
import copy
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))
import e2e_parity  # noqa: E402


def results():
    repeat = {"digest": "6387fafd125595f3",
              "facts": {"segments": 900000.0, "continuity": 0.25}}
    return {"workloads": {"fluid-40k": {
        "report": {"repeats": [repeat, copy.deepcopy(repeat)]},
        "per_layer": {
            "sim.events_per_segment": {"value": 3.67},
            "systems.event_loop_ms": {"value": 812.0},
        }}}}


class ParityTest(unittest.TestCase):
    def run_main(self, a, b):
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for name, data in (("a.json", a), ("b.json", b)):
                path = Path(d) / name
                path.write_text(json.dumps(data))
                paths.append(str(path))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = e2e_parity.main(paths)
        return code, out.getvalue()

    def test_identical_results_pass(self):
        code, out = self.run_main(results(), results())
        self.assertEqual(code, 0)
        self.assertIn("e2e parity: ok", out)

    def test_digest_difference_fails(self):
        b = results()
        b["workloads"]["fluid-40k"]["report"]["repeats"][1]["digest"] = "0"
        code, out = self.run_main(results(), b)
        self.assertEqual(code, 1)
        self.assertIn("fluid-40k repeat 1: digest", out)

    def test_facts_difference_fails(self):
        b = results()
        b["workloads"]["fluid-40k"]["report"]["repeats"][0]["facts"][
            "continuity"] = 0.26
        code, out = self.run_main(results(), b)
        self.assertEqual(code, 1)
        self.assertIn("facts.continuity", out)

    def test_missing_workload_or_repeat_fails(self):
        b = results()
        b["workloads"]["fluid-40k"]["report"]["repeats"].pop()
        self.assertEqual(self.run_main(results(), b)[0], 1)
        self.assertEqual(self.run_main(results(), {"workloads": {}})[0], 1)

    def test_count_difference_is_listed_but_passes(self):
        b = results()
        b["workloads"]["fluid-40k"]["per_layer"]["sim.events_per_segment"][
            "value"] = 2.67
        code, out = self.run_main(results(), b)
        self.assertEqual(code, 0)
        self.assertIn("sim.events_per_segment", out)

    def test_timed_layers_are_ignored(self):
        b = results()
        b["workloads"]["fluid-40k"]["per_layer"]["systems.event_loop_ms"][
            "value"] = 400.0
        code, out = self.run_main(results(), b)
        self.assertEqual(code, 0)
        self.assertNotIn("systems.event_loop_ms", out)

    def test_usage_error(self):
        with contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(e2e_parity.main(["only-one.json"]), 2)
            self.assertEqual(e2e_parity.main(["/nonexistent/a.json",
                                              "/nonexistent/b.json"]), 2)


if __name__ == "__main__":
    unittest.main()
