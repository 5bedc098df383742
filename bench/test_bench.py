"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import json
import unittest

import run

with open(run.ROOT / "BENCHMARK.json") as handle:
    SPEC = json.load(handle)


def _units(section: str) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in SPEC[section]}


class HarnessSmokeTest(unittest.TestCase):
    def test_workloads_match_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))

    def test_every_metric_emitted_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace, section in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    report = run.run_workload(workload, seed=5, seconds=0, trace=trace, tiny=True)
                    self.assertTrue(report["correct"], report["failures"])
                    self.assertEqual(report["failed"], 0)
                    emitted = {name: m["unit"] for name, m in report["metrics"].items()}
                    self.assertEqual(emitted, _units(section))

    def test_traced_counts_repeat_exactly(self):
        counts = []
        for _ in range(2):
            report = run.run_workload("simulate", seed=9, seconds=0, trace=True, tiny=True)
            counts.append({
                name: m["value"]
                for name, m in report["metrics"].items()
                if m["unit"] == "count"
            })
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(counts[0]["mc.simulate.steps"], 2 * run.SIM_SIZES[True]["bounded"][0])
        self.assertGreater(counts[0]["cli.main.calls"], 0)

    def test_failing_jobs_raise_fail_ratio(self):
        good = run.workload_jobs("exact-law", 0, tiny=True)[0]
        exits_nonzero = run._cli("bad_s", "stationary", "--m", 2, "--n", 3, "--q", "1/2")
        fails_check = dict(run.workload_jobs("simulate", 0, tiny=True)[0], tv_bound=0.0)
        result = run.measure([good, exits_nonzero, fails_check], seconds=0, trace=False)
        rounds = len(result["rounds"])
        self.assertEqual(result["attempted"], 3 * rounds)
        self.assertEqual(result["failed"], 2 * rounds)
        self.assertTrue(all(r["jobs"][0]["ok"] for r in result["rounds"]))


if __name__ == "__main__":
    unittest.main()
