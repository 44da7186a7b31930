"""Unit tests for scripts/perf_check.py.

Focus: the missing-benchmark policy and the time that is compared. A
benchmark present in the baseline but absent from the fresh capture must
HARD-FAIL (even under --warn-only) unless explicitly waived with
--allow-missing — a silently vanished benchmark is a coverage
regression, not noise. Times are compared as CPU time, so a loaded
host's wall time neither hides nor fakes a regression.

Run directly (python3 tests/perf_check_test.py) or via ctest.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      os.pardir, "scripts", "perf_check.py")


def bench_json(times_ns, wall_factor=1.0):
    """google-benchmark JSON with one iteration row per {name: ns} of CPU
    time, whose wall time is `wall_factor` times that (a loaded host waits
    for a CPU)."""
    return {
        "benchmarks": [
            {"name": name, "run_name": name, "run_type": "iteration",
             "real_time": ns * wall_factor, "cpu_time": ns,
             "time_unit": "ns"}
            for name, ns in times_ns.items()
        ]
    }


class PerfCheckTest(unittest.TestCase):
    def run_check(self, baseline, current, *extra_args,
                  baseline_wall_factor=1.0, current_wall_factor=1.0):
        with tempfile.TemporaryDirectory() as tmp:
            baseline_path = os.path.join(tmp, "baseline.json")
            current_path = os.path.join(tmp, "current.json")
            with open(baseline_path, "w", encoding="utf-8") as fh:
                json.dump(bench_json(baseline, baseline_wall_factor), fh)
            with open(current_path, "w", encoding="utf-8") as fh:
                json.dump(bench_json(current, current_wall_factor), fh)
            proc = subprocess.run(
                [sys.executable, SCRIPT, "--baseline", baseline_path,
                 "--current", current_path, *extra_args],
                capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout

    def test_matching_benchmarks_pass(self):
        code, out = self.run_check({"BM_A": 100.0}, {"BM_A": 101.0})
        self.assertEqual(code, 0, out)
        self.assertIn("OK", out)

    def test_regression_beyond_hard_fail_fails(self):
        code, out = self.run_check({"BM_A": 100.0}, {"BM_A": 500.0})
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL", out)

    def test_warn_only_downgrades_tolerance_breach(self):
        code, out = self.run_check({"BM_A": 100.0}, {"BM_A": 200.0},
                                   "--warn-only")
        self.assertEqual(code, 0, out)
        self.assertIn("WARN", out)

    def test_cpu_time_is_compared_not_wall_time(self):
        # A baseline captured on a loaded host (wall = 2x CPU) against an
        # idle run (wall = CPU): a 4x CPU regression reads only 2x in wall
        # time, below the 3x hard-fail ratio, and must still fail.
        code, out = self.run_check({"BM_A": 100.0}, {"BM_A": 400.0},
                                   "--warn-only", baseline_wall_factor=2.0)
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL", out)
        # The reverse: equal CPU time on a loaded runner is no regression,
        # though its wall time doubled.
        code, out = self.run_check({"BM_A": 100.0}, {"BM_A": 100.0},
                                   current_wall_factor=2.0)
        self.assertEqual(code, 0, out)
        self.assertIn("OK", out)

    def test_missing_baseline_benchmark_hard_fails(self):
        code, out = self.run_check({"BM_A": 100.0, "BM_Gone": 50.0},
                                   {"BM_A": 100.0})
        self.assertEqual(code, 1, out)
        self.assertIn("MISSING: BM_Gone", out)
        self.assertIn("FAIL", out)

    def test_missing_benchmark_fails_even_with_warn_only(self):
        code, out = self.run_check({"BM_A": 100.0, "BM_Gone": 50.0},
                                   {"BM_A": 100.0}, "--warn-only")
        self.assertEqual(code, 1, out)
        self.assertIn("MISSING: BM_Gone", out)

    def test_allow_missing_waives_the_failure(self):
        code, out = self.run_check({"BM_A": 100.0, "BM_Gone": 50.0},
                                   {"BM_A": 100.0}, "--allow-missing")
        self.assertEqual(code, 0, out)
        self.assertIn("waived", out)

    def test_new_benchmark_in_current_run_is_a_note_not_a_failure(self):
        code, out = self.run_check({"BM_A": 100.0},
                                   {"BM_A": 100.0, "BM_New": 10.0})
        self.assertEqual(code, 0, out)
        self.assertIn("only in current run", out)

    def test_median_aggregates_preferred_over_iterations(self):
        baseline = bench_json({"BM_A": 100.0})
        current = bench_json({"BM_A": 900.0})  # noisy iteration row...
        current["benchmarks"].append(
            {"name": "BM_A_median", "run_name": "BM_A",
             "run_type": "aggregate", "aggregate_name": "median",
             "real_time": 102.0, "cpu_time": 102.0, "time_unit": "ns"})
        with tempfile.TemporaryDirectory() as tmp:
            baseline_path = os.path.join(tmp, "baseline.json")
            current_path = os.path.join(tmp, "current.json")
            with open(baseline_path, "w", encoding="utf-8") as fh:
                json.dump(baseline, fh)
            with open(current_path, "w", encoding="utf-8") as fh:
                json.dump(current, fh)
            proc = subprocess.run(
                [sys.executable, SCRIPT, "--baseline", baseline_path,
                 "--current", current_path],
                capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stdout)


if __name__ == "__main__":
    unittest.main()
