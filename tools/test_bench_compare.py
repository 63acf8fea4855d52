#!/usr/bin/env python3
"""The judging rules of tools/bench_compare.py, on synthetic runs.

    python3 tools/test_bench_compare.py     (ctest: bench_compare_rules)
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare as bc  # noqa: E402

METRICS = [{"name": "fps", "better": "higher", "bound": 0.25},
           {"name": "ms", "better": "lower", "bound": 0.25}]
FLAT = [100.0, 99.0, 101.0, 100.0, 100.0, 98.0, 102.0, 100.0, 99.0, 101.0]


def result(fps=100.0, ms=10.0, correct=True, attempted=100, failed=0):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"fps": {"value": fps, "unit": "fps"}, "ms": {"value": ms, "unit": "ms"}}}


def pairs(parent, change, metric="fps", workload="w"):
    """One pair per value, seeds 1.., the other metric held at its default."""
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change), 1):
        runs.append(bc.Run("parent", workload, seed, 0, result(**{metric: p})))
        runs.append(bc.Run("change", workload, seed, 0, result(**{metric: c})))
    return runs


def judge(runs, claims=()):
    rows, failures = bc.judge(METRICS, ["w"], runs, claims)
    return {r["metric"]: r for r in rows}, failures


class Quartiles(unittest.TestCase):
    def test_quartiles_are_the_exclusive_method(self):
        # statistics.quantiles(n=4)'s default; method="inclusive" gives 80, 120.
        self.assertEqual(bc.quartiles([140.0, 60.0, 100.0, 80.0, 120.0]), (70.0, 130.0))
        self.assertEqual(bc.quartiles([7.0]), (7.0, 7.0))


class WorseBeyondBound(unittest.TestCase):  # rule (a)
    def test_lower_throughput_beyond_the_bound_fails(self):
        rows, failures = judge(pairs(FLAT, [0.7 * v for v in FLAT]))
        self.assertTrue(rows["fps"]["verdict"].startswith("WORSE"))
        self.assertEqual(len(failures), 1)
        self.assertIn("change w fps", failures[0])

    def test_higher_latency_beyond_the_bound_fails(self):
        rows, failures = judge(pairs([v / 10 for v in FLAT], [v / 7.5 for v in FLAT], "ms"))
        self.assertTrue(rows["ms"]["verdict"].startswith("WORSE"))
        self.assertEqual(len(failures), 1)
        self.assertIn("change w ms", failures[0])

    def test_within_the_bound_or_better_reads_level(self):
        for change in ([0.8 * v for v in FLAT], [2.0 * v for v in FLAT]):
            rows, failures = judge(pairs(FLAT, change))
            self.assertEqual((rows["fps"]["verdict"], failures), ("level", []))
        rows, failures = judge(pairs([v / 10 for v in FLAT], [v / 8.5 for v in FLAT], "ms"))
        self.assertEqual((rows["ms"]["verdict"], failures), ("level", []))


class WideParentSpread(unittest.TestCase):  # rule (b)
    NOISY = [60.0, 80.0, 100.0, 120.0, 140.0]  # q1 70, q3 130: spread 0.6

    def test_a_spread_wider_than_the_bound_is_unresolved_not_failed(self):
        rows, failures = judge(pairs(self.NOISY, [0.5 * v for v in self.NOISY]))
        self.assertTrue(rows["fps"]["verdict"].startswith("unresolved"))
        self.assertAlmostEqual(rows["fps"]["spread"], 0.6)
        self.assertEqual(failures, [])
        rows, failures = judge(pairs(self.NOISY, [2.0 * v for v in self.NOISY], "ms"))
        self.assertTrue(rows["ms"]["verdict"].startswith("unresolved"))
        self.assertEqual(failures, [])

    def test_every_change_run_better_than_every_parent_run_reads_level(self):
        rows, _ = judge(pairs(self.NOISY, [150.0, 160.0, 141.0, 170.0, 180.0]))
        self.assertEqual(rows["fps"]["verdict"], "level")
        rows, _ = judge(pairs(self.NOISY, [50.0, 59.0, 40.0, 30.0, 20.0], "ms"))
        self.assertEqual(rows["ms"]["verdict"], "level")
        rows, _ = judge(pairs(self.NOISY, [150.0, 160.0, 140.0, 170.0, 180.0]))  # a tie
        self.assertTrue(rows["fps"]["verdict"].startswith("unresolved"))


class Claims(unittest.TestCase):  # rule (c)
    def claim(self, parent, change, metric="fps"):
        rows, failures = judge(pairs(parent, change, metric), [(metric, "w")])
        return rows[metric]["verdict"].endswith("claim met"), failures

    def test_nine_wins_of_ten_and_medians_past_the_parent_quartiles_meet_it(self):
        change = [v + 5.0 for v in FLAT[:9]] + [FLAT[9] - 1.0]
        self.assertEqual(self.claim(FLAT, change), (True, []))
        lower = [v / 10 for v in FLAT]
        self.assertEqual(self.claim(lower, [v - 0.5 for v in lower], "ms"), (True, []))

    def test_eight_wins_of_ten_do_not(self):
        met, failures = self.claim(FLAT, [v + 5.0 for v in FLAT[:8]] + FLAT[8:9] + [90.0])
        self.assertFalse(met)
        self.assertIn("claim fps:w not met: 8 of 10 pairs won", failures[0])

    def test_ties_count_for_neither_side(self):
        self.assertTrue(self.claim(FLAT, [v + 5.0 for v in FLAT[:9]] + FLAT[9:])[0])
        self.assertFalse(self.claim(FLAT, [v + 5.0 for v in FLAT[:8]] + FLAT[8:])[0])

    def test_medians_within_the_parent_quartile_distance_do_not(self):
        # Ten wins, but the medians are 1.5 apart and the parent's q3 - q1 is 2.
        met, failures = self.claim(FLAT, [v + 1.5 for v in FLAT])
        self.assertFalse(met)
        self.assertIn("10 of 10 pairs won, medians 100 -> 101.5, parent q3 - q1 2", failures[0])

    def test_short_runs_need_every_pair(self):
        self.assertFalse(self.claim([100.0, 99.0, 101.0], [110.0, 111.0, 100.0])[0])
        self.assertTrue(self.claim([100.0, 99.0, 101.0], [110.0, 111.0, 109.0])[0])


class BrokenRuns(unittest.TestCase):  # rule (d)
    def test_an_incorrect_change_run_fails_naming_side_workload_and_seed(self):
        runs = pairs(FLAT[:3], FLAT[:3])
        runs[3] = runs[3]._replace(result=result(correct=False))
        self.assertEqual(judge(runs)[1], ['change w seed 2: "correct" is not true'])

    def test_a_higher_failed_share_than_the_parent_fails(self):
        runs = [bc.Run("parent", "w", 1, 0, result(attempted=200, failed=1)),
                bc.Run("change", "w", 1, 0, result(attempted=100, failed=1))]
        self.assertEqual(judge(runs)[1], ["change w: 1 of 100 attempted failed, parent 1 of 200"])
        runs[1] = runs[1]._replace(result=result(attempted=300, failed=1))
        self.assertEqual(judge(runs)[1], [])

    def test_a_non_zero_exit_or_no_result_line_fails_on_either_side(self):
        runs = pairs(FLAT[:3], FLAT[:3])
        runs[2] = runs[2]._replace(returncode=1)
        runs[5] = runs[5]._replace(result=None)
        rows, failures = judge(runs)
        self.assertEqual(failures, ["parent w seed 2: exit status 1",
                                    "change w seed 3: no result line"])
        self.assertEqual(rows["fps"]["pairs"], 1)

    def test_a_result_line_without_a_metric_value_fails(self):
        runs = pairs(FLAT[:1], FLAT[:1])
        del runs[0].result["metrics"]["ms"]
        runs[1].result["metrics"]["fps"]["value"] = None  # a non-finite value prints null
        self.assertEqual(judge(runs)[1], ["parent w seed 1: no ms value in its result line",
                                          "change w seed 1: no fps value in its result line"])


if __name__ == "__main__":
    unittest.main()
