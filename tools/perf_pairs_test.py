#!/usr/bin/env python3
"""Self-test of tools/perf_pairs.py's verdict logic on canned result lines.

    python3 tools/perf_pairs_test.py

Runs no benchmark: each case feeds perfbench-shaped JSON lines straight
into perf_pairs.verdict() and checks the pass/fail decision.
"""

from __future__ import annotations

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_pairs  # noqa: E402

SPEC = json.load(open(os.path.join(perf_pairs.ROOT, "BENCHMARK.json"),
                      encoding="utf-8"))["end_to_end"]

# Five result lines as perfbench/run.py --trace 0 prints them.
PARENT_LINES = [
    '{"correct": true, "attempted": 28000, "failed": 0, "metrics": {'
    f'"setup_s": {{"value": {s}, "unit": "s"}}, '
    f'"exec_wall_p50_s": {{"value": {w}, "unit": "s"}}, '
    f'"scripts_per_s": {{"value": {r}, "unit": "1/s"}}, '
    f'"cpu_s_per_script": {{"value": {c}, "unit": "s"}}, '
    f'"peak_rss_mb": {{"value": {m}, "unit": "MiB"}}, '
    '"verified_ratio": {"value": 1, "unit": "ratio"}}}'
    for s, w, r, c, m in [(2.1, 1.73, 2310, 4.27e-4, 132.8),
                          (2.0, 1.65, 2420, 4.10e-4, 132.9),
                          (2.2, 1.87, 2140, 4.60e-4, 132.7),
                          (2.06, 1.70, 2350, 4.20e-4, 132.8),
                          (2.3, 1.80, 2220, 4.40e-4, 133.0)]
]


def line(base: str, failed: int | None = None, **scale: float) -> dict:
    """Parse a canned line, multiplying the named metrics by a factor."""
    result = json.loads(base)
    for name, factor in scale.items():
        result["metrics"][name]["value"] *= factor
    if failed is not None:
        result["failed"] = failed
    return result


def pairs_with(**scale: float) -> list[tuple[dict, dict]]:
    return [(json.loads(p), line(p, **scale)) for p in PARENT_LINES]


class VerdictTest(unittest.TestCase):
    def test_quantiles_interpolate_between_ranks(self):
        xs = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(perf_pairs.quantile(xs, 0.5), 2.5)
        self.assertEqual(perf_pairs.quantile(xs, 0.25), 1.75)
        self.assertEqual(perf_pairs.quantile(xs, 0.75), 3.25)
        self.assertEqual(perf_pairs.quantile([7.0], 0.25), 7.0)

    def test_result_is_the_last_json_line(self):
        out = "  exec_wall_p50_s 1.7 s\n" + PARENT_LINES[0] + "\n\n"
        self.assertEqual(perf_pairs.parse_result(out)["failed"], 0)
        self.assertIsNone(perf_pairs.parse_result("build failed\n"))
        self.assertIsNone(perf_pairs.parse_result(""))
        self.assertIsNone(perf_pairs.parse_result('{"no": "metrics"}'))

    def test_identical_sides_pass_with_no_wins(self):
        lines, ok = perf_pairs.verdict(SPEC, pairs_with())
        self.assertTrue(ok)
        self.assertTrue(any(l.startswith("exec_wall_p50_s") and " 0/5" in l
                            for l in lines))
        self.assertEqual(lines[-1], "verdict: OK")

    def test_gain_counts_wins_and_ratio(self):
        lines, ok = perf_pairs.verdict(
            SPEC, pairs_with(exec_wall_p50_s=0.75, scripts_per_s=1.33))
        self.assertTrue(ok)
        row = next(l for l in lines if l.startswith("exec_wall_p50_s"))
        self.assertIn("1.333", row)
        self.assertIn(" 5/5", row)
        row = next(l for l in lines if l.startswith("scripts_per_s"))
        self.assertIn(" 5/5", row)

    def test_slowdown_within_bound_passes(self):
        _, ok = perf_pairs.verdict(SPEC, pairs_with(exec_wall_p50_s=1.2))
        self.assertTrue(ok)

    def test_slowdown_beyond_bound_fails(self):
        lines, ok = perf_pairs.verdict(SPEC, pairs_with(exec_wall_p50_s=1.3))
        self.assertFalse(ok)
        row = next(l for l in lines if l.startswith("exec_wall_p50_s"))
        self.assertIn("WORSE", row)
        self.assertEqual(lines[-1], "verdict: FAIL")

    def test_higher_is_better_metrics_fail_when_they_drop(self):
        _, ok = perf_pairs.verdict(SPEC, pairs_with(scripts_per_s=0.7))
        self.assertFalse(ok)
        _, ok = perf_pairs.verdict(SPEC, pairs_with(verified_ratio=0.98))
        self.assertFalse(ok)
        _, ok = perf_pairs.verdict(SPEC, pairs_with(verified_ratio=0.995))
        self.assertTrue(ok)

    def test_rss_bound_is_tighter(self):
        _, ok = perf_pairs.verdict(SPEC, pairs_with(peak_rss_mb=1.2))
        self.assertFalse(ok)

    def test_failed_scripts_on_either_side_fail(self):
        pairs = pairs_with(exec_wall_p50_s=0.5)
        pairs[2] = (pairs[2][0], line(PARENT_LINES[2], failed=1))
        lines, ok = perf_pairs.verdict(SPEC, pairs)
        self.assertFalse(ok)
        self.assertIn("failed scripts: parent 0, change 1", lines)
        pairs = pairs_with()
        pairs[0] = (line(PARENT_LINES[0], failed=3), pairs[0][1])
        _, ok = perf_pairs.verdict(SPEC, pairs)
        self.assertFalse(ok)


if __name__ == "__main__":
    unittest.main()
