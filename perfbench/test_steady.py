"""Tests of the steadiness command's output parsing and spread arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import statistics
import unittest

from steady import host_line, parse_result, spread

RESULT = {
    "correct": True,
    "attempted": 27,
    "failed": 0,
    "metrics": {
        "tok_s": {"value": 51.8, "unit": "1/s"},
        "setup_s": {"value": 0.52, "unit": "s"},
    },
}


class ParseResult(unittest.TestCase):
    def test_last_line_is_the_result_after_context_lines(self):
        out = "faults: 1414 flips injected\nhost: cores=2 rayon_workers=2\n" + json.dumps(RESULT) + "\n\n"
        self.assertEqual(parse_result(out), RESULT)
        self.assertEqual(host_line(out), "host: cores=2 rayon_workers=2")

    def test_rejects_extra_or_missing_keys(self):
        extra = dict(RESULT, note="x")
        with self.assertRaises(ValueError):
            parse_result(json.dumps(extra))
        missing = {k: v for k, v in RESULT.items() if k != "failed"}
        with self.assertRaises(ValueError):
            parse_result(json.dumps(missing))

    def test_rejects_malformed_counts_and_metrics(self):
        for bad in (dict(RESULT, attempted=0), dict(RESULT, failed=1.5),
                    dict(RESULT, failed=True),
                    dict(RESULT, metrics={"tok_s": {"value": "fast", "unit": "1/s"}}),
                    dict(RESULT, metrics={"tok_s": {"value": 1.0}})):
            with self.assertRaises(ValueError):
                parse_result(json.dumps(bad))

    def test_rejects_empty_output_and_a_non_json_last_line(self):
        with self.assertRaises(ValueError):
            parse_result("\n \n")
        with self.assertRaises(ValueError):
            parse_result(json.dumps(RESULT) + "\nfinished")


class Spread(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.4, 10.1, 9.9, 10.7, 10.2, 9.8, 10.3]
        med, q1, q3, s = spread(values)
        e1, em, e3 = statistics.quantiles(values, n=4)
        self.assertEqual((med, q1, q3), (em, e1, e3))
        self.assertAlmostEqual(s, (e3 - e1) / em)

    def test_identical_values_have_no_spread(self):
        self.assertEqual(spread([4.0] * 10)[3], 0.0)


if __name__ == "__main__":
    unittest.main()
