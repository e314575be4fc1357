#!/usr/bin/env python3
"""Proves that the benchmark's answer check catches wrong answers.

    python3 perfbench/test_answer_check.py

Runs short workloads through run.py with --corrupt-every, which alters every
k-th answer after the engine returned it and before it is compared with
direct evaluation. Every altered answer must be counted wrong and the run
reported incorrect; an unaltered run must be correct. Covers both checks:
the HTTP response body (warm_http) and the in-process code list (cold_plan).
"""

import json
import os
import re
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
CHECKED = re.compile(r"(\d+) answers checked, (\d+) wrong")


def run(workload, corrupt_every):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "0",
         "--corrupt-every", str(corrupt_every)],
        check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    checked, wrong = map(int, CHECKED.search(out).groups())
    return json.loads(lines[-1]), checked, wrong, out


class AnswerCheckTest(unittest.TestCase):

    def test_clean_answers_pass(self):
        result, checked, wrong, _ = run("warm_http", 0)
        self.assertGreater(checked, 0)
        self.assertEqual(wrong, 0)
        self.assertTrue(result["correct"])

    def test_corrupted_http_answers_are_caught(self):
        result, checked, wrong, out = run("warm_http", 50)
        self.assertEqual(wrong, checked // 50)
        self.assertGreater(wrong, 0)
        self.assertFalse(result["correct"])
        self.assertIn("WRONG ANSWER:", out)

    def test_corrupted_in_process_answers_are_caught(self):
        result, checked, wrong, out = run("cold_plan", 50)
        self.assertEqual(wrong, checked // 50)
        self.assertGreater(wrong, 0)
        self.assertFalse(result["correct"])
        self.assertIn("WRONG ANSWER:", out)


if __name__ == "__main__":
    unittest.main()
