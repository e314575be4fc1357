#!/usr/bin/env python3
"""Checks that each VFILTER ablation of bench_ablation shows its effect.

    set -o pipefail
    ./build/bench/bench_ablation --benchmark_format=json | \\
        python3 scripts/check_ablation.py

Reads the benchmark's JSON report on standard input, echoes it, and prints
the figures of each claim. Exits 1 when the report is missing or malformed,
or when a row does not show the effect it stands for:

  BM_Ablation_Normalization  normalized total_candidates > raw: §III-C
                             normalization recovers the Example 3.2 matches
                             a raw-only automaton misses;
  BM_Ablation_PrefixSharing  shared states < unshared states: the trie
                             shares prefixes (§III-D);
  BM_Ablation_CounterMode    queries_diverging > 0: the paper's literal
                             NUM(V) counter disagrees with per-path
                             coverage on some probe.
"""

import json
import sys

# (benchmark, counter, label of the row that must read more, label of the
# row that must read less); a less-label of None compares with zero.
CLAIMS = [
    ("BM_Ablation_Normalization", "total_candidates", "normalized", "raw"),
    ("BM_Ablation_PrefixSharing", "states", "unshared", "shared"),
    ("BM_Ablation_CounterMode", "queries_diverging", "counter", None),
]


def rows(report):
    """Maps (benchmark, label) to the report's row."""
    table = {}
    for row in report["benchmarks"]:
        table[(row["name"].split("/")[0], row.get("label", ""))] = row
    return table


def problems(report):
    """Returns the claims the report does not show."""
    table = rows(report)
    found = []
    for benchmark, counter, more, less in CLAIMS:
        high = table[(benchmark, more)][counter]
        low = 0 if less is None else table[(benchmark, less)][counter]
        figures = "%s %s: %s %s vs %s %s" % (benchmark, counter, more, high,
                                             less or "zero", low)
        print("ablation check: " + figures)
        if not high > low:
            found.append(figures)
    return found


def main():
    text = sys.stdin.read()
    sys.stdout.write(text)
    try:
        found = problems(json.loads(text))
    except (ValueError, KeyError, TypeError) as e:
        print("ablation check: FAIL: malformed report: %r" % e,
              file=sys.stderr)
        return 1
    for problem in found:
        print("ablation check: FAIL: " + problem, file=sys.stderr)
    if not found:
        print("ablation check: OK")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
