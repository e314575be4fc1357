#!/usr/bin/env python3
"""Checks one run of the benchmark's catalog-churn workload.

    set -o pipefail
    .bench_build/xvr_perfbench --workload churn --seed 1 --seconds 10 \\
        --trace 1 | python3 scripts/check_churn.py

Reads the run's output on standard input, echoes it, and checks its result
line (the last line that starts with "{"). The caller checks the binary's
exit status (pipefail above). Exits 1 when the result line is missing or
malformed, when any answer was wrong or any operation failed, when fewer
than MIN_PUBLICATIONS publications were swept, or when the survivor share
is below MIN_SURVIVOR_SHARE.

The survivor share is survivors / (survivors + invalidations) per
publication: the share of cached plans a publish sweep keeps. The
dependency-tracked plan cache exists to keep it near 1; the version-keyed
cache it replaced kept none.
"""

import json
import sys

MIN_PUBLICATIONS = 100
MIN_SURVIVOR_SHARE = 0.95


def problems(result):
    """Prints the run's churn figures; returns the conditions it fails."""
    metrics = result["metrics"]
    survivors = metrics["core.survivors_per_publish"]
    invalidations = metrics["core.invalidations_per_publish"]["value"]
    publications = survivors["samples"]
    swept = survivors["value"] + invalidations
    share = survivors["value"] / swept if swept > 0 else 0.0
    print("churn gate: %d publications; per publication %.2f survivors, "
          "%.2f invalidations; survivor share %.4f; %d wrong, %d failed" %
          (publications, survivors["value"], invalidations, share,
           result["wrong"], result["failed"]))
    found = []
    if result["wrong"] > 0:
        found.append("%d wrong answers" % result["wrong"])
    if result["failed"] > 0:
        found.append("%d failed operations" % result["failed"])
    if publications < MIN_PUBLICATIONS:
        found.append("%d publications swept, fewer than %d" %
                     (publications, MIN_PUBLICATIONS))
    if share < MIN_SURVIVOR_SHARE:
        found.append("survivor share %.4f below %.2f" %
                     (share, MIN_SURVIVOR_SHARE))
    return found


def main():
    result = None
    for line in sys.stdin:
        sys.stdout.write(line)
        if line.startswith("{"):
            result = line
    if result is None:
        print("churn gate: FAIL: no result line", file=sys.stderr)
        return 1
    try:
        found = problems(json.loads(result))
    except (ValueError, KeyError, TypeError) as e:
        print("churn gate: FAIL: malformed result line: %r" % e,
              file=sys.stderr)
        return 1
    for problem in found:
        print("churn gate: FAIL: " + problem, file=sys.stderr)
    if not found:
        print("churn gate: OK")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
