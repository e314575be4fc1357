#!/usr/bin/env python3
"""IQR-aware diff of bench JSON results against a committed baseline.

Usage:
    bench_diff.py BASELINE.json CURRENT.json [--tolerance 0.25]
                  [--require-speedup ROW=MIN ...]

Both files are BenchJson emissions (bench/bench_common.h): a flat list of
A/B rows, each carrying median/q25/q75 for side A, side B and the per-trial
speedup distribution.

The comparison is deliberately conservative about noise, in the same spirit
as the harness that produced the numbers:

  * A row only FAILS as a regression when it is statistically
    distinguishable from the baseline: the current speedup's q75 sits below
    the baseline speedup's q25 scaled down by --tolerance. Overlapping
    IQRs — or a dip within tolerance — are reported as warnings, never
    failures, because cross-machine medians are not comparable at that
    resolution.
  * --require-speedup ROW=MIN enforces an absolute floor on a row's median
    speedup (e.g. churn_vs_quiet=0.9): the claim the row exists to defend,
    independent of any baseline.

Exit status: 0 clean (warnings allowed), 1 on any failure, 2 on bad input.
"""

import argparse
import json
import sys


def load_rows(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_diff: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    rows = {}
    for row in doc.get("rows", []):
        name = row.get("name")
        if not name or "speedup" not in row:
            print(f"bench_diff: malformed row in {path}: {row}",
                  file=sys.stderr)
            sys.exit(2)
        rows[name] = row
    return rows


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="fractional slack applied to the baseline's q25 "
                             "before a separated-IQR dip counts as a "
                             "regression (default 0.25)")
    parser.add_argument("--require-speedup", action="append", default=[],
                        metavar="ROW=MIN",
                        help="absolute floor on a row's median speedup")
    args = parser.parse_args()

    baseline = load_rows(args.baseline)
    current = load_rows(args.current)

    failures = []
    warnings = []

    for name, base_row in sorted(baseline.items()):
        cur_row = current.get(name)
        if cur_row is None:
            failures.append(f"{name}: present in baseline, missing from "
                            f"current run")
            continue
        base = base_row["speedup"]
        cur = cur_row["speedup"]
        print(f"{name}: speedup median {cur['median']:.3f} "
              f"[{cur['q25']:.3f}, {cur['q75']:.3f}] vs baseline "
              f"{base['median']:.3f} [{base['q25']:.3f}, {base['q75']:.3f}]")
        floor = base["q25"] * (1.0 - args.tolerance)
        if cur["q75"] < floor:
            failures.append(
                f"{name}: regression — current q75 {cur['q75']:.3f} below "
                f"baseline q25 {base['q25']:.3f} with {args.tolerance:.0%} "
                f"tolerance (floor {floor:.3f})")
        elif cur["median"] < base["median"]:
            warnings.append(
                f"{name}: median dipped {base['median']:.3f} -> "
                f"{cur['median']:.3f} but IQRs are not separated beyond "
                f"tolerance; treating as noise")

    for name in sorted(set(current) - set(baseline)):
        warnings.append(f"{name}: new row with no baseline entry; add it to "
                        f"the committed baseline")

    for spec in args.require_speedup:
        name, _, minimum = spec.partition("=")
        try:
            minimum = float(minimum)
        except ValueError:
            print(f"bench_diff: bad --require-speedup '{spec}'",
                  file=sys.stderr)
            sys.exit(2)
        row = current.get(name)
        if row is None:
            failures.append(f"{name}: required row missing from current run")
        elif row["speedup"]["median"] < minimum:
            failures.append(
                f"{name}: median speedup {row['speedup']['median']:.3f} "
                f"below required floor {minimum:.3f}")

    for w in warnings:
        print(f"WARNING: {w}")
    for f in failures:
        print(f"FAIL: {f}")
    if failures:
        return 1
    print(f"bench_diff: {len(baseline)} row(s) checked, "
          f"{len(warnings)} warning(s), no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
