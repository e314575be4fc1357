#!/usr/bin/env python3
"""Runs one benchmark workload against the xvr engine.

    python3 perfbench/run.py --workload warm_http --seed 1 --seconds 10 --trace 0

Builds perfbench/ (the engine library from src/ plus xvr_perfbench) into
.bench_build/ on first use, runs xvr_perfbench for the workload and prints, as
the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics. setup_s is the median of SETUP_RUNS
set-ups, each in its own process, timed from process start until the first
query could be sent. Exits non-zero, printing no result, on any failure.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "xvr_perfbench")
SETUP_RUNS = 3
# Every run, set-up repeats included, ends within this many seconds.
RUN_DEADLINE_S = 170


class BenchError(Exception):
    pass


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("engine sources not found under " + ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "xvr_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def run_binary(args, deadline, setup_only):
    """Runs xvr_perfbench once; returns (setup seconds, its result object)."""
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        command.append("--setup-only")
    if args.corrupt_every:
        command += ["--corrupt-every", str(args.corrupt_every)]
    start = time.perf_counter()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), child.kill)
    killer.start()
    try:
        setup_s = None
        result = None
        for line in child.stdout:
            if setup_s is None and line.startswith("ready "):
                setup_s = time.perf_counter() - start
                continue
            if line.startswith("{"):
                result = json.loads(line)
            else:
                sys.stdout.write(line)
        code = child.wait()
    finally:
        killer.cancel()
        if child.poll() is None:
            child.kill()
        child.wait()
    if code != 0:
        raise BenchError("xvr_perfbench exited with code %d" % code)
    if setup_s is None or (result is None and not setup_only):
        raise BenchError("xvr_perfbench printed no result")
    return setup_s, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-every", type=int, default=0,
                        help="alter every k-th answer before the check "
                             "(proves the check fires)")
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_DEADLINE_S

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        raise BenchError("unknown workload %r (%s)" %
                         (args.workload, ", ".join(workloads)))

    build()
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(run_binary(args, deadline, setup_only=True)[0])
    setup_s, result = run_binary(args, deadline, setup_only=False)
    setups.append(setup_s)
    measured = dict(result["metrics"])
    measured["setup_s"] = {"value": statistics.median(setups), "unit": "s",
                           "samples": len(setups)}
    print("setup_s (process start to first query): %s -> median %.4f s" %
          (", ".join("%.4f" % s for s in setups), statistics.median(setups)))

    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            raise BenchError("xvr_perfbench did not report " + m["name"])
        if got["unit"] != m["unit"]:
            raise BenchError("%s: unit %s, BENCHMARK.json says %s" %
                             (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": result["wrong"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, subprocess.CalledProcessError, KeyError,
            ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
