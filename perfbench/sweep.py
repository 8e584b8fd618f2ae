"""Repeat run.py over seeds and summarise each metric across the runs.

    python3 perfbench/sweep.py --runs 10 > perfbench/baseline.json

Runs ``run.py --seed 1..runs --seconds <run_seconds of BENCHMARK.json>`` in
rounds: each round runs every workload once, so slow drift of the machine
falls on all workloads alike rather than on the one measured last.  Then it
runs one traced run per workload.  It prints JSON: per workload and
end-to-end metric, the values, their median, quartiles and spread
(interquartile distance over the median); the attempted and failed counts
summed over the runs; and the traced run's per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def one_run(workload, seed, seconds, trace):
    argv = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    results = {name: [] for name in run.WORKLOADS}
    for seed in range(1, args.runs + 1):
        for name in run.WORKLOADS:
            results[name].append(one_run(name, seed, seconds, 0))
        print(f"sweep: round {seed} done", file=sys.stderr)
    report = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "seconds_per_run": seconds,
        },
        "workloads": {},
    }
    for name, runs in results.items():
        traced = one_run(name, 1, seconds, 1)
        report["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs) + traced["attempted"],
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "end_to_end": {
                m: summarise([r["metrics"][m]["value"] for r in runs])
                for m in sorted(runs[0]["metrics"])
            },
            "per_layer": {m: v["value"] for m, v in sorted(traced["metrics"].items())},
        }
    json.dump(report, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
