"""Steadiness check: run every workload with several seeds and record spreads.

    python3 perfbench/steadiness.py [--out perfbench/baseline.json]

It runs every workload in BENCHMARK.json with ten seeds.  For each workload
and end-to-end metric it reports the median of the runs and the spread: the
distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median.  A metric is
steady when its spread is below a third of its bound in BENCHMARK.json.
The result, with the machine it ran on, is written to the baseline file, or
to `--out` for a second set to compare with it.  It exits with 1 when a
metric is not steady.  The ten runs of a workload take 4 to 9 minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import run

RUNS = 10


def cpu_model():
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def main(argv=None):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=os.path.join(run.HERE, "baseline.json"))
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    result = {
        "machine": "%s cpu=%r" % (run.machine_info(), cpu_model()),
        "run_seconds": bench["run_seconds"],
        "runs": RUNS,
        "workloads": {},
    }
    steady = True
    for name in (w["name"] for w in bench["workloads"]):
        values, failed, started = {}, 0, time.perf_counter()
        for seed in range(1, RUNS + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True)
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += out["failed"]
            for metric, v in out["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        summary = {"seconds_per_run": (time.perf_counter() - started) / RUNS,
                   "ops_failed": failed}
        for metric, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds[metric]
            ok = spread < bound / 3
            steady = steady and ok
            summary[metric] = {"median": med, "spread": spread, "bound": bound,
                               "steady": ok, "values": vals}
            print("%-16s %-12s median %10.4f  spread %.3f  bound %s  %s"
                  % (name, metric, med, spread, bound, "ok" if ok else "NOT STEADY"))
        result["workloads"][name] = summary
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
