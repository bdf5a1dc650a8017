#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread and keep the steadiness record.

Runs every workload in BENCHMARK.json untraced, once per seed 1..10,
through the benchmark command. The workloads are interleaved (seed 1 of
each, then seed 2 of each, ...), so a slow stretch of the host falls on
all of them rather than inside one workload's set. One set is recorded:
every run's metric values and its host calibration reading (calib_ms, a
fixed kernel the benchmark times after its ops), and for each end-to-end
metric the median of the runs and the spread, the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share
of the median, next to the metric's bound. calib_ms gets a median and a
spread too: a metric whose spread follows it moved with the host.

Without --append the set replaces perfbench/steadiness.json; with it the
set is added, and each metric's median is also compared with the first
set's: "shift" is how much worse it reads, as a share of the first median
(negative when better). Run from the repository root:

    python3 perfbench/steadiness.py
    python3 perfbench/steadiness.py --append
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys

RUNS = 10
RECORD = "perfbench/steadiness.json"


def summarize(values, bound=None):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    s = {"median": med, "spread": (q[2] - q[0]) / med}
    if bound is not None:
        s["bound"] = bound
    return s


def measure(bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    host = {"platform": platform.platform()}
    runs = {w["name"]: [] for w in bench["workloads"]}
    for seed in range(1, RUNS + 1):
        for w in bench["workloads"]:
            cmd = bench["command"] + ["--workload", w["name"], "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.strip().splitlines()
            prov = json.loads(lines[-2].split(" ", 1)[1])
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w['name']} seed {seed}: {res['failed']} of {res['attempted']} ops failed")
            host.update({k: prov[k] for k in ("cpu", "nproc", "gomaxprocs", "go_version", "commit", "dirty")})
            run = {"seed": seed, "calib_ms": prov["calib_ms"], "ops": prov["ops"],
                   "values": {name: res["metrics"][name]["value"] for name in bounds}}
            runs[w["name"]].append(run)
            print(w["name"], seed, round(run["calib_ms"], 2), {k: round(v, 4) for k, v in run["values"].items()},
                  flush=True)
    workloads = {}
    for w in bench["workloads"]:
        rs = runs[w["name"]]
        metrics = {name: summarize([r["values"][name] for r in rs], bounds[name]) for name in bounds}
        calib = summarize([r["calib_ms"] for r in rs])
        print(w["name"], "calib_ms", calib, flush=True)
        for name, m in metrics.items():
            print(f"  {name}: median {m['median']:.4f} spread {m['spread']:.4f} bound {m['bound']}", flush=True)
        workloads[w["name"]] = {"why": w["why"], "calib_ms": calib, "metrics": metrics, "runs": rs}
    return {"runs": RUNS, "run_seconds": bench["run_seconds"], "host": host, "workloads": workloads}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--append", action="store_true", help=f"add this set to {RECORD} instead of replacing it")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    new = measure(bench)
    record = {"sets": []}
    if args.append:
        with open(RECORD) as f:
            record = json.load(f)
        first = record["sets"][0]["workloads"]
        for w, data in new["workloads"].items():
            for name, m in data["metrics"].items():
                base = first[w]["metrics"][name]["median"]
                worse = m["median"] - base if better[name] == "lower" else base - m["median"]
                m["shift"] = worse / base
                print(f"  {w} {name}: shift {m['shift']:+.4f} bound {m['bound']}", flush=True)
    record["sets"].append(new)
    with open(RECORD, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
