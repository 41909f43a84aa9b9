#!/usr/bin/env python3
"""Records etperf's baseline: the median and interquartile range of every
end-to-end metric, the unbounded timings included, over several runs per
workload, each run with its own seed, together with the machine the runs
were made on.

    python3 cmd/etperf/baseline.py --runs 10 --seconds 20 > cmd/etperf/baseline.json

Run it from the repository root. It prints each metric's spread (IQR as
a share of the median) on standard error as it goes.
"""
import argparse
import json
import shlex
import statistics
import subprocess
import sys

WORKLOADS = ["interactive", "durable", "batched", "paper_sweep"]


def run(workload, seed, seconds):
    """Runs etperf once and returns its header fields and every metric
    its text lines print, as {name: (value, unit)}."""
    proc = subprocess.run(
        ["bash", "cmd/etperf/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"etperf {workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    header = dict(f.split("=", 1) for f in shlex.split(lines[0])[2:])
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"etperf {workload} seed {seed}: {result}")
    metrics = {}
    for line in lines[1:-1]:
        f = line.split()
        if len(f) >= 4 and f[0] == workload and f[1] != "error_rate":
            try:
                metrics[f[1]] = (float(f[2]), f[3])
            except ValueError:
                continue  # the oracle line
    # The JSON line carries the bounded metrics with all their digits.
    for name, m in result["metrics"].items():
        metrics[name] = (m["value"], m["unit"])
    return header, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first run; run i uses seed+i")
    args = ap.parse_args()
    if args.runs < 2:
        sys.exit("--runs must be at least 2 to give an interquartile range")

    report = {"runs": args.runs, "seconds": args.seconds, "machine": {}, "workloads": {}}
    for w in WORKLOADS:
        values, units = {}, {}
        for i in range(args.runs):
            header, metrics = run(w, args.seed + i, args.seconds)
            report["machine"] = {k: header[k] for k in ("nproc", "GOMAXPROCS", "cpu", "workdir_fs")}
            for name, (value, unit) in metrics.items():
                values.setdefault(name, []).append(value)
                units[name] = unit
        summary = {}
        for name, vs in values.items():
            q = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            summary[name] = {"median": med, "iqr": q[2] - q[0], "unit": units[name]}
            print(f"{w} {name} median {med:.6g} iqr/median {(q[2] - q[0]) / med:.4f}", file=sys.stderr)
        report["workloads"][w] = summary
    json.dump(report, sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
