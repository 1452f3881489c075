#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--trace 0|1]
                                [--first-seed 0] [--baseline]

For every end-to-end metric this prints the median of the runs and the
distance between their first and third quartiles as a share of the
median, next to the metric's bound from BENCHMARK.json.  With
``--baseline`` the medians, the machine and the runs go to
perfbench/baseline.json, or perfbench/baseline_layers.json with
``--trace 1``.  Runs are made one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(spec, workload, seed, trace):
    cmd = [sys.executable if spec["command"][0] == "python3"
           else spec["command"][0], *spec["command"][1:],
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    took = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["run_s"] = took
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append")
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--baseline", action="store_true")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    table = {}
    for name in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(one_run(spec, name, seed, args.trace))
            r = runs[-1]
            print(f"{name} seed {seed}: correct {r['correct']} "
                  f"failed {r['failed']}/{r['attempted']} "
                  f"run {r['run_s']:.1f}s", file=sys.stderr, flush=True)
        rows = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med, share = spread(values)
            rows[m["name"]] = {"median": med, "iqr_share": share,
                               "unit": m["unit"], "values": values}
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s":
                flag = "ok" if share < bound / 3 else (
                    "WIDE" if share < bound else "OVER BOUND")
            print(f"{name:10s} {m['name']:40s} median {med:12.6g} "
                  f"{m['unit']:8s} spread {share:7.4f}"
                  f"{'' if bound is None else f'  bound {bound}'} {flag}")
        table[name] = {"runs": len(runs),
                       "all_correct": all(r["correct"] for r in runs),
                       "run_s_max": max(r["run_s"] for r in runs),
                       "metrics": rows}
    if args.baseline:
        out = {
            "machine": {"nproc": os.cpu_count(),
                        "python": platform.python_version(),
                        "platform": platform.platform()},
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "run_seconds": spec["run_seconds"],
            "workloads": table,
        }
        path = HERE / ("baseline_layers.json" if args.trace
                       else "baseline.json")
        path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
