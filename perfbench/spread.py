"""Run-to-run spread of the end-to-end metrics, and the baseline record.

    python3 perfbench/spread.py --workloads fleet_default fleet_lossless \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--trace-seed 1] [--out FILE]

Runs ``perfbench/run.py`` once per workload and seed, with the
``run_seconds`` of ``BENCHMARK.json``, and reports for every end-to-end
metric the median, the quartiles (``statistics.quantiles(n=4)``) and the
quartile distance as a share of the median next to the metric's bound.
With ``--trace-seed`` it also makes one traced run per workload.  With
``--out`` it writes all of it, with a description of the machine, as JSON.
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
ROOT = os.path.dirname(HERE)


def machine() -> dict:
    import numpy

    with open("/proc/cpuinfo") as f:
        model = next((line.split(":", 1)[1].strip() for line in f
                      if line.startswith("model name")), "")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"machine": machine(), "run_seconds": bench["run_seconds"], "seeds": args.seeds,
              "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, seed, bench["run_seconds"], 0) for seed in args.seeds]
        entry = {"correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs), "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2 if q2 else 0.0
            entry["end_to_end"][name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                                         "bound": bound, "values": values}
            print(f"{workload:18s} {name:14s} median {q2:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:7.2%} (bound {bound:.0%})", flush=True)
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, bench["run_seconds"], 1)
            entry["traced"] = {name: m["value"] for name, m in traced["metrics"].items()}
        record["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
