#!/usr/bin/env python3
"""Wall time of the default fleet run on one thread and on two.

Runs ``run_pipeline`` in this process on the 15 sources of
``draw_fleet(2026)`` at the default setup, run seed 1, writing every
artifact into a temporary directory.  Each round runs one thread, then two,
so drifts in the host's speed fall on both alike.  Reports every round's
wall time and CPU time (user + system, of the whole process), their medians
and the speed-up, the median 1-thread wall time over the median 2-thread
one.

``--pulses`` sets the pulses per train (1e7, as the benchmark's
``fleet_default``).  The qdbench measured is the one on the import path, so
the same script measures any checkout::

    PYTHONPATH=src python scripts/thread_scaling.py --out out/thread_scaling

writes ``thread_scaling.json`` into the ``--out`` directory.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import tempfile
import time

import numpy as np

from qdbench.config import FleetConfig
from qdbench.fleet import draw_fleet
from qdbench.model import SetupParams
from qdbench.pipeline import run_pipeline

FLEET_SEED = 2026
RUN_SEED = 1
THREADS = (1, 2)


def timed_run(config: FleetConfig, pulses: int, threads: int) -> dict[str, float]:
    """Wall and CPU seconds of one ``run_pipeline`` call that writes its artifacts."""
    with tempfile.TemporaryDirectory() as out:
        cpu = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        result = run_pipeline(config, pulses, RUN_SEED, out_dir=out, threads=threads)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
    if result.failures:
        raise RuntimeError(f"sources failed: {sorted(result.failures)}")
    cpu_s = after.ru_utime - cpu.ru_utime + after.ru_stime - cpu.ru_stime
    return {"wall_s": round(wall, 3), "cpu_s": round(cpu_s, 3)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pulses", type=int, default=10_000_000)
    parser.add_argument("--repeats", type=int, default=5, help="alternated rounds")
    parser.add_argument("--out", default="out/thread_scaling")
    args = parser.parse_args()

    config = FleetConfig.from_parts(draw_fleet(FLEET_SEED), SetupParams())
    runs = {threads: [] for threads in THREADS}
    for _ in range(args.repeats):
        for threads in THREADS:
            runs[threads].append(timed_run(config, args.pulses, threads))
            print(threads, runs[threads][-1], flush=True)
    medians = {threads: {key: statistics.median(run[key] for run in runs[threads])
                         for key in ("wall_s", "cpu_s")} for threads in THREADS}
    result = {
        "host": f"{len(os.sched_getaffinity(0))} CPUs, {platform.system()}, Python "
                f"{platform.python_version()}, numpy {np.__version__}",
        "pulses": args.pulses,
        "runs": {str(threads): runs[threads] for threads in THREADS},
        "median": {str(threads): medians[threads] for threads in THREADS},
        "speedup": round(medians[1]["wall_s"] / medians[2]["wall_s"], 3),
    }
    print("speed-up", result["speedup"], flush=True)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "thread_scaling.json"), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
