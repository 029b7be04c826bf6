#!/usr/bin/env python3
"""Wall time of the default fleet run on one thread, on two, and split over two processes.

Runs ``run_pipeline`` in this process on the 15 sources of
``draw_fleet(2026)`` at the default setup, run seed 1, writing every
artifact into a temporary directory.  Each round runs one thread, then two,
then two processes, so drifts in the host's speed fall on all alike.
Each process analyses every second source with ``analyze_source``, writing
its artifacts, after a warm-up run of its sources at 1e5 pulses; the two
start together, once both are warm, and the slower one's wall time counts.
Reports every round's wall time and CPU time (user + system, of the whole
process, or summed over both processes), their medians, the speed-up (the
median 1-thread wall time over the median 2-thread one) and the process
speed-up (over the median 2-process one).

``--pulses`` sets the pulses per train (1e7, as the benchmark's
``fleet_default``).  The qdbench measured is the one on the import path, so
the same script measures any checkout::

    PYTHONPATH=src python scripts/thread_scaling.py --out out/thread_scaling

writes ``thread_scaling.json`` into the ``--out`` directory.
"""

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from qdbench.config import FleetConfig
from qdbench.fleet import draw_fleet
from qdbench.model import SetupParams
from qdbench.pipeline import analyze_source, file_header, run_pipeline

FLEET_SEED = 2026
RUN_SEED = 1
THREADS = (1, 2)
PROCESSES = 2
WARMUP_PULSES = 100_000


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


#: The barrier of the process runs, set in each worker as it starts.
_barrier = None


def _share_barrier(barrier):
    global _barrier
    _barrier = barrier


def _process_part(config: FleetConfig, pulses: int, part: int, out: str) -> tuple[float, float]:
    """Warm up, wait for every process, then time ``analyze_source`` over this part's sources."""
    sources = list(enumerate(config.sources))[part::PROCESSES]
    header = file_header(RUN_SEED, config.config_hash)
    try:
        for index, source in sources:
            analyze_source(source, config.setup, RUN_SEED, index, WARMUP_PULSES)
    except BaseException:
        _barrier.abort()  # the other processes stop waiting, and fail too
        raise
    _barrier.wait()
    cpu = time.process_time()
    start = time.perf_counter()
    for index, source in sources:
        analyze_source(source, config.setup, RUN_SEED, index, pulses, out_dir=out, header=header)
    return time.perf_counter() - start, time.process_time() - cpu


def timed_processes(config: FleetConfig, pulses: int) -> dict[str, float]:
    """The slower process's wall seconds and both processes' CPU seconds, the fleet split in two."""
    context = multiprocessing.get_context("spawn")
    with (tempfile.TemporaryDirectory() as out,
          ProcessPoolExecutor(PROCESSES, mp_context=context, initializer=_share_barrier,
                              initargs=(context.Barrier(PROCESSES),)) as pool):
        parts = [pool.submit(_process_part, config, pulses, part, out)
                 for part in range(PROCESSES)]
        walls, cpus = zip(*(part.result() for part in parts))
    return {"wall_s": round(max(walls), 3), "cpu_s": round(sum(cpus), 3)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pulses", type=int, default=10_000_000)
    parser.add_argument("--repeats", type=int, default=5, help="alternated rounds")
    parser.add_argument("--out", default="out/thread_scaling")
    args = parser.parse_args()

    config = FleetConfig.from_parts(draw_fleet(FLEET_SEED), SetupParams())
    runs = {threads: [] for threads in THREADS}
    process_runs = []
    for _ in range(args.repeats):
        for threads in THREADS:
            runs[threads].append(timed_run(config, args.pulses, threads))
            print(threads, runs[threads][-1], flush=True)
        process_runs.append(timed_processes(config, args.pulses))
        print(f"{PROCESSES} processes", process_runs[-1], flush=True)
    medians = {threads: {key: statistics.median(run[key] for run in runs[threads])
                         for key in ("wall_s", "cpu_s")} for threads in THREADS}
    process_median = {key: statistics.median(run[key] for run in process_runs)
                      for key in ("wall_s", "cpu_s")}
    result = {
        "host": f"{len(os.sched_getaffinity(0))} CPUs, {platform.system()}, Python "
                f"{platform.python_version()}, numpy {np.__version__}",
        "pulses": args.pulses,
        "runs": {str(threads): runs[threads] for threads in THREADS},
        "median": {str(threads): medians[threads] for threads in THREADS},
        "speedup": round(medians[1]["wall_s"] / medians[2]["wall_s"], 3),
        "process_runs": process_runs,
        "process_median": process_median,
        "process_speedup": round(medians[1]["wall_s"] / process_median["wall_s"], 3),
    }
    print("speed-up", result["speedup"], "process speed-up", result["process_speedup"],
          flush=True)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "thread_scaling.json"), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
