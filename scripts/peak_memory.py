#!/usr/bin/env python3
"""Peak memory of the pipeline, per source and per run.

Three measurements, on the sources of ``draw_fleet(2026)`` at run seed 1:

- the ``tracemalloc`` peak of ``pipeline.analyze_source`` for each source,
  one source at a time: with no artifacts written at the default setup
  with 1e7 and 1e8 pulses and with lossless detection at 4e6 and 1e8
  pulses, and with every artifact and ``--save-clicks`` at the default
  setup with 1.6e7 pulses and lossless at 2e6 pulses;
- the ``tracemalloc`` peak of ``qdbench simulate`` on the whole fleet, in
  this process, at the default setup with 2e6 and 1.6e7 pulses: it writes
  one train at a time, so this is the peak of its largest train;
- the ``ru_maxrss`` of a fresh process that runs ``run_pipeline`` on the
  whole fleet, writing artifacts, at the sizes of the benchmark's three
  workloads: default setup at 1e7 pulses on every available CPU, lossless
  at 4e6 pulses on one thread, and lossless at 2e6 pulses with
  ``--save-clicks`` on one thread.

``--scale`` multiplies every pulse count, for a quick run.  The qdbench
measured is the one on the import path, so the same script measures any
checkout::

    PYTHONPATH=src python scripts/peak_memory.py --out out/peak_memory

writes ``peak_memory.json`` into the ``--out`` directory.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np

from qdbench.cli import main as qdbench_main
from qdbench.config import FleetConfig, write_config
from qdbench.fleet import draw_fleet
from qdbench.model import SetupParams
from qdbench.pipeline import analyze_source, run_pipeline

FLEET_SEED = 2026
RUN_SEED = 1
LOSSLESS = SetupParams(eta_setup=1.0, eta_det=1.0)
#: name -> (setup, pulses, save_clicks) of the per-source tracemalloc peaks.
TRACEMALLOC_SIZES = {
    "default_1e7": (SetupParams(), 10_000_000, False),
    "default_1e8": (SetupParams(), 100_000_000, False),
    "lossless_4e6": (LOSSLESS, 4_000_000, False),
    "lossless_1e8": (LOSSLESS, 100_000_000, False),
    "save_clicks_default_1.6e7": (SetupParams(), 16_000_000, True),
    "save_clicks_lossless_2e6": (LOSSLESS, 2_000_000, True),
}
#: name -> (setup, pulses) of the tracemalloc peaks of ``qdbench simulate``.
SIMULATE_SIZES = {
    "simulate_default_2e6": (SetupParams(), 2_000_000),
    "simulate_default_1.6e7": (SetupParams(), 16_000_000),
}
#: name -> (setup, pulses, threads, save_clicks) of the whole-run ru_maxrss.
RUSAGE_SIZES = {
    "fleet_default": (SetupParams(), 10_000_000, len(os.sched_getaffinity(0)), False),
    "fleet_lossless": (LOSSLESS, 4_000_000, 1, False),
    "clicks_save": (LOSSLESS, 2_000_000, 1, True),
}


def _traced_peak_mib(run) -> float:
    """The tracemalloc peak (MiB) of ``run()``."""
    tracemalloc.start()
    try:
        run()
        return round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
    finally:
        tracemalloc.stop()


def source_peaks(setup: SetupParams, pulses: int, save_clicks: bool) -> dict[str, float]:
    """The tracemalloc peak (MiB) of analysing each fleet source on its own.

    With ``save_clicks`` every artifact and both click files are written.
    """
    peaks = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = tmp if save_clicks else None
        for index, source in enumerate(draw_fleet(FLEET_SEED)):
            peaks[source.label] = _traced_peak_mib(
                lambda: analyze_source(source, setup, RUN_SEED, index, pulses, out,
                                       save_clicks=save_clicks))
    return peaks


def simulate_peak(setup: SetupParams, pulses: int) -> float:
    """The tracemalloc peak (MiB) of ``qdbench simulate`` on the whole fleet."""
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "fleet.cfg")
        write_config(FleetConfig.from_parts(draw_fleet(FLEET_SEED), setup), config)
        argv = ["simulate", "--config", config, "--pulses", str(pulses),
                "--seed", str(RUN_SEED), "--out", os.path.join(tmp, "clicks")]
        with contextlib.redirect_stdout(io.StringIO()):
            return _traced_peak_mib(lambda: qdbench_main(argv))


def run_rusage(name: str, scale: float) -> dict[str, float]:
    """Run one fleet in this process; its ru_maxrss and the CPU time of the run."""
    setup, pulses, threads, save = RUSAGE_SIZES[name]
    config = FleetConfig.from_parts(draw_fleet(FLEET_SEED), setup)
    with tempfile.TemporaryDirectory() as out:
        before = resource.getrusage(resource.RUSAGE_SELF)
        run_pipeline(config, max(1, int(pulses * scale)), RUN_SEED, out_dir=out, threads=threads,
                     save_clicks=save)
        after = resource.getrusage(resource.RUSAGE_SELF)
    return {"maxrss_mib": round(after.ru_maxrss / 1024.0, 1),
            "user_s": round(after.ru_utime - before.ru_utime, 2),
            "sys_s": round(after.ru_stime - before.ru_stime, 2)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every pulse count by this factor")
    parser.add_argument("--repeats", type=int, default=3,
                        help="fresh processes per run_pipeline size")
    parser.add_argument("--out", default="out/peak_memory")
    parser.add_argument("--rusage", choices=sorted(RUSAGE_SIZES), help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.rusage:
        print(json.dumps(run_rusage(args.rusage, args.scale)))
        return

    result = {
        "host": f"{len(os.sched_getaffinity(0))} CPUs, {platform.system()}, Python "
                f"{platform.python_version()}, numpy {np.__version__}",
        "scale": args.scale,
        "tracemalloc_peak_mib": {},
        "simulate_tracemalloc_peak_mib": {},
        "ru_maxrss": {},
    }
    # Before anything grows this process: a child starts out with the
    # ru_maxrss of the process that spawned it.
    for name in RUSAGE_SIZES:
        runs = []
        for _ in range(args.repeats):
            proc = subprocess.run([sys.executable, __file__, "--rusage", name,
                                   "--scale", repr(args.scale)],
                                  capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout))
        result["ru_maxrss"][name] = runs
        print(name, runs, flush=True)
    for name, (setup, pulses, save_clicks) in TRACEMALLOC_SIZES.items():
        result["tracemalloc_peak_mib"][name] = source_peaks(
            setup, max(1, int(pulses * args.scale)), save_clicks)
        print(name, result["tracemalloc_peak_mib"][name], flush=True)
    for name, (setup, pulses) in SIMULATE_SIZES.items():
        result["simulate_tracemalloc_peak_mib"][name] = simulate_peak(
            setup, max(1, int(pulses * args.scale)))
        print(name, result["simulate_tracemalloc_peak_mib"][name], flush=True)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "peak_memory.json"), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
