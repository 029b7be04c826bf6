"""One batch job: a fresh process that runs a workload through ``qdbench.cli.main``.

    python3 perfbench/job.py --workload NAME --seed N --dir JOB_DIR --t0 T [--trace]

``--t0`` is the ``time.monotonic()`` reading of the launching process just
before it started this one, so ``setup_s`` covers interpreter start, the
qdbench import and writing the workload's config.  The job writes
``result.json`` (and, traced, ``spans.json``) into JOB_DIR; the launcher
checks the outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--fleet-seed", type=int, required=True)
    parser.add_argument("--pulses", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import qdbench.cli

    if not os.path.abspath(qdbench.cli.__file__).startswith(SRC + os.sep):
        print(f"perfbench: qdbench imported from {qdbench.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 1
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    config = os.path.join(args.dir, "fleet.cfg")
    sources = workloads.write_config(workload, args.fleet_seed, config)
    setup_s = time.monotonic() - args.t0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    out, analysis = os.path.join(args.dir, "out"), os.path.join(args.dir, "analysis")
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = time.perf_counter()
    workloads.run_cli(qdbench.cli.main, workload, config, [label for label, _ in sources],
                      args.seed, args.pulses, out, analysis)
    wall_s = time.perf_counter() - w0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mib": ru1.ru_maxrss / 1024.0,
        "sources": sources,
        "out": out,
        "analysis": analysis if workload.roundtrip else None,
        "save_clicks": workload.save_clicks,
    }
    with open(os.path.join(args.dir, "result.json"), "w") as f:
        json.dump(result, f)
    if tracer is not None:
        with open(os.path.join(args.dir, "spans.json"), "w") as f:
            json.dump(tracer.spans, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
