"""qdbench benchmark: run one workload as repeated batch jobs and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each batch job is a fresh Python
process (``perfbench/job.py``) that imports qdbench from ``src/``, writes the
workload's config and drives ``qdbench.cli.main``.  Jobs run one after
another from this single launcher (a closed loop with one client) until
``--seconds`` have passed, and at least three times.  Every job's outputs
are checked (saved click files in the first job only), and all jobs of a
run, which share a seed, must write byte-identical artifacts.

With ``--trace 0`` the last line reports the end-to-end metrics, each the
median over jobs.  With ``--trace 1`` untraced and traced jobs alternate;
the last line reports the per-layer metrics (medians over traced jobs) and
``trace.overhead_s``, the traced minus the untraced median wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import FLEET_SEED, WORKLOADS  # noqa: E402

MIN_JOBS = 3
JOB_TIMEOUT_S = 150

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
    ("ok_frac", "ratio"),
)


class JobError(RuntimeError):
    pass


def remove_work_dir(path: str):
    """Remove a run's scratch directory, and its parent once no other run uses it."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(path))
    except OSError:
        pass


def run_job(workload: str, seed: int, fleet_seed: int, pulses: int, job_dir: str,
            trace: bool, check_clicks: bool = True) -> tuple[dict, checks.JobCheck]:
    """Run one batch job in a fresh process and check what it wrote.

    ``check_clicks`` False skips parsing the saved click files; the artifact
    digest still covers their bytes.
    """
    os.makedirs(job_dir)
    cmd = [sys.executable, os.path.join(HERE, "job.py"), "--workload", workload,
           "--seed", str(seed), "--fleet-seed", str(fleet_seed), "--pulses", str(pulses),
           "--dir", job_dir]
    with open(os.path.join(job_dir, "job.log"), "w") as log:
        t0 = time.monotonic()
        proc = subprocess.run(cmd + ["--t0", repr(t0)] + (["--trace"] if trace else []),
                              stdout=log, stderr=subprocess.STDOUT, timeout=JOB_TIMEOUT_S,
                              cwd=ROOT)
    if proc.returncode != 0:
        with open(os.path.join(job_dir, "job.log")) as f:
            tail = f.read()[-2000:]
        raise JobError(f"job exited with {proc.returncode}:\n{tail}")
    with open(os.path.join(job_dir, "result.json")) as f:
        result = json.load(f)
    check = checks.check_job(result["out"], result["analysis"],
                             [tuple(s) for s in result["sources"]],
                             clicks=result["save_clicks"] and check_clicks)
    if trace:
        with open(os.path.join(job_dir, "spans.json")) as f:
            result["layers"] = tracing.layer_metrics(json.load(f))
        result["layers"]["pipeline.bytes_written"] = check.bytes_written
        result["layers"]["pipeline.reanalysis_pairs_moved"] = check.pairs_moved
    return result, check


def run(workload: str, seed: int, seconds: float, trace: bool, fleet_seed: int = FLEET_SEED,
        pulses: int | None = None, work_dir: str | None = None, log=sys.stderr) -> dict:
    """Run jobs for ``seconds`` and return the result object printed by ``main``."""
    pulses = pulses or WORKLOADS[workload].pulses
    work_dir = work_dir or os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    untraced, traced = [], []
    digests, problems = set(), []
    attempted = failed = 0
    start = time.monotonic()
    try:
        while True:
            n = len(untraced) + len(traced)
            want_trace = trace and n % 2 == 1
            # Click files are parsed in the first job only: all jobs must
            # write the same bytes, which the digest comparison checks.
            result, check = run_job(workload, seed, fleet_seed, pulses,
                                    os.path.join(work_dir, f"job-{n}"), want_trace,
                                    check_clicks=n == 0)
            shutil.rmtree(os.path.join(work_dir, f"job-{n}"))
            (traced if want_trace else untraced).append(result)
            attempted += check.attempted
            failed += check.failed
            problems += check.problems
            digests.add(check.digest)
            print(f"job {n} {'traced' if want_trace else 'untraced'}: "
                  f"wall {result['wall_s']:.3f} s, setup {result['setup_s']:.3f} s, "
                  f"cpu {result['cpu_s']:.3f} s, rss {result['peak_rss_mib']:.1f} MiB, "
                  f"failed {check.failed}/{check.attempted}", file=log)
            if n + 1 >= (2 * MIN_JOBS if trace else MIN_JOBS) and \
                    time.monotonic() - start >= seconds:
                break
    finally:
        remove_work_dir(work_dir)
    for p in sorted(set(problems)):
        print(f"check failed: {p}", file=log)
    if len(digests) > 1:
        print(f"artifacts differ between jobs of one seed: {len(digests)} digests", file=log)

    def median(key, results=untraced):
        return statistics.median(r[key] for r in results)

    if trace:
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name, _, _ in tracing.PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = median("wall_s", traced) - median("wall_s")
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        metrics = {key: median(key) for key, _ in END_TO_END if key != "ok_frac"}
        metrics["ok_frac"] = 1.0 - failed / attempted
        units = dict(END_TO_END)
    return {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="run seed (qdbench --seed)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fleet-seed", type=int, default=FLEET_SEED,
                        help="seed of the drawn 15-source fleet")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qdbench", "cli.py")):
        print(f"perfbench: no qdbench sources under {ROOT}/src", file=sys.stderr)
        return 1
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.fleet_seed)
    except (JobError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
