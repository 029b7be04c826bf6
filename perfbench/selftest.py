"""Self-test of the benchmark at tiny pulse counts (about half a minute).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit
for every workload, that span self times add up to the traced wall time,
and that deliberately broken outputs are counted as failed operations.
Exits 0 when all checks hold.
"""

from __future__ import annotations

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import FLEET_SEED, WORKLOADS  # noqa: E402

TINY_PULSES = 200_000


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    work = os.path.join(ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    try:
        for workload in WORKLOADS:
            for trace, declared in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
                with open(os.devnull, "w") as devnull:
                    out = run.run(workload, seed=1, seconds=0, trace=trace, pulses=TINY_PULSES,
                                  work_dir=os.path.join(work, "run"), log=devnull)
                want = {m["name"]: m["unit"] for m in declared}
                got = {name: m["unit"] for name, m in out["metrics"].items()}
                if got != want:
                    errors.append(f"{workload} trace={trace}: metrics {sorted(got.items())} "
                                  f"!= declared {sorted(want.items())}")
                if not out["correct"]:
                    errors.append(f"{workload} trace={trace}: outputs failed their checks")

        # One thread: spans tile the wall.
        for workload in ("fleet_lossless", "clicks_save", "clicks_roundtrip"):
            result, _ = run.run_job(workload, 1, FLEET_SEED, TINY_PULSES,
                                    os.path.join(work, f"self-{workload}"), trace=True)
            self_sum = sum(result["layers"][f"{layer}.self_s"] for layer in tracing.LAYERS)
            if not math.isclose(self_sum, result["wall_s"], rel_tol=0.02, abs_tol=0.005):
                errors.append(f"{workload}: span self times sum to {self_sum:.4f} s, "
                              f"traced wall is {result['wall_s']:.4f} s")

        job = os.path.join(work, "broken")
        result, clean = run.run_job("clicks_roundtrip", 1, FLEET_SEED, TINY_PULSES, job, False)
        out, analysis = result["out"], result["analysis"]
        labels = [label for label, _ in result["sources"]]

        def edit(path, **changes):
            with open(path) as f:
                payload = json.load(f)
            payload.update(changes)
            with open(path, "w") as f:
                json.dump(payload, f)

        edit(os.path.join(out, labels[0], "fit.json"), converged=False)
        edit(os.path.join(out, labels[1], "classification.json"),
             kind={"exciton": "trion", "trion": "exciton"}[result["sources"][1][1]])
        edit(os.path.join(out, labels[2], "report.json"), tau_fit_ps=float("nan"))
        with open(os.path.join(out, "failures.json"), "w") as f:
            json.dump({labels[3]: "RuntimeError: injected"}, f)
        edit(os.path.join(analysis, labels[4], "hom_clicks_estimates.json"), v_raw=-1.0)
        clicks = os.path.join(out, labels[5], "hbt_clicks.csv")
        with open(clicks) as f:
            lines = f.readlines()
        with open(clicks, "w") as f:
            f.writelines(lines[:2] + lines[:1:-1])  # rows in reverse time order
        broken = checks.check_job(out, analysis, [tuple(s) for s in result["sources"]],
                                  clicks=True)
        if broken.failed != clean.failed + 6:
            errors.append(f"6 broken outputs counted as {broken.failed - clean.failed} failures: "
                          f"{broken.problems}")
        if broken.digest == clean.digest:
            errors.append("broken outputs left the artifact digest unchanged")
    finally:
        run.remove_work_dir(work)

    for e in errors:
        print(f"selftest: {e}", file=sys.stderr)
    print("selftest: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
