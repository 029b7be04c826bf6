#!/usr/bin/env python3
"""Benchmark a synthetic fleet of fifteen single-photon sources.

Draws 7 exciton and 8 trion sources from kind-level performance
distributions, runs the full pipeline on each, and compares the recovered
fleet statistics against the generator truth.
"""

import argparse

import numpy as np

from qdbench.config import FleetConfig, write_config
from qdbench.fleet import analytic_g2, draw_fleet
from qdbench.model import SetupParams, TransitionKind
from qdbench.pipeline import run_pipeline
from qdbench.report import render_text


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pulses", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=31337)
    parser.add_argument("--fleet-seed", type=int, default=2026)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--out", default="out/fleet")
    args = parser.parse_args()

    sources = draw_fleet(seed=args.fleet_seed)
    config = FleetConfig.from_parts(sources, SetupParams())
    result = run_pipeline(
        config, n_pulses=args.pulses, seed=args.seed, out_dir=args.out,
        threads=args.threads,
    )
    write_config(config, f"{args.out}/fleet.cfg")
    print(render_text(result.summary, result.reports, None))

    truth = {s.label: s for s in sources}
    print("kind-level recovery (recovered vs generator truth):")
    for kind, name in ((TransitionKind.EXCITON, "exciton"), (TransitionKind.TRION, "trion")):
        reps = [r for r in result.reports if r.kind is kind]
        tt = [truth[r.label] for r in reps]
        print(
            f"  {name}: g2 {np.mean([r.g2 for r in reps]):.4f} vs "
            f"{np.mean([analytic_g2(t) for t in tt]):.4f} | "
            f"M {np.mean([r.overlap_corrected for r in reps]):.4f} vs "
            f"{np.mean([t.overlap for t in tt]):.4f} | "
            f"B {np.mean([r.first_lens_brightness for r in reps]):.4f} vs "
            f"{np.mean([t.brightness_first_lens for t in tt]):.4f}"
        )
    if result.failures:
        print("failures:", result.failures)


if __name__ == "__main__":
    main()
