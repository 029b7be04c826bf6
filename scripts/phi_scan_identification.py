#!/usr/bin/env python3
"""Identify transition types from polarization-rotation scans.

Generates noisy scans of the cavity-rotated laser line and the QD line
for one exciton and one trion, classifies both, and writes the scan
points (plot-ready) plus the decisions.
"""

import argparse
import math
import os

import numpy as np

from qdbench.dynamics import PhiScanPoint, phi_scan_model
from qdbench.inference import classify_transition
from qdbench.model import exciton_source, trion_source
from qdbench.pipeline import write_table


def scan(source, rng, n_angles=25, noise=0.05):
    points = []
    for phi in np.linspace(0.0, math.pi, n_angles):
        clean = phi_scan_model(float(phi), source, 1.0, 1.0)
        points.append(PhiScanPoint(
            phi_rad=clean.phi_rad,
            cavity_light=clean.cavity_light * max(0.0, 1 + noise * rng.standard_normal()),
            qd_light=clean.qd_light * max(0.0, 1 + noise * rng.standard_normal()),
        ))
    return points


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--noise", type=float, default=0.05)
    parser.add_argument("--out", default="out/phi_scan")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    os.makedirs(args.out, exist_ok=True)
    sources = [
        exciton_source(252.0, 8.58, math.radians(30.0), label="S5-like"),
        trion_source(164.9, label="S13-like"),
    ]
    for source in sources:
        points = scan(source, rng, noise=args.noise)
        path = os.path.join(args.out, f"{source.label}_scan.csv")
        write_table(path, None, ("phi_rad", "cavity_light", "qd_light"),
                    zip(*((p.phi_rad, p.cavity_light, p.qd_light) for p in points)))
        res = classify_transition(points)
        theta = (
            f", theta = {math.degrees(res.theta_est_rad):.1f} deg"
            if res.theta_est_rad is not None
            else ""
        )
        print(
            f"{source.label}: classified {res.kind.value} "
            f"(depth {res.modulation_depth:.3f}{theta}) -> {path}"
        )


if __name__ == "__main__":
    main()
