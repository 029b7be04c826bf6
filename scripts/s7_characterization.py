#!/usr/bin/env python3
"""Characterize a single exciton source end to end.

Simulates an S7-like exciton (tau = 252 ps, splitting 8.58 ueV, theta =
45 deg) under the default detection chain, then recovers purity,
indistinguishability, brightness, lifetime and splitting, writing all
plot-ready artifacts to the output directory.
"""

import argparse

from qdbench.config import FleetConfig
from qdbench.model import SetupParams, exciton_source
from qdbench.pipeline import run_pipeline


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pulses", type=int, default=2_000_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="out/s7")
    args = parser.parse_args()

    source = exciton_source(
        tau_ps=252.0,
        delta_fss_uev=8.58,
        theta_deg=45.0,
        brightness_first_lens=0.136,
        p_two_photon=0.00022,
        wavelength_nm=925.0,
        dephasing=0.059,
        label="S7",
    )
    config = FleetConfig.from_parts([source], SetupParams(eta_setup=1.0, eta_det=1.0))
    result = run_pipeline(config, n_pulses=args.pulses, seed=args.seed, out_dir=args.out)
    (report,) = result.reports
    print(f"artifacts in {args.out}/")
    print(f"g2(0)              = {report.g2:.4f} +- {report.g2_err:.4f}")
    print(f"raw visibility     = {report.v_raw:.4f} +- {report.v_raw_err:.4f}")
    print(f"corrected overlap  = {report.overlap_corrected:.4f} +- {report.overlap_err:.4f}")
    print(f"first-lens bright. = {report.first_lens_brightness:.4f}")
    print(f"lifetime           = {report.tau_fit_ps:.1f} +- {report.tau_fit_err_ps:.1f} ps")
    print(f"splitting          = {report.delta_fss_fit_uev:.3f} +- "
          f"{report.delta_fss_fit_err_uev:.3f} ueV")


if __name__ == "__main__":
    main()
