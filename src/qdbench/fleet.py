"""Synthetic fleet generation for benchmark round-trip studies.

Draws per-source figures of merit from kind-level normal distributions
(the published fleet averages are the intended inputs) and converts them
into simulator parameters: the g2 target fixes the re-excitation
probability through g2 = 2 p2 / mu^2, and the indistinguishability target
fixes the dephasing knob.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SourceParams, exciton_source, trion_source


@dataclass(frozen=True)
class KindStats:
    g2_mean: float
    g2_std: float
    overlap_mean: float
    overlap_std: float
    brightness_mean: float
    brightness_std: float
    tau_mean_ps: float
    tau_std_ps: float


# Fleet-level statistics used as generator defaults (fractions, not %).
EXCITON_STATS = KindStats(
    g2_mean=0.0289, g2_std=0.0074,
    overlap_mean=0.928, overlap_std=0.011,
    brightness_mean=0.115, brightness_std=0.037,
    tau_mean_ps=252.0, tau_std_ps=25.0,
)
TRION_STATS = KindStats(
    g2_mean=0.0542, g2_std=0.0092,
    overlap_mean=0.895, overlap_std=0.028,
    brightness_mean=0.147, brightness_std=0.046,
    tau_mean_ps=180.0, tau_std_ps=17.0,
)
WAVELENGTH_MEAN_NM = 924.7
WAVELENGTH_STD_NM = 0.5


def p_two_photon_for_g2(g2: float, brightness: float) -> float:
    """Two-photon probability whose analytic g2 = 2 p2 / mu^2 hits the target.

    mu = brightness + p2, so p2 solves a fixed point reached in a few
    iterations for the small values involved.
    """
    p2 = 0.0
    for _ in range(50):
        mu = brightness + p2
        p2_new = 0.5 * g2 * mu * mu
        if abs(p2_new - p2) < 1e-15:
            return p2_new
        p2 = p2_new
    return p2


def draw_fleet(seed: int) -> list[SourceParams]:
    """Draw 7 excitons and 8 trions from ``EXCITON_STATS`` and ``TRION_STATS``.

    Draws are clipped to physically valid ranges, so the realized fleet
    means (what a round-trip benchmark must recover) are the means of the
    returned parameters, not exactly the configured ones.
    """
    rng = np.random.default_rng(seed)
    sources: list[SourceParams] = []

    def draw_common(stats: KindStats):
        g2 = float(np.clip(rng.normal(stats.g2_mean, stats.g2_std), 1e-4, 0.5))
        overlap = float(np.clip(rng.normal(stats.overlap_mean, stats.overlap_std), 0.5, 0.999))
        b = float(np.clip(rng.normal(stats.brightness_mean, stats.brightness_std), 0.02, 0.5))
        tau = float(np.clip(rng.normal(stats.tau_mean_ps, stats.tau_std_ps), 50.0, 1000.0))
        wl = float(rng.normal(WAVELENGTH_MEAN_NM, WAVELENGTH_STD_NM))
        return g2, overlap, b, tau, wl

    for i in range(7):
        g2, overlap, b, tau, wl = draw_common(EXCITON_STATS)
        delta = float(rng.uniform(5.0, 10.0))
        theta = math.degrees(rng.uniform(math.radians(20.0), math.radians(70.0)))
        sources.append(
            exciton_source(
                tau_ps=tau,
                delta_fss_uev=delta,
                theta_deg=theta,
                brightness_first_lens=b,
                p_two_photon=p_two_photon_for_g2(g2, b),
                wavelength_nm=wl,
                dephasing=1.0 - overlap,
                label=f"X{i + 1:02d}",
            )
        )
    for i in range(8):
        g2, overlap, b, tau, wl = draw_common(TRION_STATS)
        sources.append(
            trion_source(
                tau_ps=tau,
                brightness_first_lens=b,
                p_two_photon=p_two_photon_for_g2(g2, b),
                wavelength_nm=wl,
                dephasing=1.0 - overlap,
                label=f"T{i + 1:02d}",
            )
        )
    return sources


def analytic_g2(source: SourceParams) -> float:
    """g2 implied by the configured brightness and two-photon probability."""
    mu = source.brightness_first_lens + source.p_two_photon
    if mu <= 0:
        return 0.0
    return 2.0 * source.p_two_photon / mu**2
