"""Deterministic emission-intensity models.

Cross-polarized excitation of a neutral exciton populates a superposition
of the two fine-structure eigenstates.  Both components decay with the
same Purcell-enhanced lifetime tau while beating against each other at
the splitting frequency delta/hbar, so the intensity collected in the
orthogonal polarization is

    I(t) = exp(-t/tau) * sin^2(t * delta / 2 hbar) * sin^2(2 theta).

A trion has polarization-symmetric selection rules and emits a plain
exponential exp(-t/tau) with an instantaneous rise; the finite rise seen
on a detector comes entirely from the instrument response, which is
modeled as a unit-area Gaussian of given FWHM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import HBAR_UEV_PS, SourceParams, TransitionKind

FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))


@dataclass(frozen=True)
class PhiScanPoint:
    """Integrated line intensities at one excitation polarization angle."""

    phi_rad: float
    cavity_light: float
    qd_light: float

    def __post_init__(self):
        if self.cavity_light < 0 or self.qd_light < 0:
            raise ValueError("intensities must be non-negative")


def _check_nonnegative_time(t) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise ValueError("time must be >= 0 (no emission before the excitation pulse)")
    return arr


def exciton_amplitudes(t, source: SourceParams):
    """Eigenstate amplitudes (a_V', a_H') of the decaying exciton source at time t.

    Starting from the cavity-aligned superposition cos(theta)|V'> +
    sin(theta)|H'>, each component evolves with the phase of its energy,
    +delta/2 for V' and -delta/2 for H', and the shared amplitude decay
    exp(-t/2tau), so the total population is exp(-t/tau).
    """
    tt = _check_nonnegative_time(t)
    decay = np.exp(-tt / (2.0 * source.tau_ps))
    half = 0.5 * source.delta_fss_uev
    a_v = np.cos(source.theta_rad) * np.exp(-1j * half * tt / HBAR_UEV_PS) * decay
    a_h = np.sin(source.theta_rad) * np.exp(1j * half * tt / HBAR_UEV_PS) * decay
    return a_v, a_h


def exciton_cross_intensity(t, source: SourceParams):
    """Cross-polarized emission intensity of an exciton source at time t (closed form)."""
    tt = _check_nonnegative_time(t)
    beat = np.sin(tt * source.delta_fss_uev / (2.0 * HBAR_UEV_PS)) ** 2
    return np.exp(-tt / source.tau_ps) * beat * math.sin(2.0 * source.theta_rad) ** 2


def cross_intensity_integral(source: SourceParams) -> float:
    """Closed-form integral of the cross-polarized intensity over [0, inf).

    Equals sin^2(2 theta) * (tau/2) * r^2 / (1 + r^2) with r = delta*tau/hbar.
    """
    r = source.delta_fss_uev * source.tau_ps / HBAR_UEV_PS
    return math.sin(2.0 * source.theta_rad) ** 2 * 0.5 * source.tau_ps * r * r / (1.0 + r * r)


def peak_emission_delay(source: SourceParams) -> float:
    """First time t* > 0 at which the cross-polarized intensity peaks.

    Setting the derivative of exp(-t/tau) sin^2(t delta / 2 hbar) to zero
    gives tan(t delta / 2 hbar) = tau * delta / hbar on the first branch,
    solved here in closed form through the arctangent.
    """
    if source.delta_fss_uev <= 0:
        raise ValueError("no emission maximum exists for delta_fss = 0 (intensity is zero)")
    if source.tau_ps <= 0:
        raise ValueError(f"tau_ps must be > 0, got {source.tau_ps}")
    r = source.tau_ps * source.delta_fss_uev / HBAR_UEV_PS
    return 2.0 * HBAR_UEV_PS / source.delta_fss_uev * math.atan(r)


def gaussian_kernel(grid_step_ps: float, fwhm_ps: float):
    """Discrete unit-sum Gaussian kernel sampled on the given grid step.

    Returns (kernel, radius).  The kernel spans +/- 5 standard deviations;
    the sum normalization keeps discrete convolution exactly
    mass-preserving.
    """
    sigma = fwhm_ps * FWHM_TO_SIGMA
    radius = max(1, int(math.ceil(5.0 * sigma / grid_step_ps)))
    x = np.arange(-radius, radius + 1) * grid_step_ps
    k = np.exp(-0.5 * (x / sigma) ** 2)
    return k / k.sum(), radius


def phi_scan_model(phi_rad: float, params: SourceParams) -> PhiScanPoint:
    """Integrated line intensities versus excitation polarization angle phi, each at most 1.

    The cavity-rotated laser light vanishes when the excitation is along a
    cavity axis and is maximal at 45 degrees, hence sin^2(2 phi).  The QD
    line follows sin^2(2(theta - phi)) for an exciton (no cross-polarized
    emission when pumping an eigenstate) and is constant for a trion.
    """
    cavity = math.sin(2.0 * phi_rad) ** 2
    if params.kind is TransitionKind.EXCITON:
        qd = math.sin(2.0 * (params.theta_rad - phi_rad)) ** 2
    else:
        qd = 1.0
    return PhiScanPoint(phi_rad=phi_rad, cavity_light=cavity, qd_light=qd)
