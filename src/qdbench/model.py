"""Physical constants, parameter records and validation.

Internal units are fixed throughout the package: times in picoseconds,
energies in micro-eV, wavelengths in nanometers, rates in counts per
second unless a field name says otherwise.  In these units the reduced
Planck constant is of order 10^2 and every quantity of interest
(lifetimes ~10^2-10^3 ps, splittings ~10 ueV) is order unity, so no
rescaling is needed anywhere downstream.

All parameter types are frozen dataclasses and can be shared freely
between threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

#: Reduced Planck constant in ueV * ps.  Fixed, never configurable.
HBAR_UEV_PS = 658.2119569

_TWO_PI = 2.0 * math.pi


class TransitionKind(enum.Enum):
    """Which optical transition drives the source."""

    EXCITON = "exciton"
    TRION = "trion"


class SourceValidationError(ValueError):
    """Raised when a parameter record violates one or more invariants.

    Carries the complete list of violations so a config loader can report
    everything at once instead of stopping at the first problem.
    """

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class SourceParams:
    """Complete description of one single-photon source.

    ``tau_ps`` is the radiative lifetime of either kind.  An exciton also
    has a fine-structure splitting ``delta_fss_uev``: its two eigenstates
    sit at +/- half of it, and their mean energy is a global phase with no
    observable effect, so it is not a parameter.  ``theta_rad`` is the
    angle between the cavity polarization axis and the exciton dipole
    axis; the emission depends on it only through sin^2(2*theta), so it is
    canonicalized into [0, pi).  A trion has neither, and leaves both None.

    ``brightness_first_lens`` is the probability of collecting a photon
    per excitation pulse at the first lens; it is capped at 0.5 because a
    cross-polarized setup rejects half of an unpolarized emission.
    ``p_two_photon`` is the per-pulse probability of a re-excitation
    event producing a second photon.  ``dephasing`` is a phenomenological
    knob d in [0, 1]; the photon mean wavepacket overlap used by the
    interference simulation is M = 1 - d.
    """

    kind: TransitionKind
    tau_ps: float
    delta_fss_uev: float | None = None
    theta_rad: float | None = None
    brightness_first_lens: float = 0.0
    p_two_photon: float = 0.0
    wavelength_nm: float = 924.7
    dephasing: float = 0.0
    label: str = ""

    def __post_init__(self):
        if self.theta_rad is not None:
            theta = float(self.theta_rad) % math.pi
            if theta >= math.pi:
                # float modulo of a tiny negative angle rounds up to pi itself
                theta = 0.0
            object.__setattr__(self, "theta_rad", theta)

    @property
    def overlap(self) -> float:
        """Mean wavepacket overlap implied by the dephasing knob."""
        return 1.0 - self.dephasing


@dataclass(frozen=True)
class SetupParams:
    """Excitation and detection chain parameters.

    Defaults follow a pulsed resonant-excitation setup: 15 ps pulses at
    81 MHz, ~40% setup transmission, ~30% detector efficiency and 53 ps
    FWHM Gaussian detector jitter.  The two-photon interferometer's path
    imbalance is not a setting: it is one repetition period, the one delay
    at which the long photon of pulse k meets the short photon of pulse
    k + 1.
    """

    rep_rate_mhz: float = 81.0
    pulse_fwhm_ps: float = 15.0
    eta_setup: float = 0.40
    eta_det: float = 0.30
    jitter_fwhm_ps: float = 53.0
    laser_leak_per_pulse: float = 0.0
    dark_rate_cps: float = 0.0

    @property
    def rep_period_ps(self) -> float:
        return 1.0e6 / self.rep_rate_mhz

    @property
    def eta_total(self) -> float:
        """Combined photon survival probability, setup times detector."""
        return self.eta_setup * self.eta_det


def fss_period(delta_fss_uev: float) -> float:
    """Full period (ps) of the cross-polarized intensity beat.

    The emission is modulated by sin^2(t * delta / 2 hbar), whose period
    is 2*pi*hbar/delta.
    """
    if delta_fss_uev <= 0:
        raise ValueError(f"delta_fss must be > 0 to define a beat period, got {delta_fss_uev}")
    return _TWO_PI * HBAR_UEV_PS / delta_fss_uev


def source_violations(params: SourceParams) -> list[str]:
    """Return the complete list of invariant violations (empty if valid), NaN and inf included."""
    errs: list[str] = []
    who = params.label or "source"

    if not 0 < params.tau_ps < math.inf:
        errs.append(f"{who}: tau_ps must be finite and > 0, got {params.tau_ps}")
    if params.kind is TransitionKind.EXCITON:
        if params.delta_fss_uev is None or params.theta_rad is None:
            errs.append(f"{who}: an exciton needs delta_fss_uev and theta_rad")
        else:
            if not 0 <= params.delta_fss_uev < math.inf:
                errs.append(f"{who}: delta_fss_uev must be finite and >= 0, "
                            f"got {params.delta_fss_uev}")
            if not (0.0 <= params.theta_rad < math.pi):
                errs.append(f"{who}: theta_rad must lie in [0, pi), got {params.theta_rad}")
    elif params.kind is TransitionKind.TRION:
        if params.delta_fss_uev is not None or params.theta_rad is not None:
            errs.append(f"{who}: a trion has no delta_fss_uev or theta_rad")
    else:
        errs.append(f"{who}: unknown transition kind {params.kind!r}")

    b = params.brightness_first_lens
    b_valid = 0.0 <= b <= 0.5
    if not b_valid:
        errs.append(
            f"{who}: brightness_first_lens must lie in [0, 0.5] "
            f"(cross-polarization cap), got {b}"
        )
    if not params.p_two_photon >= 0:
        errs.append(f"{who}: p_two_photon must be >= 0, got {params.p_two_photon}")
    elif b_valid and params.p_two_photon > b:
        errs.append(
            f"{who}: p_two_photon ({params.p_two_photon}) cannot exceed "
            f"brightness_first_lens ({b})"
        )
    if not 0 < params.wavelength_nm < math.inf:
        errs.append(f"{who}: wavelength_nm must be finite and > 0, got {params.wavelength_nm}")
    if not (0.0 <= params.dephasing <= 1.0):
        errs.append(f"{who}: dephasing must lie in [0, 1], got {params.dephasing}")
    return errs


def validate_source(params: SourceParams) -> SourceParams:
    """Return ``params`` unchanged if valid, else raise with all violations."""
    errs = source_violations(params)
    if errs:
        raise SourceValidationError(errs)
    return params


def setup_violations(setup: SetupParams) -> list[str]:
    """Return the complete list of invariant violations (empty if valid), NaN and inf included."""
    errs: list[str] = []
    if not 0 < setup.rep_rate_mhz < math.inf:
        errs.append(f"setup: rep_rate_mhz must be finite and > 0, got {setup.rep_rate_mhz}")
    if not 0 < setup.pulse_fwhm_ps < math.inf:
        errs.append(f"setup: pulse_fwhm_ps must be finite and > 0, got {setup.pulse_fwhm_ps}")
    if not 0 <= setup.jitter_fwhm_ps < math.inf:
        errs.append(f"setup: jitter_fwhm_ps must be finite and >= 0, got {setup.jitter_fwhm_ps}")
    for name in ("eta_setup", "eta_det", "laser_leak_per_pulse"):
        v = getattr(setup, name)
        if not (0.0 <= v <= 1.0):
            errs.append(f"setup: {name} must lie in [0, 1], got {v}")
    if not 0 <= setup.dark_rate_cps < math.inf:
        errs.append(f"setup: dark_rate_cps must be finite and >= 0, got {setup.dark_rate_cps}")
    return errs


def validate_setup(setup: SetupParams) -> SetupParams:
    errs = setup_violations(setup)
    if errs:
        raise SourceValidationError(errs)
    return setup


def exciton_source(tau_ps: float, delta_fss_uev: float, theta_rad: float,
                   **common) -> SourceParams:
    """Validated exciton source; ``common`` takes the other ``SourceParams`` fields."""
    return validate_source(
        SourceParams(TransitionKind.EXCITON, tau_ps, delta_fss_uev, theta_rad, **common)
    )


def trion_source(tau_ps: float, **common) -> SourceParams:
    """Validated trion source; ``common`` takes the other ``SourceParams`` fields."""
    return validate_source(SourceParams(TransitionKind.TRION, tau_ps, **common))
