"""Physical constants and the parameter records, which check themselves.

Internal units are fixed throughout the package: times in picoseconds,
energies in micro-eV, wavelengths in nanometers, rates in counts per
second unless a field name says otherwise.  In these units the reduced
Planck constant is of order 10^2 and every quantity of interest
(lifetimes ~10^2-10^3 ps, splittings ~10 ueV) is order unity, so no
rescaling is needed anywhere downstream.

All parameter types are frozen dataclasses and can be shared freely
between threads.  Each checks its values when it is built and raises
:class:`SourceValidationError` with every violation, NaN and inf
included, so an invalid record cannot exist.
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
    """Raised when a parameter record is built with values that violate its invariants.

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
    observable effect, so it is not a parameter.  ``theta_deg`` is the
    angle in degrees between the cavity polarization axis and the exciton
    dipole axis, as a config file states it; the emission depends on it
    only through sin^2(2*theta), so it is kept in [0, 180), and trig code
    reads :attr:`theta_rad`.  A trion has neither, and leaves both None.

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
    theta_deg: float | None = None
    brightness_first_lens: float = 0.0
    p_two_photon: float = 0.0
    wavelength_nm: float = 924.7
    dephasing: float = 0.0
    label: str = ""

    def __post_init__(self):
        if self.theta_deg is not None and math.isfinite(self.theta_deg):
            theta = float(self.theta_deg) % 180.0
            # float modulo of a tiny negative angle rounds up to 180 itself
            object.__setattr__(self, "theta_deg", theta if theta < 180.0 else 0.0)
        who = self.label or "source"
        errs: list[str] = []
        if not 0 < self.tau_ps < math.inf:
            errs.append(f"{who}: tau_ps must be finite and > 0, got {self.tau_ps}")
        if self.kind is TransitionKind.EXCITON:
            if self.delta_fss_uev is None or self.theta_deg is None:
                errs.append(f"{who}: an exciton needs delta_fss_uev and theta_deg")
            else:
                if not 0 <= self.delta_fss_uev < math.inf:
                    errs.append(f"{who}: delta_fss_uev must be finite and >= 0, "
                                f"got {self.delta_fss_uev}")
                if not math.isfinite(self.theta_deg):
                    errs.append(f"{who}: theta_deg must be finite, got {self.theta_deg}")
        elif self.kind is TransitionKind.TRION:
            if self.delta_fss_uev is not None or self.theta_deg is not None:
                errs.append(f"{who}: a trion has no delta_fss_uev or theta_deg")
        else:
            errs.append(f"{who}: unknown transition kind {self.kind!r}")
        b = self.brightness_first_lens
        b_valid = 0.0 <= b <= 0.5
        if not b_valid:
            errs.append(f"{who}: brightness_first_lens must lie in [0, 0.5] "
                        f"(cross-polarization cap), got {b}")
        if not self.p_two_photon >= 0:
            errs.append(f"{who}: p_two_photon must be >= 0, got {self.p_two_photon}")
        elif b_valid and self.p_two_photon > b:
            errs.append(f"{who}: p_two_photon ({self.p_two_photon}) cannot exceed "
                        f"brightness_first_lens ({b})")
        if not 0 < self.wavelength_nm < math.inf:
            errs.append(f"{who}: wavelength_nm must be finite and > 0, got {self.wavelength_nm}")
        if not (0.0 <= self.dephasing <= 1.0):
            errs.append(f"{who}: dephasing must lie in [0, 1], got {self.dephasing}")
        if errs:
            raise SourceValidationError(errs)

    @property
    def theta_rad(self) -> float | None:
        """The dipole angle in radians, for trig code."""
        return None if self.theta_deg is None else math.radians(self.theta_deg)

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

    def __post_init__(self):
        errs: list[str] = []
        if not 0 < self.rep_rate_mhz < math.inf:
            errs.append(f"setup: rep_rate_mhz must be finite and > 0, got {self.rep_rate_mhz}")
        if not 0 < self.pulse_fwhm_ps < math.inf:
            errs.append(f"setup: pulse_fwhm_ps must be finite and > 0, got {self.pulse_fwhm_ps}")
        if not 0 <= self.jitter_fwhm_ps < math.inf:
            errs.append(f"setup: jitter_fwhm_ps must be finite and >= 0, "
                        f"got {self.jitter_fwhm_ps}")
        for name in ("eta_setup", "eta_det"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                errs.append(f"setup: {name} must lie in (0, 1], got {v}")
        if not 0.0 <= self.laser_leak_per_pulse <= 1.0:
            errs.append(f"setup: laser_leak_per_pulse must lie in [0, 1], "
                        f"got {self.laser_leak_per_pulse}")
        if not 0 <= self.dark_rate_cps < math.inf:
            errs.append(f"setup: dark_rate_cps must be finite and >= 0, got {self.dark_rate_cps}")
        if errs:
            raise SourceValidationError(errs)

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


def exciton_source(tau_ps: float, delta_fss_uev: float, theta_deg: float,
                   **common) -> SourceParams:
    """An exciton source; ``common`` takes the other ``SourceParams`` fields."""
    return SourceParams(TransitionKind.EXCITON, tau_ps, delta_fss_uev, theta_deg, **common)


def trion_source(tau_ps: float, **common) -> SourceParams:
    """A trion source; ``common`` takes the other ``SourceParams`` fields."""
    return SourceParams(TransitionKind.TRION, tau_ps, **common)
