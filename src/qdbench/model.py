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
class ExcitonParams:
    """Neutral-exciton source parameters.

    ``theta_rad`` is the angle between the cavity polarization axis and
    the exciton dipole axis.  The emission depends on it only through
    sin^2(2*theta), so it is canonicalized into [0, pi).  The two
    eigenstates sit at +/- half the fine-structure splitting
    ``delta_fss_uev``; their mean energy is a global phase with no
    observable effect, so it is not a parameter.
    """

    tau_ps: float
    delta_fss_uev: float
    theta_rad: float

    def __post_init__(self):
        theta = float(self.theta_rad) % math.pi
        if theta >= math.pi:
            # float modulo of a tiny negative angle rounds up to pi itself
            theta = 0.0
        object.__setattr__(self, "theta_rad", theta)


@dataclass(frozen=True)
class TrionParams:
    """Charged-exciton (trion) source parameters: a plain lifetime."""

    tau_ps: float


@dataclass(frozen=True)
class SourceParams:
    """Complete description of one single-photon source.

    ``brightness_first_lens`` is the probability of collecting a photon
    per excitation pulse at the first lens; it is capped at 0.5 because a
    cross-polarized setup rejects half of an unpolarized emission.
    ``p_two_photon`` is the per-pulse probability of a re-excitation
    event producing a second photon.  ``dephasing`` is a phenomenological
    knob d in [0, 1]; the photon mean wavepacket overlap used by the
    interference simulation is M = 1 - d.
    """

    kind: TransitionKind
    exciton: ExcitonParams | None = None
    trion: TrionParams | None = None
    brightness_first_lens: float = 0.0
    p_two_photon: float = 0.0
    wavelength_nm: float = 924.7
    dephasing: float = 0.0
    label: str = ""

    @property
    def tau_ps(self) -> float:
        if self.kind is TransitionKind.EXCITON and self.exciton is not None:
            return self.exciton.tau_ps
        if self.kind is TransitionKind.TRION and self.trion is not None:
            return self.trion.tau_ps
        raise SourceValidationError(
            [f"{self.label or 'source'}: missing parameter block for kind={self.kind.value}"]
        )

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
    """Return the complete list of invariant violations (empty if valid)."""
    errs: list[str] = []
    who = params.label or "source"

    if params.kind is TransitionKind.EXCITON:
        if params.exciton is None:
            errs.append(f"{who}: kind is exciton but 'exciton' block is missing")
        else:
            x = params.exciton
            if not x.tau_ps > 0:
                errs.append(f"{who}: exciton.tau_ps must be > 0, got {x.tau_ps}")
            if x.delta_fss_uev < 0:
                errs.append(f"{who}: exciton.delta_fss_uev must be >= 0, got {x.delta_fss_uev}")
            if not (0.0 <= x.theta_rad < math.pi):
                errs.append(f"{who}: exciton.theta_rad must lie in [0, pi), got {x.theta_rad}")
    elif params.kind is TransitionKind.TRION:
        if params.trion is None:
            errs.append(f"{who}: kind is trion but 'trion' block is missing")
        elif not params.trion.tau_ps > 0:
            errs.append(f"{who}: trion.tau_ps must be > 0, got {params.trion.tau_ps}")
    else:
        errs.append(f"{who}: unknown transition kind {params.kind!r}")

    b = params.brightness_first_lens
    if not (0.0 <= b <= 0.5):
        errs.append(
            f"{who}: brightness_first_lens must lie in [0, 0.5] "
            f"(cross-polarization cap), got {b}"
        )
    if params.p_two_photon < 0:
        errs.append(f"{who}: p_two_photon must be >= 0, got {params.p_two_photon}")
    elif params.p_two_photon > b:
        errs.append(
            f"{who}: p_two_photon ({params.p_two_photon}) cannot exceed "
            f"brightness_first_lens ({b})"
        )
    if not params.wavelength_nm > 0:
        errs.append(f"{who}: wavelength_nm must be > 0, got {params.wavelength_nm}")
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
    errs: list[str] = []
    if not setup.rep_rate_mhz > 0:
        errs.append(f"setup: rep_rate_mhz must be > 0, got {setup.rep_rate_mhz}")
    if not setup.pulse_fwhm_ps > 0:
        errs.append(f"setup: pulse_fwhm_ps must be > 0, got {setup.pulse_fwhm_ps}")
    if setup.jitter_fwhm_ps < 0:
        errs.append(f"setup: jitter_fwhm_ps must be >= 0, got {setup.jitter_fwhm_ps}")
    for name in ("eta_setup", "eta_det", "laser_leak_per_pulse"):
        v = getattr(setup, name)
        if not (0.0 <= v <= 1.0):
            errs.append(f"setup: {name} must lie in [0, 1], got {v}")
    if setup.dark_rate_cps < 0:
        errs.append(f"setup: dark_rate_cps must be >= 0, got {setup.dark_rate_cps}")
    return errs


def validate_setup(setup: SetupParams) -> SetupParams:
    errs = setup_violations(setup)
    if errs:
        raise SourceValidationError(errs)
    return setup


def exciton_source(tau_ps: float, delta_fss_uev: float, theta_rad: float,
                   **common) -> SourceParams:
    """Validated exciton source; ``common`` takes the other ``SourceParams`` fields."""
    return validate_source(SourceParams(
        kind=TransitionKind.EXCITON,
        exciton=ExcitonParams(tau_ps, delta_fss_uev, theta_rad),
        **common,
    ))


def trion_source(tau_ps: float, **common) -> SourceParams:
    """Validated trion source; ``common`` takes the other ``SourceParams`` fields."""
    return validate_source(
        SourceParams(kind=TransitionKind.TRION, trion=TrionParams(tau_ps), **common)
    )
