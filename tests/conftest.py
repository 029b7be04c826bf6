"""Shared synthetic-data builders.

Trace builders deliberately construct their truth curves with plain numpy
(explicit kernel + convolution) rather than through the package's fit
machinery, so round-trip tests exercise an independent path.
"""

import math

import numpy as np
import pytest

from qdbench.correlation import CorrelationHistogram
from qdbench.dynamics import gaussian_kernel
from qdbench.inference import DecayTrace
from qdbench.model import (
    HBAR_UEV_PS,
    SetupParams,
    TransitionKind,
    exciton_source,
    trion_source,
)
from qdbench.pipeline import read_notes

#: (criterion number, description, passed, detail) tuples collected by the
#: acceptance suite; printed one per line at the end of the pytest run.
ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number, description, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d} [{status}] {description}: {detail}")

S7_TAU_PS = 252.0
S7_DELTA_UEV = 8.58
S11_TAU_PS = 164.9
IRF_FWHM_PS = 53.0

#: Sources and detection setups whose outputs are pinned by golden digests:
#: the detector streams and the saved click files.
GOLDEN_SOURCES = {
    "exciton": exciton_source(S7_TAU_PS, S7_DELTA_UEV, math.pi / 4, brightness_first_lens=0.3,
                              p_two_photon=0.01, dephasing=0.1, label="X1"),
    "trion": trion_source(S11_TAU_PS, brightness_first_lens=0.3, p_two_photon=0.01,
                          dephasing=0.1, label="T1"),
}
GOLDEN_SETUPS = {
    "default": SetupParams(),
    "lossless": SetupParams(eta_setup=1.0, eta_det=1.0),
    "leak_dark": SetupParams(laser_leak_per_pulse=0.02, dark_rate_cps=200_000.0),
}


def synth_trace(
    kind: TransitionKind,
    seed: int | None,
    tau_ps: float,
    delta_uev: float = 0.0,
    t0_ps: float = 120.0,
    total_counts: float = 1e6,
    background: float = 3.0,
    bin_ps: float = 4.0,
    span_ps: float | None = None,
    irf_fwhm_ps: float = IRF_FWHM_PS,
) -> DecayTrace:
    """Poisson-noised (or noiseless when seed is None) synthetic decay trace."""
    if span_ps is None:
        span_ps = t0_ps + 11.0 * tau_ps
    kernel, radius = gaussian_kernel(bin_ps, irf_fwhm_ps)
    t = np.arange(0.0, span_ps, bin_ps) + bin_ps / 2
    u = (t[0] + bin_ps * np.arange(-radius, t.size + radius)) - t0_ps
    uc = np.clip(u, 0.0, None)
    if kind is TransitionKind.TRION:
        m = np.where(u >= 0, np.exp(-uc / tau_ps), 0.0)
    else:
        m = np.where(
            u >= 0,
            np.exp(-uc / tau_ps) * np.sin(uc * delta_uev / (2 * HBAR_UEV_PS)) ** 2,
            0.0,
        )
    shape = np.convolve(m, kernel, mode="same")[radius : radius + t.size]
    lam = (total_counts - background * t.size) / shape.sum() * shape + background
    if seed is None:
        counts = lam
    else:
        counts = np.random.default_rng(seed).poisson(lam).astype(float)
    return DecayTrace(t_ps=t, counts=counts, kind=kind)


def read_histogram(path) -> CorrelationHistogram:
    """Read a histogram file back; the inverse of ``pipeline.write_histogram``."""
    notes = read_notes(path)
    if "bin_width_ps" not in notes or "rep_period_ps" not in notes:
        raise ValueError(f"{path}: missing bin_width_ps/rep_period_ps note")
    # The column-name line is skipped like a comment.
    rows = np.loadtxt(path, delimiter=",", comments=("#", "bin_center_ps"), ndmin=1,
                      dtype=[("delay", float), ("count", np.int64)])
    return CorrelationHistogram(notes["bin_width_ps"], rows["delay"], rows["count"],
                                notes["rep_period_ps"])


def poissonian_pulse_train(seed: int, n_pulses: int, mu: float, tau_ps: float):
    """Coherent-like pulsed stream: Poisson photon number per pulse.

    Returns an EventBatch-compatible triple wrapped via photon_sim arrays.
    """
    from qdbench.photon_sim import EventBatch, Origin

    rng = np.random.default_rng(seed)
    nph = rng.poisson(mu, size=n_pulses)
    pulse = np.repeat(np.arange(n_pulses, dtype=np.int64), nph)
    emit = tau_ps * rng.standard_exponential(pulse.size)
    origin = np.full(pulse.size, Origin.QD_FIRST, dtype=np.int8)
    return EventBatch(pulse, emit, origin, n_pulses)


def single_photon_batch(n_pulses: int, emit_ps: float = 0.0):
    """Exactly one photon per pulse; bypasses the brightness cap for tests."""
    from qdbench.photon_sim import EventBatch, Origin

    pulse = np.arange(n_pulses, dtype=np.int64)
    emit = np.full(n_pulses, emit_ps, dtype=float)
    origin = np.full(n_pulses, Origin.QD_FIRST, dtype=np.int8)
    return EventBatch(pulse, emit, origin, n_pulses)


@pytest.fixture
def ideal_setup():
    """Lossless, jitter-free detection for structural stream tests."""
    return SetupParams(eta_setup=1.0, eta_det=1.0, jitter_fwhm_ps=0.0)


@pytest.fixture
def clean_setup():
    """Lossless detection with realistic timing jitter."""
    return SetupParams(eta_setup=1.0, eta_det=1.0, jitter_fwhm_ps=IRF_FWHM_PS)
