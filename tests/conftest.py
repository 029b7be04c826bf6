"""Shared synthetic-data builders.

Trace builders deliberately construct their truth curves with plain numpy
(explicit kernel + convolution) rather than through the package's fit
machinery, so round-trip tests exercise an independent path.
"""


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
from qdbench.photon_sim import (
    CHUNK_PULSES,
    Origin,
    _check_train,
    _chunk_pulses,
    _chunks,
    _hbt_chunks,
    _hom_chunks,
    _pair_overlap,
    _simulate_chunk,
    _time_ordered,
    source_streams,
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
    "exciton": exciton_source(S7_TAU_PS, S7_DELTA_UEV, 45.0, brightness_first_lens=0.3,
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
    return DecayTrace(t_ps=t, counts=counts)


def read_histogram(path) -> CorrelationHistogram:
    """Read a histogram file back; the inverse of ``pipeline.write_histogram``.

    The delay column must be the grid the bin width and the bin count give,
    exactly: a file on any other grid raises ``ValueError``.
    """
    notes = read_notes(path)
    if "bin_width_ps" not in notes or "rep_period_ps" not in notes:
        raise ValueError(f"{path}: missing bin_width_ps/rep_period_ps note")
    # The column-name line is skipped like a comment.
    rows = np.loadtxt(path, delimiter=",", comments=("#", "bin_center_ps"), ndmin=1,
                      dtype=[("delay", float), ("count", np.int64)])
    hist = CorrelationHistogram(notes["bin_width_ps"], rows["count"], notes["rep_period_ps"])
    if not np.array_equal(rows["delay"], hist.delays_ps):
        raise ValueError(f"{path}: delays are not the grid of its bin width and bin count")
    return hist


def train_chunks(rng, source, setup, n_pulses: int) -> list:
    """(index, lo, hi, rows) of each RNG chunk of a simulated train, rows (pulse, emit, origin).

    The chunks are those of ``photon_sim.detected_chunks``: of
    ``_chunk_pulses(source, setup)`` pulses each.
    """
    _check_train(source, n_pulses)
    return [(i, lo, hi, _simulate_chunk(rng, source, setup, lo, hi, i))
            for i, lo, hi in _chunks(n_pulses, _chunk_pulses(source, setup))]


def train_rows(rng, source, setup, n_pulses: int):
    """A simulated train's rows, (pulse, emit, origin), its chunks' columns joined."""
    return _joined(rows for *_, rows in train_chunks(rng, source, setup, n_pulses))


def detector_clicks(rng, setup, train, n_pulses: int, overlap=None, source=None):
    """Both channels' clicks of a train, as sorted int64 ps: HBT, or HOM at ``overlap``.

    ``train`` is the :func:`train_chunks` of a simulated ``source``, or,
    without a source, the hand-built (pulse, emit, origin) rows of a train
    of at most one RNG chunk, which go in as that chunk and interfere as
    single photons.  The chunks go through the detector stage, and the
    time-ordered blocks are joined per channel.
    """
    if source is None:
        assert n_pulses <= CHUNK_PULSES
        train, brightness, p_two_photon = [(0, 0, n_pulses, train)], 0.0, 0.0
    else:
        brightness, p_two_photon = source.brightness_first_lens, source.p_two_photon
    if overlap is None:
        stages = _hbt_chunks(rng, setup, train)
    else:
        m_pair = _pair_overlap(brightness, p_two_photon, overlap)
        stages = _hom_chunks(rng, setup, train, n_pulses, m_pair)
    return _joined(_time_ordered(stages, setup.rep_period_ps))


def _joined(parts):
    """Each column of a sequence of equal-length tuples of arrays, joined."""
    return tuple(np.concatenate(column) for column in zip(*parts))


def train_clicks(events, rng, source, setup, n_pulses: int, overlap=None):
    """:func:`detector_clicks` of a train simulated whole from the ``events`` stream."""
    chunks = train_chunks(events, source, setup, n_pulses)
    return detector_clicks(rng, setup, chunks, n_pulses, overlap, source)


def whole_train_clicks(source, setup, seed: int, index: int, n_pulses: int, train: str):
    """The two click streams of one whole train, ``"hbt"`` or ``"hom"``.

    The train is simulated whole from the source's streams, then detected;
    the pipeline streams the same clicks one RNG chunk at a time.
    """
    streams = source_streams(seed, index)
    if train == "hbt":
        return train_clicks(streams.hbt_events, streams.hbt_clicks, source, setup, n_pulses)
    return train_clicks(streams.hom_events, streams.hom_clicks, source, setup, n_pulses,
                        source.overlap)


def folded_decay_trace(t0, t1, setup, source) -> DecayTrace:
    """The pipeline's decay trace of a train's clicks, binned by ``np.histogram``.

    Clicks are folded onto the pulse period into 4 ps bins from the pulse
    on, over 12 lifetimes plus 400 ps, at most one period.
    """
    n = int(min(setup.rep_period_ps, 12.0 * source.tau_ps + 400.0) / 4.0)
    folded = np.mod(np.concatenate([t0, t1]), setup.rep_period_ps)
    counts, edges = np.histogram(folded, bins=n, range=(0.0, 4.0 * n))
    return DecayTrace(0.5 * (edges[:-1] + edges[1:]), counts.astype(float))


def poissonian_pulse_train(seed: int, n_pulses: int, mu: float, tau_ps: float):
    """Coherent-like pulsed stream, Poisson photons per pulse, as (pulse, emit, origin) rows."""
    rng = np.random.default_rng(seed)
    nph = rng.poisson(mu, size=n_pulses)
    pulse = np.repeat(np.arange(n_pulses, dtype=np.int64), nph)
    emit = tau_ps * rng.standard_exponential(pulse.size)
    origin = np.full(pulse.size, Origin.QD_FIRST, dtype=np.int8)
    return pulse, emit, origin


def single_photon_batch(n_pulses: int, emit_ps: float = 0.0):
    """Exactly one photon per pulse, as (pulse, emit, origin) rows; bypasses the brightness cap."""
    pulse = np.arange(n_pulses, dtype=np.int64)
    emit = np.full(n_pulses, emit_ps, dtype=float)
    origin = np.full(n_pulses, Origin.QD_FIRST, dtype=np.int8)
    return pulse, emit, origin


@pytest.fixture
def ideal_setup():
    """Lossless, jitter-free detection for structural stream tests."""
    return SetupParams(eta_setup=1.0, eta_det=1.0, jitter_fwhm_ps=0.0)


@pytest.fixture
def clean_setup():
    """Lossless detection with realistic timing jitter."""
    return SetupParams(eta_setup=1.0, eta_det=1.0, jitter_fwhm_ps=IRF_FWHM_PS)
