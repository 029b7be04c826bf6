"""Monte Carlo generation of emission events and detector click streams.

Simulation is organized as two stages.  ``simulate_pulse_train`` draws the
per-pulse emission physics (first photon, re-excitation, laser leakage)
and the efficiency thinning (eta_setup * eta_det) into an
:class:`EventBatch` that holds only the photons that reach the detectors.
The detector-geometry functions ``hbt_streams`` and ``hom_streams`` then
turn those photons into two time-sorted click streams, applying 50/50
routing, Gaussian timing jitter and dark counts.  Click times are rounded
to integer picoseconds there, as a time tagger stamps them; this is the
one place where the package rounds time.

Reproducibility: every random decision derives from an :class:`RngSpec`
(seed, stream_id).  Pulse ranges are processed in fixed-size chunks, each
chunk seeded independently from (seed, stream_id, chunk_index), so a
chunk's events depend only on that key and its pulse range.  The order
and kind of every draw is the stream layout, versioned by
:data:`STREAM_LAYOUT`; a change to either changes the streams.

Cost: the only per-pulse work is one 32-bit Bernoulli decision per pulse
(two per raw 64-bit word) that decides whether it emits, and a second one
when laser leakage is enabled.  Each chunk then draws one detection
decision per photon, and draws emission times and builds rows only for
the detected photons and for the few anchors (:attr:`Origin.ANCHOR`), so
at the default efficiency of 0.12 a batch holds about an eighth of the
photons emitted.  Every later cost scales with the rows of the batch.
Every generator call that can change a result is made, in a fixed order,
so the streams depend only on the RngSpec; with
``laser_leak_per_pulse == 0`` a chunk makes no laser-leak draws, and with
lossless detection (eta_setup * eta_det == 1) no detection draws.  The HBT
stage routes and jitters every detected photon; the HOM stage also draws
the interferometer arm of every row, anchors included, which decides who
meets whom, and draws coalescence only for pairs whose photons are both
detected.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import FWHM_TO_SIGMA, exciton_cross_intensity
from .model import (
    ExcitonParams,
    SetupParams,
    SourceParams,
    TransitionKind,
    fss_period,
    validate_setup,
    validate_source,
)

#: Pulses per RNG chunk.  Fixed: changing it changes every simulated stream.
CHUNK_PULSES = 1 << 16
#: Version of the order and kind of random draws.  Artifact headers carry
#: it, so files written under another layout are told apart by their header.
STREAM_LAYOUT = 3


class UnsamplableEmissionError(ValueError):
    """The configured source has identically zero cross-polarized emission."""


class Origin(enum.IntEnum):
    QD_FIRST = 0
    QD_REEXCITE = 1
    #: A first photon the detectors lose, kept as a row because its
    #: re-excitation photon is detected: that photon's emission time is
    #: offset from it, and in HOM its arm can still shadow that photon.
    ANCHOR = 2
    LASER = 3
    DARK = 4


@dataclass(frozen=True, eq=False)
class EventBatch:
    """Column-oriented list of the photons that reach the detectors, sorted by pulse index.

    Every row is detected except the :attr:`Origin.ANCHOR` rows, so the
    detector stages do not thin a batch again.  ``brightness`` and
    ``p_two_photon`` are the source's per-pulse probabilities of a first
    photon and of a second one, which set the HOM coalescence probability;
    a hand-built batch that leaves ``p_two_photon`` at 0 is a stream of
    single photons.
    """

    pulse_index: np.ndarray
    emit_time_ps: np.ndarray
    origin: np.ndarray
    n_pulses: int
    brightness: float = 0.0
    p_two_photon: float = 0.0

    def __len__(self) -> int:
        return int(self.pulse_index.size)

    def qd_mask(self) -> np.ndarray:
        return self.origin <= Origin.ANCHOR

    def detected_mask(self) -> np.ndarray:
        return self.origin != Origin.ANCHOR


@dataclass(frozen=True)
class RngSpec:
    """Root of a reproducible random stream family.

    (seed, stream_id) fully determine every derived generator; extra key
    integers (for chunks or sub-purposes) extend the spawn key.
    """

    seed: int
    stream_id: int = 0

    def generator(self, *key: int) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id, *key))
        return np.random.Generator(np.random.PCG64(ss))


@functools.lru_cache(maxsize=64)
def _exciton_inverse_cdf_table(tau_ps: float, delta_fss_uev: float, theta_rad: float):
    """Tabulated inverse CDF of the cross-polarized emission density.

    The table spans 14 lifetimes (truncated mass ~ 1e-6) with a step fine
    enough to resolve both the decay and the beat oscillation.
    """
    p = ExcitonParams(tau_ps, delta_fss_uev, theta_rad)
    if delta_fss_uev <= 0 or math.sin(2.0 * theta_rad) == 0.0:
        raise UnsamplableEmissionError(
            "exciton emits no cross-polarized light for delta_fss = 0 or "
            "theta in {0, pi/2}; nothing to sample"
        )
    step = min(tau_ps, fss_period(delta_fss_uev)) / 256.0
    t = np.arange(0.0, 14.0 * tau_ps + step, step)
    pdf = exciton_cross_intensity(t, p)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * step)])
    total = cdf[-1]
    if total <= 0.0:
        raise UnsamplableEmissionError("emission density integrates to zero")
    return cdf / total, t


def sample_emission_time(rng: np.random.Generator, source: SourceParams, size: int):
    """Draw ``size`` emission times (ps) from the source's intensity profile.

    Trion times are closed-form exponential draws; exciton times come
    from inverse-CDF interpolation on a tabulated grid.
    """
    if source.kind is TransitionKind.TRION:
        return source.trion.tau_ps * rng.standard_exponential(size=size)
    x = source.exciton
    cdf, t = _exciton_inverse_cdf_table(x.tau_ps, x.delta_fss_uev, x.theta_rad)
    return _interp_sorted(rng.random(size), cdf, t)


def _interp_sorted(u: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """``np.interp(u, xp, fp)``, evaluated on the sorted ``u``.

    ``np.interp`` computes each point on its own, so the order of the
    queries does not change any result bit; sorted queries let its search
    start from the previous knot instead of bisecting the whole table.
    """
    order = np.argsort(u)
    out = np.empty_like(u)
    out[order] = np.interp(u[order], xp, fp)
    return out


def _bernoulli(g: np.random.Generator, p: float, n: int) -> np.ndarray:
    """``n`` independent decisions, each True with probability ``p``.

    Each decision compares 32 random bits with ``round(p * 2**32)``, so
    ``p`` is rounded to a multiple of 2**-32; p = 0 keeps nothing and
    p = 1 keeps everything.  One raw 64-bit word gives two decisions: its
    low half, then its high half, whatever the host byte order.  Exactly
    ``ceil(n / 2)`` words are drawn for every ``p``.
    """
    words = g.bit_generator.random_raw((n + 1) // 2)
    halves = words.astype("<u8", copy=False).view("<u4")[:n]
    threshold = round(p * 2**32)
    if threshold == 0:
        return np.zeros(n, dtype=bool)
    return halves <= np.uint32(threshold - 1)


def _reexcite_conditional_prob(source: SourceParams) -> float:
    """Conditional re-excitation probability given a first photon.

    Chosen so the unconditional two-photon probability per pulse equals
    source.p_two_photon.
    """
    b = source.brightness_first_lens
    if source.p_two_photon == 0.0:
        return 0.0
    return source.p_two_photon / b


def _simulate_chunk(rng: RngSpec, source, setup, lo: int, hi: int, chunk_key: int):
    """The rows of pulses [lo, hi) as (pulse, emit, origin): detected photons and anchors.

    Draws: emission for every pulse; re-excitation for every first photon;
    only with ``laser_leak_per_pulse > 0``, the leak decision for every
    pulse; only with ``eta_setup * eta_det < 1``, detection for every
    photon (first photons, re-excitation photons, then leak photons); the
    emission times of the first photons that get a row; the delays of the
    detected re-excitation photons; the times of the detected leak photons.
    """
    g = rng.generator(chunk_key)
    n = hi - lo
    leak = setup.laser_leak_per_pulse

    first_pulses = np.flatnonzero(_bernoulli(g, source.brightness_first_lens, n)) + lo
    k = first_pulses.size
    # re_of[i]: the first photon that re-excitation photon i follows.
    re_of = np.flatnonzero(_bernoulli(g, _reexcite_conditional_prob(source), k))
    m = re_of.size
    leak_pulses = (np.flatnonzero(_bernoulli(g, leak, n)) + lo if leak > 0
                   else np.empty(0, dtype=np.int64))
    photons = k + m + leak_pulses.size
    detected = (_bernoulli(g, setup.eta_total, photons) if setup.eta_total < 1
                else np.ones(photons, dtype=bool))
    first_detected = detected[:k]
    re_of = re_of[detected[k:k + m]]
    leak_pulses = leak_pulses[detected[k + m:]]

    # A first photon gets a row when it is detected or when its
    # re-excitation photon is: then the row is an anchor.
    has_row = first_detected.copy()
    has_row[re_of] = True
    rows = _selection(has_row)
    row_pulses = first_pulses[rows]
    first_times = sample_emission_time(g, source, size=row_pulses.size)
    # re_row[i]: the row of the first photon that re-excitation photon i follows.
    re_row = re_of if isinstance(rows, slice) else np.searchsorted(rows, re_of)
    re_times = first_times[re_row] + sample_emission_time(g, source, size=re_row.size)
    first_origin = np.full(row_pulses.size, Origin.QD_FIRST, dtype=np.int8)
    first_origin[~first_detected[rows]] = Origin.ANCHOR

    if leak == 0:
        # Each first photon's row is followed by its re-excitation photon's
        # row, if any; this is the stable sort below, without the sort.
        re_pos = re_row + np.arange(1, re_row.size + 1)
        is_first = np.ones(row_pulses.size + re_row.size, dtype=bool)
        is_first[re_pos] = False
        pulse = np.empty(is_first.size, dtype=np.int64)
        pulse[is_first] = row_pulses
        pulse[re_pos] = row_pulses[re_row]
        emit = np.empty(is_first.size)
        emit[is_first] = first_times
        emit[re_pos] = re_times
        origin = np.full(is_first.size, Origin.QD_REEXCITE, dtype=np.int8)
        origin[is_first] = first_origin
        return pulse, emit, origin

    leak_times = g.normal(0.0, setup.pulse_fwhm_ps * FWHM_TO_SIGMA, size=leak_pulses.size)
    pulse = np.concatenate([row_pulses, row_pulses[re_row], leak_pulses])
    emit = np.concatenate([first_times, re_times, leak_times])
    origin = np.concatenate([
        first_origin,
        np.full(re_row.size, Origin.QD_REEXCITE, dtype=np.int8),
        np.full(leak_pulses.size, Origin.LASER, dtype=np.int8),
    ])
    # Within a pulse: the first photon, its re-excitation photon, the leak photon.
    order = np.argsort(pulse, kind="stable")
    return pulse[order], emit[order], origin[order]


def simulate_pulse_train(
    rng: RngSpec,
    source: SourceParams,
    setup: SetupParams,
    n_pulses: int,
) -> EventBatch:
    """Simulate the photons of a train of excitation pulses that reach the detectors.

    Per pulse, independently: a first photon with probability equal to the
    first-lens brightness; given a first photon, a re-excitation photon
    whose emission restarts after the first one; a laser-leak photon with
    the configured per-pulse probability, Gaussian-timed around the pulse.
    Each photon is then detected with probability eta_setup * eta_det, and
    the batch holds the detected ones, plus an :attr:`Origin.ANCHOR` row
    for each lost first photon whose re-excitation photon is detected.

    Each chunk of ``CHUNK_PULSES`` pulses draws from its own generator,
    keyed by (seed, stream_id, chunk index).
    """
    if n_pulses <= 0:
        raise ValueError(f"n_pulses must be > 0, got {n_pulses}")
    validate_source(source)
    validate_setup(setup)
    if source.kind is TransitionKind.EXCITON and source.brightness_first_lens > 0:
        # Fail fast on unsamplable emission before simulating any chunk.
        _exciton_inverse_cdf_table(
            source.exciton.tau_ps, source.exciton.delta_fss_uev, source.exciton.theta_rad
        )

    chunks = [
        _simulate_chunk(rng, source, setup, lo, min(lo + CHUNK_PULSES, n_pulses), i)
        for i, lo in enumerate(range(0, n_pulses, CHUNK_PULSES))
    ]
    pulse = np.concatenate([c[0] for c in chunks])
    emit = np.concatenate([c[1] for c in chunks])
    origin = np.concatenate([c[2] for c in chunks])
    return EventBatch(pulse, emit, origin, n_pulses,
                      source.brightness_first_lens, source.p_two_photon)


def _dark_clicks(g: np.random.Generator, setup: SetupParams, duration_ps: float):
    lam = setup.dark_rate_cps * duration_ps * 1e-12
    out = []
    for _ in range(2):
        n = int(g.poisson(lam))
        out.append(np.sort(g.uniform(0.0, duration_ps, size=n)))
    return out


def _finalize_streams(times, on_channel1, dark0, dark1):
    """Each channel's click times, sorted and rounded to int64 ps (ties to even).

    ``on_channel1`` is True for the events routed to channel 1.
    """
    streams = []
    for detected, dark in ((times[~on_channel1], dark0), (times[on_channel1], dark1)):
        # Click times are finite and never -0.0, so every sort algorithm
        # returns the same bits.  The stable one (a merge sort) is the
        # fastest here: event times arrive in pulse order and the dark
        # counts are sorted.  Rounding is monotone, so the rounded times
        # stay sorted.
        t = np.sort(np.concatenate([detected, dark]), kind="stable")
        streams.append(np.rint(t, out=t).astype(np.int64))
    return tuple(streams)


def _selection(mask: np.ndarray):
    """Index of the True entries of ``mask``; a slice when all are True, which avoids copies."""
    return slice(None) if mask.all() else np.flatnonzero(mask)


def _click_times(batch: EventBatch, kept: np.ndarray, period: float) -> np.ndarray:
    """``pulse_index * period + emit_time_ps`` (ps) of the kept events only.

    Callers add the remaining terms in place, in the order the full-length
    expression would, so every kept time is bit-equal to it.
    """
    times = batch.pulse_index[kept] * period
    times += batch.emit_time_ps[kept]
    return times


def hbt_streams(rng: RngSpec, batch: EventBatch, setup: SetupParams):
    """Detector click streams for an intensity-autocorrelation measurement.

    Each detected photon of the batch (every row but the anchors; the
    batch is not thinned again) is routed 50/50 to one of two detectors
    and stamped at pulse_index * rep_period + emit_time + Gaussian jitter.
    Dark counts are an independent Poisson process per channel.

    Draws: channel and jitter for the detected photons, then the dark
    counts.

    Returns (times_channel0, times_channel1) as int64 ps, each sorted.
    """
    g = rng.generator()
    period = setup.rep_period_ps
    sigma_j = setup.jitter_fwhm_ps * FWHM_TO_SIGMA

    times = _click_times(batch, _selection(batch.detected_mask()), period)
    channels = _bernoulli(g, 0.5, times.size)
    if sigma_j > 0:
        times += g.normal(0.0, sigma_j, size=times.size)
    dark0, dark1 = _dark_clicks(g, setup, batch.n_pulses * period)
    return _finalize_streams(times, channels, dark0, dark1)


def _pair_overlap(brightness: float, p_two_photon: float, overlap: float) -> float:
    """Pairwise coalescence probability that realizes the requested overlap.

    The reported mean wavepacket overlap M is defined after correcting the
    raw interference visibility for multiphoton noise with
    M = (V_raw + g2) / (1 - g2).  Counting coincidences of the pairing
    model at the histogram level gives

        V_raw = [m_pair * (p1^2 + 3 p1 p2) - 2 p2] / mu^2

    with p1 = b - p2 and p2 the source's one- and two-photon pulse
    probabilities (b its brightness) and mu = b + p2 its mean photon
    number.  Solving for m_pair so that the corrected visibility equals M
    inverts the correction exactly:

        m_pair = M * (1 - g2) * mu^2 / (p1^2 + 3 p1 p2),  g2 = 2 p2 / mu^2.

    For an ideal single-photon stream (p2 = 0) this is exactly m_pair = M.
    """
    p1 = brightness - p_two_photon
    if p1 <= 0:
        return overlap
    mu = brightness + p_two_photon
    g2 = 2.0 * p_two_photon / mu**2
    m_pair = overlap * ((1.0 - g2) * mu**2 / (p1**2 + 3.0 * p1 * p_two_photon))
    return min(1.0, max(0.0, m_pair))


def _kept_pairs(pulse_index: np.ndarray, qd: np.ndarray, arm: np.ndarray,
                detected: np.ndarray):
    """Event indices of the detected QD photon pairs that meet in the interferometer.

    ``arm`` is True for the long arm.  On the full batch, the first
    long-arm QD photon of pulse k meets the first short-arm QD photon of
    pulse k + 1.  This returns only the pairs in which both photons are
    ``detected``, as (long_photon, short_photon) index arrays ordered by
    pulse.  A detected photon that is not the first of its arm in its pulse
    stays unpaired even when the first one was not detected.  A lost
    photon matters only when it can shadow a later detected QD photon of
    its pulse, so the rows of the other lost photons may be left out, as
    :func:`simulate_pulse_train` does.  ``pulse_index`` must be sorted.
    """
    # Only events that share their pulse with the event before them can be
    # preceded by an earlier photon of their pulse and arm, and few pulses
    # hold more than one event.  Walk each of them back through its pulse.
    later = np.flatnonzero(pulse_index[1:] == pulse_index[:-1]) + 1
    earlier = later - 1
    shadowed = np.zeros(pulse_index.size, dtype=bool)
    while later.size:
        clash = qd[earlier] & (arm[earlier] == arm[later])
        shadowed[later[clash]] = True
        go_on = ~clash & (earlier > 0)
        later, earlier = later[go_on], earlier[go_on] - 1
        same = pulse_index[earlier] == pulse_index[later]
        later, earlier = later[same], earlier[same]

    first = qd & detected & ~shadowed
    long_idx = np.flatnonzero(first & arm)
    short_idx = np.flatnonzero(first & ~arm)
    # A pulse holds at most one first photon per arm, so the short-arm
    # pulses are sorted and unique.  The -1 sentinel meets no long photon.
    short_pulse = np.append(pulse_index[short_idx], -1)
    want = pulse_index[long_idx] + 1
    at = np.searchsorted(short_pulse[:-1], want)
    met = short_pulse[at] == want
    return long_idx[met], short_idx[at[met]]


def hom_streams(rng: RngSpec, batch: EventBatch, setup: SetupParams, overlap: float):
    """Click streams behind a path-unbalanced two-photon interferometer.

    Each photon takes the short or long arm with probability 1/2; the long
    arm adds one repetition period, so a long photon from pulse k meets a
    short photon from pulse k+1 in the same output slot.  Meeting QD
    photons coalesce (both exit the same, random, port) with the pairwise
    probability derived from ``overlap`` and the batch's brightness and
    two-photon probability; everything else routes independently.
    Laser-leak photons never coalesce.  Jitter and dark counts are applied
    as in :func:`hbt_streams`, and the batch is not thinned again.

    Draws: the arm of every row, anchors included, then coalescence and
    the joint port for the meeting pairs whose photons are both detected,
    then channel and jitter for the detected photons, then the dark
    counts.  A coalesced pair that loses a photon leaves one click on a
    uniformly random port, which is independent routing, so the pairs
    with a lost photon need no draw of their own.

    The events must be sorted by pulse index, as
    :func:`simulate_pulse_train` returns them.
    """
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must lie in [0, 1], got {overlap}")
    if np.any(batch.pulse_index[1:] < batch.pulse_index[:-1]):
        raise ValueError("events must be sorted by pulse index")
    g = rng.generator()
    period = setup.rep_period_ps
    delay = setup.hom_delay_ps if setup.hom_delay_ps is not None else period
    sigma_j = setup.jitter_fwhm_ps * FWHM_TO_SIGMA
    detected = batch.detected_mask()
    m_pair = _pair_overlap(batch.brightness, batch.p_two_photon, overlap)

    arm = _bernoulli(g, 0.5, len(batch))
    pair_a, pair_b = _kept_pairs(batch.pulse_index, batch.qd_mask(), arm, detected)
    coalesce = _bernoulli(g, m_pair, pair_a.size)
    pair_a, pair_b = pair_a[coalesce], pair_b[coalesce]
    joint_port = _bernoulli(g, 0.5, pair_a.size)

    kept = _selection(detected)
    times = _click_times(batch, kept, period)
    times += arm[kept] * delay
    channels = _bernoulli(g, 0.5, times.size)
    if isinstance(kept, np.ndarray):
        # Positions of the paired events among the detected ones.
        pair_a, pair_b = np.searchsorted(kept, pair_a), np.searchsorted(kept, pair_b)
    channels[pair_a] = joint_port
    channels[pair_b] = joint_port
    if sigma_j > 0:
        times += g.normal(0.0, sigma_j, size=times.size)
    dark0, dark1 = _dark_clicks(g, setup, batch.n_pulses * period)
    return _finalize_streams(times, channels, dark0, dark1)
