"""Monte Carlo generation of emission events and detector click streams.

Simulation is organized as two stages.  ``simulate_pulse_train`` draws the
per-pulse emission physics (first photon, re-excitation, laser leakage)
into an :class:`EventBatch`.  The detector-geometry functions
``hbt_streams`` and ``hom_streams`` then turn events into two time-sorted
click streams, applying efficiency thinning, 50/50 routing, Gaussian
timing jitter and dark counts.  Click times are rounded to integer
picoseconds there, as a time tagger stamps them; this is the one place
where the package rounds time.

Reproducibility: every random decision derives from an :class:`RngSpec`
(seed, stream_id).  Pulse ranges are processed in fixed-size chunks, each
chunk seeded independently from (seed, stream_id, chunk_index), so a
chunk's events depend only on that key and its pulse range.  The order
and kind of every draw is the stream layout, versioned by
:data:`STREAM_LAYOUT`; a change to either changes the streams.

Cost: the only per-pulse work is one 32-bit Bernoulli decision per pulse
(two per raw 64-bit word) that decides whether it emits; everything after
that scales with the number of events.  Every generator call that can
change a result is made, in a fixed order, so the streams depend only on
the RngSpec.  One kind of draw is skipped: with
``laser_leak_per_pulse == 0`` a chunk makes no laser-leak draws.  Those
would be the chunk's last draws and could select no pulse, and the chunk's
generator is used for nothing else, so skipping them leaves every event
unchanged.  The detector stages draw the detection decision for every
event and then route and jitter only the detected ones; the HOM stage
also draws every event's interferometer arm, which decides who meets
whom, but draws coalescence only for pairs whose photons are both
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
STREAM_LAYOUT = 2


class UnsamplableEmissionError(ValueError):
    """The configured source has identically zero cross-polarized emission."""


class Origin(enum.IntEnum):
    QD_FIRST = 0
    QD_REEXCITE = 1
    LASER = 2
    DARK = 3


@dataclass(frozen=True, eq=False)
class EventBatch:
    """Column-oriented list of photon events, sorted by pulse index."""

    pulse_index: np.ndarray
    emit_time_ps: np.ndarray
    origin: np.ndarray
    n_pulses: int

    def __len__(self) -> int:
        return int(self.pulse_index.size)

    def qd_mask(self) -> np.ndarray:
        return self.origin <= Origin.QD_REEXCITE


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
    g = rng.generator(chunk_key)
    n = hi - lo
    b = source.brightness_first_lens
    p2c = _reexcite_conditional_prob(source)
    sigma_pulse = setup.pulse_fwhm_ps * FWHM_TO_SIGMA

    first_pulses = np.flatnonzero(_bernoulli(g, b, n)) + lo
    k = first_pulses.size
    first_times = sample_emission_time(g, source, size=k)

    re_sel = _bernoulli(g, p2c, k)
    m = int(re_sel.sum())
    re_times = first_times[re_sel] + sample_emission_time(g, source, size=m)

    if setup.laser_leak_per_pulse == 0.0:
        # The leak draws would be the chunk's last ones and select nothing,
        # so skipping them leaves every other draw unchanged.  Each first
        # photon is then followed by its re-excitation photon, if any.
        re_pos = np.flatnonzero(re_sel) + np.arange(1, m + 1)
        is_re = np.zeros(k + m, dtype=bool)
        is_re[re_pos] = True
        is_first = ~is_re
        pulse = np.empty(k + m, dtype=np.int64)
        pulse[is_first] = first_pulses
        pulse[re_pos] = first_pulses[re_sel]
        emit = np.empty(k + m)
        emit[is_first] = first_times
        emit[re_pos] = re_times
        origin = np.where(is_re, np.int8(Origin.QD_REEXCITE), np.int8(Origin.QD_FIRST))
        return pulse, emit, origin

    leak_mask = _bernoulli(g, setup.laser_leak_per_pulse, n)
    j = int(leak_mask.sum())
    leak_times = g.normal(0.0, sigma_pulse, size=j)

    pulse = np.concatenate([first_pulses, first_pulses[re_sel], np.flatnonzero(leak_mask) + lo])
    emit = np.concatenate([first_times, re_times, leak_times])
    origin = np.concatenate([
        np.full(k, Origin.QD_FIRST, dtype=np.int8),
        np.full(m, Origin.QD_REEXCITE, dtype=np.int8),
        np.full(j, Origin.LASER, dtype=np.int8),
    ])
    order = np.argsort(pulse, kind="stable")
    return pulse[order], emit[order], origin[order]


def simulate_pulse_train(
    rng: RngSpec,
    source: SourceParams,
    setup: SetupParams,
    n_pulses: int,
) -> EventBatch:
    """Simulate emission events for a train of excitation pulses.

    Per pulse, independently: a first photon with probability equal to the
    first-lens brightness; given a first photon, a re-excitation photon
    whose emission restarts after the first one; a laser-leak photon with
    the configured per-pulse probability, Gaussian-timed around the pulse.

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
    return EventBatch(pulse, emit, origin, n_pulses)


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

    Each photon survives one combined efficiency Bernoulli
    (eta_setup * eta_det), is routed 50/50 to one of two detectors, and is
    stamped at pulse_index * rep_period + emit_time + Gaussian jitter.
    Dark counts are an independent Poisson process per channel.

    Draws: detection for every event, then channel and jitter for the
    detected ones only, then the dark counts.

    Returns (times_channel0, times_channel1) as int64 ps, each sorted.
    """
    g = rng.generator()
    period = setup.rep_period_ps
    sigma_j = setup.jitter_fwhm_ps * FWHM_TO_SIGMA

    kept = _selection(_bernoulli(g, setup.eta_total, len(batch)))
    times = _click_times(batch, kept, period)
    channels = _bernoulli(g, 0.5, times.size)
    if sigma_j > 0:
        times += g.normal(0.0, sigma_j, size=times.size)
    dark0, dark1 = _dark_clicks(g, setup, batch.n_pulses * period)
    return _finalize_streams(times, channels, dark0, dark1)


def _empirical_pair_overlap(qd_pulses: np.ndarray, n_pulses: int, overlap: float) -> float:
    """Pairwise coalescence probability that realizes the requested overlap.

    The reported mean wavepacket overlap M is defined after correcting the
    raw interference visibility for multiphoton noise with
    M = (V_raw + g2) / (1 - g2).  Counting coincidences of the pairing
    model at the histogram level gives

        V_raw = [m_pair * (p1^2 + 3 p1 p2) - 2 p2] / mu^2

    with p1, p2 the one- and two-photon pulse fractions and mu the mean
    photon number.  Solving for m_pair so that the corrected visibility
    equals M inverts the correction exactly:

        m_pair = M * (1 - g2) * mu^2 / (p1^2 + 3 p1 p2),  g2 = 2 p2 / mu^2.

    For an ideal single-photon stream (p2 = 0) this reduces to m_pair = M.
    ``qd_pulses`` holds the sorted pulse index of every QD photon, so the
    pulses with one or more photons are its runs of equal values.
    """
    n = n_pulses
    if n <= 0:
        return overlap
    # same[i]: photon i + 1 shares photon i's pulse.  A pulse with two or
    # more photons is a run of True values in ``same``.
    same = qd_pulses[1:] == qd_pulses[:-1]
    n_multi = np.count_nonzero(same[:1]) + np.count_nonzero(same[1:] & ~same[:-1])
    n_single = qd_pulses.size - np.count_nonzero(same) - n_multi
    p1 = n_single / n
    p2 = n_multi / n
    # A NumPy scalar, so that mu**2 below is NumPy's power of a float64.
    mu = np.float64(qd_pulses.size) / n
    if p1 <= 0 or mu <= 0:
        return overlap
    g2 = 2.0 * p2 / mu**2
    m_pair = overlap * (1.0 - g2) * mu**2 / (p1**2 + 3.0 * p1 * p2)
    return min(1.0, max(0.0, m_pair))


def _kept_pairs(pulse_index: np.ndarray, qd: np.ndarray, arm: np.ndarray,
                detected: np.ndarray):
    """Event indices of the detected QD photon pairs that meet in the interferometer.

    ``arm`` is True for the long arm.  On the full batch, the first
    long-arm QD photon of pulse k meets the first short-arm QD photon of
    pulse k + 1.  This returns only the pairs in which both photons are
    ``detected``, as (long_photon, short_photon) index arrays ordered by
    pulse.  A detected photon that is not the first of its arm in its pulse
    stays unpaired even when the first one was not detected.
    ``pulse_index`` must be sorted.
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
    probability derived from ``overlap``; everything else routes
    independently.  Laser-leak photons never coalesce.  Efficiency,
    jitter and dark counts are applied as in :func:`hbt_streams`.

    Draws: the arm of every event, then detection for every event, then
    coalescence and the joint port for the meeting pairs whose photons
    are both detected, then channel and jitter for the detected events,
    then the dark counts.  A coalesced pair that loses a photon leaves one
    click on a uniformly random port, which is independent routing, so
    the pairs with a lost photon need no draw of their own.

    The events must be sorted by pulse index, as
    :func:`simulate_pulse_train` returns them.
    """
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must lie in [0, 1], got {overlap}")
    if np.any(batch.pulse_index[1:] < batch.pulse_index[:-1]):
        raise ValueError("events must be sorted by pulse index")
    g = rng.generator()
    n = len(batch)
    period = setup.rep_period_ps
    delay = setup.hom_delay_ps if setup.hom_delay_ps is not None else period
    sigma_j = setup.jitter_fwhm_ps * FWHM_TO_SIGMA
    qd = batch.qd_mask()
    m_pair = _empirical_pair_overlap(batch.pulse_index[_selection(qd)], batch.n_pulses, overlap)

    arm = _bernoulli(g, 0.5, n)
    detected = _bernoulli(g, setup.eta_total, n)
    pair_a, pair_b = _kept_pairs(batch.pulse_index, qd, arm, detected)
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
