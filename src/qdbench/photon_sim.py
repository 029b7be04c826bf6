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

Cost: no draw is made per pulse.  Each chunk draws the pulses that give a
row directly, as geometric gaps between them, and then makes every other
draw per row: whether a row is an anchor (:attr:`Origin.ANCHOR`, a lost
first photon kept for its detected re-excitation photon), whether its
re-excitation photon is detected, and the emission times.  Detected leak
photons are drawn the same way, as gaps.  At the default efficiency of
0.12 about 1.4% of a typical source's pulses give a row, and a batch holds
about an eighth of the photons emitted.  Every cost scales with the rows
of the batch, not with the pulses.  Every generator call that can change
a result is made, in a fixed order, so the streams depend only on the
RngSpec; with ``laser_leak_per_pulse == 0`` a chunk makes no laser-leak
draws, and without anchors (lossless detection, or no re-excitation) no
anchor draws.  The HBT stage routes and jitters every detected photon;
the HOM stage also draws the interferometer arm of every row, anchors
included, which decides who meets whom, and draws coalescence only for
pairs whose photons are both detected.
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
CHUNK_PULSES = 1 << 20
#: Version of the order and kind of random draws.  Artifact headers carry
#: it, so files written under another layout are told apart by their header.
STREAM_LAYOUT = 4
#: Queries sorted at a time by :func:`_interp_sorted`.  Any value gives the
#: same bits; 16384 float64 queries (128 KiB) sort and scatter in cache.
_SORT_BLOCK = 1 << 14
#: Batch rows handled at a time by the detector stages (pairing, stamping,
#: the int64 cast).  Any value gives the same bits; 16384 rows keep their
#: temporaries near 1 MiB whatever the train length, at no cost in time.
_ROW_BLOCK = 1 << 14


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
    """``np.interp(u, xp, fp)``, evaluated on sorted blocks of ``u``.

    ``np.interp`` computes each point on its own, so the order of the
    queries does not change any result bit; sorted queries let its search
    start from the previous knot instead of bisecting the whole table.
    Blocks of ``_SORT_BLOCK`` queries keep the sort and the scatter in
    cache, as a lossless chunk holds up to half a million emission times.
    """
    out = np.empty_like(u)
    for lo in range(0, u.size, _SORT_BLOCK):
        block = u[lo:lo + _SORT_BLOCK]
        order = np.argsort(block)
        out[lo:lo + _SORT_BLOCK][order] = np.interp(block[order], xp, fp)
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


def _gap_block(n: int, p: float) -> int:
    """Gaps drawn per block: the expected events in n pulses plus six standard deviations."""
    return int(n * p + 6.0 * math.sqrt(n * p) + 16)


def _event_pulses(g: np.random.Generator, p: float, n: int) -> np.ndarray:
    """The pulses in [0, n) that hold an event of per-pulse probability ``p``.

    Returns sorted, unique int64 indices.  The gaps between events are
    geometric, each drawn as ``floor(E * s) + 1`` with E standard
    exponential (ziggurat, no transcendental function per event) and
    s = -1 / log1p(-p); p = 1 gives s = 0, so every pulse.  Gaps are drawn
    in blocks of :func:`_gap_block` until the last position reaches n - 1
    or beyond; the positions past the last pulse are dropped.  p = 0 makes
    no draw.
    """
    if p == 0.0:
        return np.empty(0, dtype=np.int64)
    scale = 0.0 if p == 1.0 else -1.0 / math.log1p(-p)
    block = _gap_block(n, p)
    blocks = []
    last = -1
    while last < n - 1:
        e = g.standard_exponential(block)
        e *= scale
        # A gap of n already leaves the chunk; the cap keeps the cast exact.
        np.minimum(e, n, out=e)
        pos = e.astype(np.int64)
        pos += 1
        pos[0] += last
        np.cumsum(pos, out=pos)
        blocks.append(pos)
        last = int(pos[-1])
    pulses = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    return pulses[:np.searchsorted(pulses, n)]


def _simulate_chunk(rng: RngSpec, source, setup, lo: int, hi: int, chunk_key: int):
    """The rows of pulses [lo, hi) as (pulse, emit, origin): detected photons and anchors.

    Only the pulses that give a row are drawn.  With b the brightness,
    r = p2 / b and eta = eta_setup * eta_det, a pulse gives a row with
    probability b * eta + b * (1 - eta) * r * eta: a detected first photon,
    or an anchor, a lost first photon whose re-excitation photon is
    detected.

    Draws: the row pulses, as geometric gaps; only when anchors can occur
    (0 < eta < 1 and r > 0), the anchor decision per row; per row, whether
    its re-excitation photon is detected (forced for anchors); only with
    ``laser_leak_per_pulse > 0``, the pulses of the detected leak photons,
    as geometric gaps; the emission times of the rows' first photons, the
    delays of the detected re-excitation photons, the times of the leak
    photons.
    """
    g = rng.generator(chunk_key)
    n = hi - lo
    b = source.brightness_first_lens
    r = _reexcite_conditional_prob(source)
    eta = setup.eta_total
    leak = setup.laser_leak_per_pulse
    p_anchor = b * (1.0 - eta) * r * eta
    p_row = b * eta + p_anchor

    row_pulses = _event_pulses(g, p_row, n) + lo
    k = row_pulses.size
    anchor = (_bernoulli(g, p_anchor / p_row, k) if p_anchor > 0
              else np.zeros(k, dtype=bool))
    re_detected = _bernoulli(g, r * eta, k) | anchor
    leak_pulses = (_event_pulses(g, leak * eta, n) + lo if leak > 0
                   else np.empty(0, dtype=np.int64))

    first_times = sample_emission_time(g, source, size=k)
    # re_row[i]: the row of the first photon that re-excitation photon i follows.
    re_row = np.flatnonzero(re_detected)
    re_times = first_times[re_row] + sample_emission_time(g, source, size=re_row.size)
    first_origin = np.full(k, Origin.QD_FIRST, dtype=np.int8)
    first_origin[anchor] = Origin.ANCHOR

    if leak == 0:
        # Each first photon's row is followed by its re-excitation photon's
        # row, if any; this is the stable sort below, without the sort.
        re_pos = re_row + np.arange(1, re_row.size + 1)
        is_first = np.ones(k + re_row.size, dtype=bool)
        is_first[re_pos] = False
        pulse = np.empty(is_first.size, dtype=np.int64)
        pulse[is_first] = row_pulses
        pulse[re_pos] = row_pulses[re_row]
        del row_pulses  # the chunk holds at most two of its long columns at once
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

    Draws, per chunk: the pulses that give a row, then the per-row anchor
    and re-excitation decisions, the pulses of the detected leak photons,
    then the emission times (see :func:`_simulate_chunk`).
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
    # Joined one column at a time, each column's chunks freed as soon as it
    # is joined, so the batch is never held twice.
    columns = [list(parts) for parts in zip(*chunks)]
    del chunks
    pulse, emit, origin = map(_join, columns)
    return EventBatch(pulse, emit, origin, n_pulses,
                      source.brightness_first_lens, source.p_two_photon)


def _join(parts: list) -> np.ndarray:
    """The concatenation of ``parts``, emptying the list, so each part is freed once joined."""
    if len(parts) == 1:
        return parts.pop()
    joined = np.concatenate(parts)
    parts.clear()
    return joined


def _dark_clicks(g: np.random.Generator, setup: SetupParams, duration_ps: float):
    lam = setup.dark_rate_cps * duration_ps * 1e-12
    out = []
    for _ in range(2):
        n = int(g.poisson(lam))
        out.append(np.sort(g.uniform(0.0, duration_ps, size=n)))
    return out


def _finalize_streams(stamped, darks):
    """Each channel's clicks: its stamped times and its dark counts, sorted and rounded to int64 ps.

    Works in place on the float buffers of ``stamped``, which nothing else
    may reference: each grows to take its channel's dark counts, is sorted
    and rounded (ties to even), and is returned cast to int64 in its own
    memory, ``_ROW_BLOCK`` values at a time.
    """
    streams = []
    for t, dark in zip(stamped, darks):
        n = t.size
        t.resize(n + dark.size, refcheck=False)
        t[n:] = dark
        # Click times are finite and never -0.0, so every sort algorithm
        # returns the same bits.  The stable one (a merge sort) is the
        # fastest here: event times arrive in pulse order and the dark
        # counts are sorted.  Rounding is monotone, so the rounded times
        # stay sorted.
        t.sort(kind="stable")
        np.rint(t, out=t)
        ints = t.view(np.int64)
        for lo in range(0, t.size, _ROW_BLOCK):
            ints[lo:lo + _ROW_BLOCK] = t[lo:lo + _ROW_BLOCK]
        streams.append(ints)
    return tuple(streams)


def _stamp_clicks(g: np.random.Generator, batch: EventBatch, setup: SetupParams,
                  on_channel1: np.ndarray, arm: np.ndarray | None = None):
    """Both channels' click streams of the batch's detected rows, plus dark counts.

    A detected row (every row but the anchors) is stamped at pulse_index *
    rep_period + emit_time, plus one more rep_period where ``arm`` (one
    entry per row) puts it on the long arm, plus Gaussian jitter.  It goes to
    channel 1 where ``on_channel1`` (one entry per detected row) is True.

    Draws: the jitter of the detected rows, in row order, then the dark
    counts.  Rows are stamped ``_ROW_BLOCK`` at a time, straight into one
    buffer per channel.  ``Generator.normal`` draws in sequence, so the
    jitter of a block has the bits of the same rows of one draw over the
    train.

    Returns (times_channel0, times_channel1) as int64 ps, each sorted.
    """
    period = setup.rep_period_ps
    sigma_j = setup.jitter_fwhm_ps * FWHM_TO_SIGMA
    n1 = int(np.count_nonzero(on_channel1))
    t0, t1 = np.empty(on_channel1.size - n1), np.empty(n1)
    done = filled0 = filled1 = 0
    for lo in range(0, len(batch), _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        pulse, emit = batch.pulse_index[rows], batch.emit_time_ps[rows]
        long_arm = None if arm is None else arm[rows]
        detected = batch.origin[rows] != Origin.ANCHOR
        if not detected.all():
            pulse, emit = pulse[detected], emit[detected]
            long_arm = None if long_arm is None else long_arm[detected]
        times = pulse * period
        times += emit
        if long_arm is not None:
            times += long_arm * period
        if sigma_j > 0:
            times += g.normal(0.0, sigma_j, size=times.size)
        channel1 = on_channel1[done:done + times.size]
        done += times.size
        k1 = int(np.count_nonzero(channel1))
        k0 = times.size - k1
        np.compress(~channel1, times, out=t0[filled0:filled0 + k0])
        np.compress(channel1, times, out=t1[filled1:filled1 + k1])
        filled0, filled1 = filled0 + k0, filled1 + k1
    darks = _dark_clicks(g, setup, batch.n_pulses * period)
    return _finalize_streams((t0, t1), darks)


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
    channels = _bernoulli(g, 0.5, int(np.count_nonzero(batch.detected_mask())))
    return _stamp_clicks(g, batch, setup, channels)


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
    first = qd & detected
    # Only events that share their pulse with the event before them can be
    # preceded by an earlier photon of their pulse and arm, and few pulses
    # hold more than one event.  Walk each of them back through its pulse.
    later = np.flatnonzero(pulse_index[1:] == pulse_index[:-1]) + 1
    earlier = later - 1
    while later.size:
        clash = qd[earlier] & (arm[earlier] == arm[later])
        first[later[clash]] = False
        go_on = ~clash & (earlier > 0)
        later, earlier = later[go_on], earlier[go_on] - 1
        same = pulse_index[earlier] == pulse_index[later]
        later, earlier = later[same], earlier[same]

    # Matched a block of rows at a time.  The long photons of a block's
    # pulses meet short ones of those pulses or of the pulse after its last.
    long_met, short_met = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for lo in range(0, pulse_index.size, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, pulse_index.size)
        end = np.searchsorted(pulse_index, pulse_index[hi - 1] + 2)
        long_idx = lo + np.flatnonzero(first[lo:hi] & arm[lo:hi])
        short_idx = lo + np.flatnonzero(first[lo:end] & ~arm[lo:end])
        # A pulse holds at most one first photon per arm, so the short-arm
        # pulses are sorted and unique.  The -1 sentinel meets no long photon.
        short_pulse = np.append(pulse_index[short_idx], -1)
        want = pulse_index[long_idx] + 1
        at = np.searchsorted(short_pulse[:-1], want)
        met = short_pulse[at] == want
        long_met.append(long_idx[met])
        short_met.append(short_idx[at[met]])
    return np.concatenate(long_met), np.concatenate(short_met)


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
    detected = batch.detected_mask()
    m_pair = _pair_overlap(batch.brightness, batch.p_two_photon, overlap)

    arm = _bernoulli(g, 0.5, len(batch))
    pair_a, pair_b = _kept_pairs(batch.pulse_index, batch.qd_mask(), arm, detected)
    coalesce = _bernoulli(g, m_pair, pair_a.size)
    pair_a, pair_b = pair_a[coalesce], pair_b[coalesce]
    joint_port = _bernoulli(g, 0.5, pair_a.size)

    lost = np.flatnonzero(~detected)
    del detected
    channels = _bernoulli(g, 0.5, len(batch) - lost.size)
    # A paired row's position among the detected rows: its row less the
    # anchors before it.
    channels[pair_a - np.searchsorted(lost, pair_a)] = joint_port
    channels[pair_b - np.searchsorted(lost, pair_b)] = joint_port
    return _stamp_clicks(g, batch, setup, channels, arm)
