"""Monte Carlo generation of detector click streams, one RNG chunk at a time.

A train is simulated along one path, :func:`detected_chunks`, in three
steps per chunk of pulses.  :func:`_simulate_chunk` draws the emission
physics (first photon, re-excitation, laser leakage) and the efficiency
thinning (eta_setup * eta_det) into rows that hold only the photons that
reach the detectors, plus the anchors (:attr:`Origin.ANCHOR`), so no later
stage thins again.  The detector stage, :func:`_hbt_chunks` or
:func:`_hom_chunks`, turns those rows into two click streams, applying
50/50 routing or the interferometer, Gaussian timing jitter and dark
counts.  Click times are rounded to integer picoseconds there, as a time
tagger stamps them; this is the one place where the package rounds time.
:func:`_time_ordered` then cuts the chunks' clicks into time-ordered
blocks.

Reproducibility: every random decision derives from an :class:`RngSpec`
(seed, stream_id).  :func:`source_streams` gives source i the ids
8 i + 0 ... 4 (HBT events, HBT clicks, HOM events, HOM clicks,
polarization scan) and reserves 8 i + 5 ... 7; :func:`detected_chunks`
pairs each of the source's :data:`TRAINS` with its events and clicks
streams, and :func:`synthesize_phi_scan` draws the scan.  Pulse ranges are
processed in chunks of :func:`_chunk_pulses` pulses, a power of two chosen
per train from the source and setup alone so that a chunk expects about
:data:`CHUNK_ROWS` rows, each chunk seeded independently from
(seed, stream_id, chunk_index), so a chunk's events depend only on that
key and its pulse range.  The detector stages draw per chunk as well,
chunk 0 from the click stream's own generator and chunk c >= 1 from the
one keyed by c, so a train can be simulated and detected one chunk at a
time.  The long photon of a chunk's last pulse meets a short photon of the
next chunk's first pulse, so the interferometer carries the long-arm rows
of that pulse into the next chunk.  Neighbouring chunks' clicks overlap in
time at their edge, so the blocks are cut across chunks.  The order and
kind of every draw is the stream layout, versioned by
:data:`STREAM_LAYOUT`; a change to either changes the streams.  Layout 5
keyed the detector draws by chunk; a train of one chunk kept its layout-4
streams.  Layout 6 sized the chunks by their expected rows; a train of at
most :data:`CHUNK_PULSES` pulses, or whose chunks stay at that floor, kept
its layout-5 streams.

Cost: no draw is made per pulse.  Each chunk draws the pulses that give a
row directly, as geometric gaps between them, and then makes every other
draw per row: whether a row is an anchor (:attr:`Origin.ANCHOR`, a lost
first photon kept for its detected re-excitation photon), whether its
re-excitation photon is detected, and the emission times.  Detected leak
photons are drawn the same way, as gaps.  At the default efficiency of
0.12 about 1.4% of a typical source's pulses give a row, and the rows
hold about an eighth of the photons emitted.  Every cost scales with the
rows, not with the pulses.  Every generator call that can change
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
from typing import NamedTuple

import numpy as np

from .dynamics import FWHM_TO_SIGMA, PhiScanPoint, exciton_cross_intensity, phi_scan_model
from .model import (
    SetupParams,
    SourceParams,
    TransitionKind,
    fss_period,
    validate_setup,
    validate_source,
)

#: The fewest pulses of an RNG chunk; a train's chunks hold this many times
#: a power of two, at most 64 (see :func:`_chunk_pulses`).  Changing it, or
#: :data:`CHUNK_ROWS`, changes the streams of every train longer than it.
CHUNK_PULSES = 1 << 20
#: The rows an RNG chunk is sized to expect.  Fewer rows leave each chunk a
#: few ms of numpy work between the Python steps that hold the GIL, so a
#: second thread waits; more rows raise a source's peak memory.
CHUNK_ROWS = 1 << 16
#: Version of the order and kind of random draws.  Artifact headers carry
#: it, so files written under another layout are told apart by their header.
STREAM_LAYOUT = 6
#: Queries sorted at a time by :func:`_interp_sorted`.  Any value gives the
#: same bits; 16384 float64 queries (128 KiB) sort and scatter in cache.
_SORT_BLOCK = 1 << 14
#: Batch rows handled at a time by the detector stages (pairing, stamping,
#: the int64 cast).  Any value gives the same bits; 16384 rows keep their
#: temporaries near 1 MiB whatever the train length, at no cost in time.
_ROW_BLOCK = 1 << 14
#: Stream ids of one source (see :func:`source_streams`).
_STREAMS_PER_SOURCE = 8
#: The two trains of a source, in the order a source simulates them.
TRAINS = ("hbt", "hom")
#: Angles of a source's polarization scan, over [0, pi], and the relative
#: noise of each of its intensities.
_PHI_SCAN_ANGLES = 13
_PHI_SCAN_NOISE = 0.02


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


class SourceStreams(NamedTuple):
    """The RNG streams of one source, as laid out by :func:`source_streams`."""

    hbt_events: RngSpec
    hbt_clicks: RngSpec
    hom_events: RngSpec
    hom_clicks: RngSpec
    phi_scan: RngSpec


def source_streams(seed: int, source_index: int) -> SourceStreams:
    """RNG streams of the source at ``source_index`` in the config.

    Source i owns stream ids [8 i, 8 i + 8); the ids after the last field
    are reserved, so a new stream never moves another source's streams.
    Every command that simulates a source takes its streams from here.
    """
    base = source_index * _STREAMS_PER_SOURCE
    return SourceStreams(*(RngSpec(seed, base + k) for k in range(len(SourceStreams._fields))))


@functools.lru_cache(maxsize=64)
def _exciton_inverse_cdf_table(tau_ps: float, delta_fss_uev: float, theta_rad: float):
    """Tabulated inverse CDF of the cross-polarized emission density.

    The table spans 14 lifetimes (truncated mass ~ 1e-6) with a step fine
    enough to resolve both the decay and the beat oscillation.
    """
    if delta_fss_uev <= 0 or math.sin(2.0 * theta_rad) == 0.0:
        raise UnsamplableEmissionError(
            "exciton emits no cross-polarized light for delta_fss = 0 or "
            "theta in {0, pi/2}; nothing to sample"
        )
    step = min(tau_ps, fss_period(delta_fss_uev)) / 256.0
    t = np.arange(0.0, 14.0 * tau_ps + step, step)
    pdf = exciton_cross_intensity(
        t, SourceParams(TransitionKind.EXCITON, tau_ps, delta_fss_uev, theta_rad))
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
        return source.tau_ps * rng.standard_exponential(size=size)
    cdf, t = _exciton_inverse_cdf_table(source.tau_ps, source.delta_fss_uev, source.theta_rad)
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


def _row_odds(source: SourceParams, setup: SetupParams) -> tuple[float, float, float, float]:
    """The probabilities of :func:`_simulate_chunk`'s draws: (p_row, p_anchor, p_re, p_leak).

    Per pulse, p_row of a row and p_anchor of an anchor; per row, p_re of a
    detected re-excitation photon; per pulse, p_leak of a detected leak
    photon.
    """
    b = source.brightness_first_lens
    # The re-excitation probability given a first photon, so that a pulse
    # gives two photons with probability b r = p2.
    r = source.p_two_photon / b if source.p_two_photon != 0.0 else 0.0
    eta = setup.eta_total
    p_anchor = b * (1.0 - eta) * r * eta
    return b * eta + p_anchor, p_anchor, r * eta, setup.laser_leak_per_pulse * eta


def _chunk_pulses(source: SourceParams, setup: SetupParams) -> int:
    """Pulses per RNG chunk of the source's trains under ``setup``.

    The smallest power of two in [CHUNK_PULSES, 64 CHUNK_PULSES] whose
    expected rows reach :data:`CHUNK_ROWS`, or 64 CHUNK_PULSES if none does.
    A pulse expects p_row rows of first photons and anchors, b eta r eta
    of re-excitation photons that follow a detected first photon, p_anchor
    that follow an anchor, and p_leak of leak photons.
    """
    p_row, p_anchor, p_re, p_leak = _row_odds(source, setup)
    per_pulse = p_row + (p_row - p_anchor) * p_re + p_anchor + p_leak
    size = CHUNK_PULSES
    while size < 64 * CHUNK_PULSES and size * per_pulse < CHUNK_ROWS:
        size *= 2
    return size


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
    p_row, p_anchor, p_re, p_leak = _row_odds(source, setup)

    row_pulses = _event_pulses(g, p_row, n) + lo
    k = row_pulses.size
    anchor = (_bernoulli(g, p_anchor / p_row, k) if p_anchor > 0
              else np.zeros(k, dtype=bool))
    re_detected = _bernoulli(g, p_re, k) | anchor
    leak_pulses = _event_pulses(g, p_leak, n) + lo

    first_times = sample_emission_time(g, source, size=k)
    # re_row[i]: the row of the first photon that re-excitation photon i follows.
    re_row = np.flatnonzero(re_detected)
    re_times = first_times[re_row] + sample_emission_time(g, source, size=re_row.size)
    leak_times = g.normal(0.0, setup.pulse_fwhm_ps * FWHM_TO_SIGMA, size=leak_pulses.size)
    first_origin = np.full(k, Origin.QD_FIRST, dtype=np.int8)
    first_origin[anchor] = Origin.ANCHOR

    # Within a pulse: the first photon, its re-excitation photon, the leak
    # photon.  Each column is sorted by pulse, so a row's place is its index
    # in its column plus the rows of the other columns that come before it.
    re_pulses = row_pulses[re_row]
    re_pos = re_row + np.arange(1, re_row.size + 1) + np.searchsorted(leak_pulses, re_pulses)
    leak_pos = (np.arange(leak_pulses.size) + np.searchsorted(row_pulses, leak_pulses, "right")
                + np.searchsorted(re_pulses, leak_pulses, "right"))
    is_first = np.ones(k + re_row.size + leak_pulses.size, dtype=bool)
    is_first[re_pos] = False
    is_first[leak_pos] = False
    pulse = np.empty(is_first.size, dtype=np.int64)
    pulse[is_first] = row_pulses
    del row_pulses  # the chunk holds at most two of its long columns at once
    pulse[re_pos] = re_pulses
    pulse[leak_pos] = leak_pulses
    emit = np.empty(is_first.size)
    emit[is_first] = first_times
    emit[re_pos] = re_times
    emit[leak_pos] = leak_times
    origin = np.full(is_first.size, Origin.QD_REEXCITE, dtype=np.int8)
    origin[is_first] = first_origin
    origin[leak_pos] = Origin.LASER
    return pulse, emit, origin


def _chunks(n_pulses: int, size: int) -> list[tuple[int, int, int]]:
    """(index, lo, hi) of each RNG chunk of ``size`` pulses, pulses [lo, hi), of a train."""
    return [(i, lo, min(lo + size, n_pulses))
            for i, lo in enumerate(range(0, max(n_pulses, 1), size))]


def _chunk_generator(rng: RngSpec, index: int) -> np.random.Generator:
    """The generator of chunk ``index``'s detector draws.

    Chunk 0 draws from the train's own generator, so a train of one chunk
    has the streams it had before detection was keyed by chunk.
    """
    return rng.generator() if index == 0 else rng.generator(index)


def check_pulses(n_pulses: int):
    """Raise ``ValueError`` unless a train can have ``n_pulses`` pulses."""
    if n_pulses <= 0:
        raise ValueError(f"n_pulses must be > 0, got {n_pulses}")


def _check_train(source: SourceParams, setup: SetupParams, n_pulses: int):
    check_pulses(n_pulses)
    validate_source(source)
    validate_setup(setup)
    if source.kind is TransitionKind.EXCITON and source.brightness_first_lens > 0:
        # Fail fast on unsamplable emission before simulating any chunk.
        _exciton_inverse_cdf_table(source.tau_ps, source.delta_fss_uev, source.theta_rad)


def _dark_clicks(g: np.random.Generator, setup: SetupParams, lo_ps: float, hi_ps: float):
    """Each channel's dark counts in [lo_ps, hi_ps), sorted."""
    lam = setup.dark_rate_cps * (hi_ps - lo_ps) * 1e-12
    out = []
    for _ in range(2):
        n = int(g.poisson(lam))
        out.append(np.sort(g.uniform(lo_ps, hi_ps, size=n)))
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


def _stamp_clicks(g: np.random.Generator, rows, setup: SetupParams, lo: int, hi: int,
                  on_channel1: np.ndarray, arm: np.ndarray | None = None):
    """Both channels' click streams of a chunk's detected rows, plus its dark counts.

    ``rows`` are the chunk's (pulse index, emission time, origin) columns
    and [lo, hi) its pulses.  A detected row (every row but the anchors) is
    stamped at pulse_index * rep_period + emit_time, plus one more
    rep_period where ``arm`` (one entry per row) puts it on the long arm,
    plus Gaussian jitter.  It goes to channel 1 where ``on_channel1`` (one
    entry per detected row) is True.

    Draws: the jitter of the detected rows, in row order, then the dark
    counts over the chunk's pulses.  Rows are stamped ``_ROW_BLOCK`` at a
    time, straight into one buffer per channel.  ``Generator.normal`` draws
    in sequence, so the jitter of a block has the bits of the same rows of
    one draw over the chunk.

    Returns (times_channel0, times_channel1) as int64 ps, each sorted.
    """
    period = setup.rep_period_ps
    sigma_j = setup.jitter_fwhm_ps * FWHM_TO_SIGMA
    pulse_index, emit_time, origin = rows
    n1 = int(np.count_nonzero(on_channel1))
    t0, t1 = np.empty(on_channel1.size - n1), np.empty(n1)
    done = filled0 = filled1 = 0
    for start in range(0, pulse_index.size, _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        pulse, emit = pulse_index[block], emit_time[block]
        long_arm = None if arm is None else arm[block]
        detected = origin[block] != Origin.ANCHOR
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
    darks = _dark_clicks(g, setup, lo * period, hi * period)
    return _finalize_streams((t0, t1), darks)


def _hbt_chunks(rng: RngSpec, setup: SetupParams, chunks):
    """The HBT stage of a train: yields (hi, t0, t1) for each (index, lo, hi, rows) of ``chunks``.

    Each detected row (every row but the anchors) is routed 50/50 to one of
    two detectors.  Draws, per chunk from its own generator: the channel of
    each detected row, then the jitter and the dark counts.  A chunk's rows
    are dropped before its clicks are yielded.
    """
    for index, lo, hi, rows in chunks:
        g = _chunk_generator(rng, index)
        channels = _bernoulli(g, 0.5, int(np.count_nonzero(rows[2] != Origin.ANCHOR)))
        streams = _stamp_clicks(g, rows, setup, lo, hi, channels)
        del rows, channels
        yield hi, *streams


def _carry_rows(columns: list, carry: tuple | None, hi: int, last: bool):
    """A chunk's interferometer rows: the rows carried into it, then its own, less those it carries on.

    ``columns`` holds the chunk's own rows, pulse index first and arm last,
    and ``carry`` the rows carried in, as the same columns, or None.  The
    long photon of pulse hi - 1 meets a short photon of pulse hi, the next
    chunk's first pulse, so unless the chunk is the train's ``last`` its
    long-arm rows of that pulse are carried on, in order.  Returns (the
    rows the chunk pairs, routes and stamps; the rows carried on, or None).

    ``columns`` is a list that this empties: each own column is dropped as
    its joined column is made, so a chunk that carries rows holds one
    column more than its own, not a second copy of them all.
    """
    pulse, arm = columns[0], columns[-1]
    tail = pulse.size if last else int(np.searchsorted(pulse, hi - 1))
    # Over the rows of pulse hi - 1, columns[k][tail:], those that go on.
    out = arm[tail:] if arm[tail:].any() else None
    del pulse, arm
    if carry is None and out is None:
        joined = tuple(columns)
        columns.clear()
        return joined, None
    carried_on = None if out is None else tuple(c[tail:][out] for c in columns)
    joined = []
    for k, own in enumerate(columns):
        columns[k] = None
        parts = [own] if out is None else [own[:tail], own[tail:][~out]]
        if carry is not None:
            parts.insert(0, carry[k])
        joined.append(np.concatenate(parts))
    columns.clear()
    return tuple(joined), carried_on


def _hom_chunks(rng: RngSpec, setup: SetupParams, chunks, n_pulses: int, m_pair: float):
    """The HOM stage of a train: yields (hi, t0, t1) for each (index, lo, hi, rows) of ``chunks``.

    Each row takes the short or the long arm with probability 1/2.  The long
    arm adds one repetition period, so a long photon of pulse k meets a
    short photon of pulse k + 1 in the same output slot (:func:`_kept_pairs`).
    Meeting QD photons coalesce, both leaving by the same random port, with
    probability ``m_pair`` (:func:`_pair_overlap`); every other photon,
    laser leak included, routes independently.  A coalesced pair that loses
    a photon leaves one click on a uniformly random port, which is
    independent routing, so the pairs with a lost photon need no draw.

    Draws, per chunk from its own generator: the arm of each of its rows,
    anchors included; then, over the rows carried in and its own less those
    it carries on (see :func:`_carry_rows`), coalescence and the joint port
    of the meeting pairs whose photons are both detected, the channel of
    each detected row, the jitter and the dark counts.  Carried rows keep
    the arm drawn in their own chunk.  A chunk's rows are dropped before
    its clicks are yielded.
    """
    carry = None
    for index, lo, hi, rows in chunks:
        g = _chunk_generator(rng, index)
        columns = [*rows, _bernoulli(g, 0.5, rows[0].size)]
        del rows
        rows, carry = _carry_rows(columns, carry, hi, hi == n_pulses)
        streams = _interfere(g, rows, setup, lo, hi, m_pair)
        del rows
        yield hi, *streams


def _interfere(g: np.random.Generator, rows, setup: SetupParams, lo: int, hi: int,
               m_pair: float):
    """A chunk's interferometer clicks, its (pulse, emit, origin, arm) ``rows`` paired and routed."""
    pulse, emit, origin, arm = rows
    detected = origin != Origin.ANCHOR
    pair_a, pair_b = _kept_pairs(pulse, origin <= Origin.ANCHOR, arm, detected)
    coalesce = _bernoulli(g, m_pair, pair_a.size)
    pair_a, pair_b = pair_a[coalesce], pair_b[coalesce]
    joint_port = _bernoulli(g, 0.5, pair_a.size)

    lost = np.flatnonzero(~detected)
    del detected
    channels = _bernoulli(g, 0.5, pulse.size - lost.size)
    # A paired row's position among the detected rows: its row less the
    # anchors before it.
    channels[pair_a - np.searchsorted(lost, pair_a)] = joint_port
    channels[pair_b - np.searchsorted(lost, pair_b)] = joint_port
    return _stamp_clicks(g, (pulse, emit, origin), setup, lo, hi, channels, arm)


def _time_ordered(streams, period: float):
    """Cut a train's (hi, t0, t1) chunk streams into time-ordered (t0, t1) blocks.

    A chunk's settled time is the start of its last pulse, hi - 1: a later
    click comes from a later pulse, or from a long-arm photon of that last
    pulse, or is a dark count of a later chunk, so it precedes the settled
    time only if a jitter or laser-pulse draw reaches back more than a
    period.  That is checked, and raises ``RuntimeError``.

    Each chunk is cut as it arrives: its clicks and those carried from the
    chunk before merge per channel, the ones before its settled time form a
    block, and the rest carry on, into the last block after the last chunk.
    So every click of a block precedes every click of the next, and the
    blocks' concatenation per channel is the train's whole stream, sorted.
    """
    waiting, settled = [], None
    for hi, t0, t1 in streams:
        if settled is not None and any(t.size and t[0] < settled for t in (t0, t1)):
            raise RuntimeError(f"a click of the chunk ending at pulse {hi} precedes the previous "
                               f"chunk's last pulse; the jitter is too wide for streaming")
        settled = math.floor((hi - 1) * period)
        waiting.append((t0, t1))
        del t0, t1  # the chunk's clicks live on only until they are cut
        yield _cut(waiting, settled)
    yield waiting.pop()


def _cut(waiting: list, settled: int) -> tuple[np.ndarray, np.ndarray]:
    """The block of the ``waiting`` clicks before ``settled``; the rest wait on."""
    block, rest = [], []
    for parts in zip(*waiting):
        t = parts[0] if len(parts) == 1 else np.sort(np.concatenate(parts), kind="stable")
        cut = int(np.searchsorted(t, settled))
        block.append(t[:cut])
        rest.append(t[cut:].copy())
    waiting[:] = [tuple(rest)]
    return tuple(block)


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
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must lie in [0, 1], got {overlap}")
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

    ``arm`` is True for the long arm.  Over all the photons emitted, the
    first long-arm QD photon of pulse k meets the first short-arm QD photon
    of pulse k + 1.  This returns only the pairs in which both photons are
    ``detected``, as (long_photon, short_photon) index arrays ordered by
    pulse.  A detected photon that is not the first of its arm in its pulse
    stays unpaired even when the first one was not detected.  A lost
    photon matters only when it can shadow a later detected QD photon of
    its pulse, so the rows of the other lost photons may be left out, as
    :func:`_simulate_chunk` leaves them out: its rows, with the rows that
    :func:`_carry_rows` carries into the chunk, are what the HOM stage
    pairs.  ``pulse_index`` must be sorted.
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


def detected_chunks(seed: int, source_index: int, source: SourceParams, setup: SetupParams,
                    n_pulses: int, train: str):
    """One train of a source, simulated and detected one RNG chunk at a time, as click blocks.

    Per pulse, independently: a first photon with the first-lens
    brightness as probability; given one, a re-excitation photon whose
    emission restarts after it; a laser-leak photon, Gaussian-timed around
    the pulse.  Each photon is detected with probability eta_setup *
    eta_det.  ``train`` is ``"hbt"``, 50/50 routing to two detectors, or
    ``"hom"``, a path-unbalanced interferometer at the source's overlap
    (see :data:`TRAINS`); any other value raises ``ValueError``.

    The train draws from the source's streams of that train
    (:func:`source_streams`) in chunks of :func:`_chunk_pulses` pulses, the
    same for both trains of a source: per chunk its rows
    (:func:`_simulate_chunk`), then the detector stage (:func:`_hbt_chunks`
    or :func:`_hom_chunks`).  The source and setup are checked before this
    returns.  Returns an iterator of (t0, t1) blocks, the two channels'
    clicks as sorted int64 ps, cut by :func:`_time_ordered`: every click of
    a block precedes every click of the next, so the blocks joined per
    channel are the train's whole streams, one block per chunk and one of
    the clicks carried past the last.  A caller holds one chunk's rows,
    :data:`CHUNK_ROWS` to twice that unless the chunk is at the floor or
    the cap of its size, and one chunk's clicks, whatever the train length.
    """
    streams = source_streams(seed, source_index)
    if train == "hbt":
        events, clicks = streams.hbt_events, streams.hbt_clicks
    elif train == "hom":
        events, clicks = streams.hom_events, streams.hom_clicks
    else:
        raise ValueError(f"train must be one of {TRAINS}, got {train!r}")
    _check_train(source, setup, n_pulses)
    chunks = ((i, lo, hi, _simulate_chunk(events, source, setup, lo, hi, i))
              for i, lo, hi in _chunks(n_pulses, _chunk_pulses(source, setup)))
    if train == "hbt":
        stages = _hbt_chunks(clicks, setup, chunks)
    else:
        m_pair = _pair_overlap(source.brightness_first_lens, source.p_two_photon, source.overlap)
        stages = _hom_chunks(clicks, setup, chunks, n_pulses, m_pair)
    return _time_ordered(stages, setup.rep_period_ps)


def synthesize_phi_scan(seed: int, source_index: int, source: SourceParams) -> list[PhiScanPoint]:
    """The source's polarization scan: noisy cavity-rotated and QD line intensities.

    At each angle, :func:`~qdbench.dynamics.phi_scan_model`'s two intensities
    are scaled by max(0, 1 + 0.02 N(0, 1)), cavity first, drawn from the
    source's ``phi_scan`` stream (:func:`source_streams`).
    """
    g = source_streams(seed, source_index).phi_scan.generator()
    factors = np.maximum(0.0, 1.0 + _PHI_SCAN_NOISE * g.standard_normal((_PHI_SCAN_ANGLES, 2)))
    clean = (phi_scan_model(phi, source, amp_cavity=1.0, amp_qd=1.0)
             for phi in np.linspace(0.0, math.pi, _PHI_SCAN_ANGLES).tolist())
    return [PhiScanPoint(p.phi_rad, p.cavity_light * fc, p.qd_light * fq)
            for p, (fc, fq) in zip(clean, factors.tolist())]
