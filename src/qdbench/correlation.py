"""Coincidence histograms and the estimators built on them.

The histogram is a plain count of inter-channel delays t1 - t0 on a
uniform bin grid centered at zero.  All figures of merit reduce to ratios
of integrated peak areas: the zero-delay peak area normalized by the mean
uncorrelated side peak gives g2(0) for an autocorrelation run, and
V = 1 - 2*A0 for a two-photon interference run.  Uncertainties are pure
Poisson counting statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import SetupParams

#: The side peaks that normalize the zero-delay peak.  The |k| = 1 peaks
#: are partially suppressed by the interferometer pairing, so they are left out.
SIDE_PEAKS = (-6, -5, -4, -3, -2, 2, 3, 4, 5, 6)
#: The histogram bin width (ps) of a run's analysis, and ``analyze``'s default.
BIN_WIDTH_PS = 100.0
#: The peak integration half-window (ps) of a run's analysis, and ``analyze``'s default.
WINDOW_PS = 2000.0
#: Coincidence histograms span +/- this many repetition periods, so that
#: the outermost side peaks lie inside with their whole window.
HISTOGRAM_PERIODS = 10.5
#: The most bins a histogram may hold, 128 MiB of counts; the default grid has 2593.
_MAX_BINS = 1 << 24


@dataclass(frozen=True, eq=False)
class CorrelationHistogram:
    """Coincidence counts versus inter-channel delay.

    The counts fill an odd number of bins of ``bin_width_ps``, the middle
    one centered at zero delay, so the delay grid is not stored but
    derived (:attr:`delays_ps`).  The span must cover at least +/- 10
    repetition periods so that side-peak normalization always has
    material to work with.
    """

    bin_width_ps: float
    counts: np.ndarray
    rep_period_ps: float

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", c)
        if c.ndim != 1 or c.size < 3 or c.size % 2 != 1:
            raise ValueError("counts must be 1-d and hold an odd number >= 3 of bins")
        if np.any(c < 0):
            raise ValueError("counts must be non-negative")
        span = self.delays_ps[-1] + 0.5 * self.bin_width_ps
        if span < 10.0 * self.rep_period_ps * (1.0 - 1e-12):
            raise ValueError(
                f"histogram span +/-{span:.0f} ps must cover at least 10 repetition "
                f"periods ({10 * self.rep_period_ps:.0f} ps)"
            )

    @property
    def delays_ps(self) -> np.ndarray:
        """The bin centers, ``bin_width_ps`` apart with the middle one at zero."""
        n = self.counts.size
        return (np.arange(n) - n // 2) * float(self.bin_width_ps)


@dataclass(frozen=True)
class PeakEstimate:
    """An estimate from the zero-peak area over the mean ``SIDE_PEAKS`` area, with its error."""

    value: float
    std_err: float
    zero_area: int
    side_mean: float


@dataclass(frozen=True)
class CorrectedOverlap:
    value: float
    clamped: bool


@dataclass(frozen=True)
class BrightnessChain:
    fibered_rate_cps: float
    fibered_brightness: float
    first_lens_brightness: float


def _integer_clicks(clicks, name: str) -> np.ndarray:
    """``clicks`` as int64; raises ``ValueError`` unless they are sorted integers."""
    t = np.asarray(clicks)
    if t.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integer picoseconds, got dtype {t.dtype}")
    t = t.astype(np.int64, copy=False)
    if np.any(t[1:] < t[:-1]):
        raise ValueError(f"{name} must be sorted by time")
    return t


#: Reference clicks per gather in :meth:`PairCounter._count`; bounds its memory.
#: Any value gives the same counts.  On 1.5M lossless clicks, 32768 was as
#: fast as 4096 and faster than 200000 (54 against 67 ms).
_HISTOGRAM_BLOCK = 1 << 15


def build_histogram(
    clicks0: np.ndarray,
    clicks1: np.ndarray,
    bin_width_ps: float,
    rep_period_ps: float,
) -> CorrelationHistogram:
    """Histogram all pairs (t1 - t0) with |t1 - t0| <= E, E about ``HISTOGRAM_PERIODS`` periods.

    The clicks are sorted integer picoseconds, as a time tagger emits
    them; float arrays are rejected.  With ``half = round(HISTOGRAM_PERIODS
    * rep_period_ps / bin_width_ps)`` the outermost bin edge is ``(half +
    0.5) * bin_width_ps`` and E is its floor, so the pairs counted are
    exactly those inside the edge, and the window search compares integers
    only.
    A two-pointer sweep (binary-searched window bounds per click) keeps the
    cost linear in clicks plus emitted pairs rather than all-pairs
    quadratic.
    """
    counter = PairCounter(bin_width_ps, rep_period_ps)
    counter.add(clicks0, clicks1)
    return counter.histogram()


class PairCounter:
    """The histogram of :func:`build_histogram`, counted over time-ordered blocks of clicks.

    Each block added must start no earlier than the last click added
    before it.  A pair across blocks then pairs a click of the new block
    with one of the last E ps before it, so only those clicks are kept
    between blocks, and the counts equal those of the whole streams.
    """

    def __init__(self, bin_width_ps: float, rep_period_ps: float):
        if not bin_width_ps > 0:
            raise ValueError(f"bin_width_ps must be > 0, got {bin_width_ps}")
        if not (math.isfinite(rep_period_ps) and rep_period_ps > 0):
            raise ValueError(f"rep_period_ps must be finite and > 0, got {rep_period_ps}")
        half = HISTOGRAM_PERIODS * rep_period_ps / bin_width_ps
        bins = 2 * round(half) + 1 if math.isfinite(half) else math.inf
        if not 3 <= bins <= _MAX_BINS:
            raise ValueError(
                f"a histogram of {bin_width_ps} ps bins over +/-{HISTOGRAM_PERIODS} periods "
                f"of {rep_period_ps} ps needs {bins:.3g} bins; it may hold 3 to {_MAX_BINS}"
            )
        self.bin_width_ps = bin_width_ps
        self.rep_period_ps = rep_period_ps
        self._half = int(round(half))
        self._e = math.floor((self._half + 0.5) * bin_width_ps)
        self.counts = np.zeros(2 * self._half + 1, dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        self._tail = (empty, empty)
        self._last = None

    def add(self, clicks0, clicks1):
        """Count the pairs of a block of clicks, within it and with the clicks before it."""
        t0 = _integer_clicks(clicks0, "clicks0")
        t1 = _integer_clicks(clicks1, "clicks1")
        ends = [(t[0], t[-1]) for t in (t0, t1) if t.size]
        if not ends:
            return
        first, last = min(a for a, _ in ends), max(b for _, b in ends)
        if self._last is not None and first < self._last:
            raise ValueError(f"a block starting at {first} ps follows a click at {self._last} ps")
        e = self._e
        tail0, tail1 = self._tail
        self._count(t0, t1)
        if tail0.size:
            self._count(tail0, t1[:np.searchsorted(t1, tail0[-1] + e, side="right")])
        if tail1.size:
            self._count(t0[:np.searchsorted(t0, tail1[-1] + e, side="right")], tail1)
        self._last = last
        self._tail = tuple(_since(tail, t, last - e) for tail, t in ((tail0, t0), (tail1, t1)))

    def _count(self, t0: np.ndarray, t1: np.ndarray):
        half, e, counts = self._half, self._e, self.counts
        for start in range(0, t0.size, _HISTOGRAM_BLOCK):
            ref = t0[start : start + _HISTOGRAM_BLOCK]
            lo = np.searchsorted(t1, ref - e, side="left")
            hi = np.searchsorted(t1, ref + e, side="right")
            m = hi - lo
            total = int(m.sum())
            if total == 0:
                continue
            # Flat index trick: for each reference click, take its window
            # [lo, hi) of partner clicks in one vectorized gather.
            offsets = np.repeat(hi - np.cumsum(m), m) + np.arange(total)
            deltas = t1[offsets] - np.repeat(ref, m)
            idx = np.rint(deltas / self.bin_width_ps).astype(np.int64) + half
            np.add.at(counts, np.clip(idx, 0, counts.size - 1), 1)

    def histogram(self) -> CorrelationHistogram:
        return CorrelationHistogram(self.bin_width_ps, self.counts.copy(), self.rep_period_ps)


def _since(tail: np.ndarray, t: np.ndarray, start: int) -> np.ndarray:
    """The clicks of ``tail`` followed by ``t`` from ``start`` on, copied out of ``t``."""
    cut = int(np.searchsorted(t, start, side="left"))
    if cut > 0:
        return t[cut:].copy()
    return np.concatenate([tail[np.searchsorted(tail, start, side="left"):], t])


def integrate_peaks(
    hist: CorrelationHistogram,
    window_ps: float,
    peak_indices,
) -> dict[int, int]:
    """The area of each peak k: the counts within +/- window of the k * rep_period delay."""
    if not 0.0 < window_ps <= hist.rep_period_ps / 2.0:
        raise ValueError(
            f"window {window_ps} ps must be > 0 and at most half a repetition period "
            f"({hist.rep_period_ps / 2.0:.1f} ps), so that peaks do not overlap"
        )
    delays = hist.delays_ps
    span = delays[-1] + 0.5 * hist.bin_width_ps
    areas = {}
    tol = 1e-9 * hist.bin_width_ps
    for k in sorted(peak_indices):
        center = k * hist.rep_period_ps
        if abs(center) + window_ps > span + tol:
            raise ValueError(f"peak {k} at {center:.0f} ps lies outside the histogram span")
        areas[k] = int(hist.counts[np.abs(delays - center) <= window_ps + tol].sum())
    return areas


def g2_zero(hist: CorrelationHistogram, window_ps: float = WINDOW_PS) -> PeakEstimate:
    """Zero-delay autocorrelation: the zero-peak area over the mean ``SIDE_PEAKS`` area."""
    areas = integrate_peaks(hist, window_ps, (0, *SIDE_PEAKS))
    a0 = areas[0]
    side_areas = np.array([areas[k] for k in SIDE_PEAKS], dtype=float)
    s_mean = float(side_areas.mean())
    if s_mean <= 0:
        raise ValueError("side peaks are empty; normalization undefined")
    n = len(SIDE_PEAKS)
    ratio = a0 / s_mean
    # An empty zero peak does not pin its mean at zero: floor the Poisson
    # variance at one count, as the decay fit floors its weights.
    err = math.hypot(
        math.sqrt(max(a0, 1)) / s_mean,
        a0 * math.sqrt(side_areas.sum()) / (n * s_mean**2),
    )
    return PeakEstimate(value=ratio, std_err=err, zero_area=a0, side_mean=s_mean)


def hom_visibility(hist: CorrelationHistogram, window_ps: float = WINDOW_PS) -> PeakEstimate:
    """Raw two-photon interference visibility V = 1 - 2 * A0, A0 the ratio of :func:`g2_zero`."""
    r = g2_zero(hist, window_ps)
    return replace(r, value=1.0 - 2.0 * r.value, std_err=2.0 * r.std_err)


def corrected_overlap(v_raw: float, g2: float) -> CorrectedOverlap:
    """Mean wavepacket overlap corrected for multiphoton noise.

    Uses the first-order correction M = (V_raw + g2) / (1 - g2), clamped
    to 1 with a flag when noise pushes the estimate above unity.
    """
    if not 0.0 <= g2 < 1.0:
        raise ValueError(f"g2 must lie in [0, 1), got {g2}")
    if v_raw > 1.0:
        raise ValueError(f"v_raw must be <= 1, got {v_raw}")
    m = (v_raw + g2) / (1.0 - g2)
    if m > 1.0:
        return CorrectedOverlap(value=1.0, clamped=True)
    return CorrectedOverlap(value=m, clamped=False)


def corrected_overlap_err(vis: PeakEstimate, g2: PeakEstimate) -> float:
    """Standard error of M = (V_raw + g2) / (1 - g2), the two errors propagated as independent."""
    return math.hypot(
        vis.std_err / (1.0 - g2.value),
        (1.0 + vis.value) * g2.std_err / (1.0 - g2.value) ** 2,
    )


def brightness_chain(detected_rate_cps: float, setup: SetupParams) -> BrightnessChain:
    """Propagate a detected count rate back through the efficiency chain.

    detected -> fibered (divide by detector efficiency) -> per-pulse
    brightness at the fiber (divide by repetition rate) -> first-lens
    brightness (divide by setup transmission).
    """
    if detected_rate_cps < 0:
        raise ValueError(f"detected rate must be >= 0, got {detected_rate_cps}")
    fibered_rate = detected_rate_cps / setup.eta_det
    fibered_b = fibered_rate / (setup.rep_rate_mhz * 1e6)
    first_lens_b = fibered_b / setup.eta_setup
    return BrightnessChain(
        fibered_rate_cps=fibered_rate,
        fibered_brightness=fibered_b,
        first_lens_brightness=first_lens_b,
    )
