import dataclasses
import gc
import hashlib
import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from conftest import (
    GOLDEN_SETUPS,
    GOLDEN_SOURCES,
    S7_DELTA_UEV,
    S7_TAU_PS,
    S11_TAU_PS,
    detector_clicks,
    single_photon_batch,
    train_chunks,
    train_clicks,
    train_rows,
)

from qdbench import photon_sim
from qdbench.dynamics import FWHM_TO_SIGMA, exciton_cross_intensity, peak_emission_delay
from qdbench.fleet import draw_fleet
from qdbench.model import SetupParams, SourceValidationError, exciton_source, trion_source
from qdbench.photon_sim import (
    CHUNK_PULSES,
    CHUNK_ROWS,
    Origin,
    RngSpec,
    UnsamplableEmissionError,
    _bernoulli,
    _carry_rows,
    _chunk_pulses,
    _chunks,
    _event_pulses,
    _exciton_inverse_cdf_table,
    _interp_sorted,
    _kept_pairs,
    _pair_overlap,
    _simulate_chunk,
    detected_chunks,
    sample_emission_time,
    source_streams,
)

S7 = exciton_source(S7_TAU_PS, S7_DELTA_UEV, 45.0, brightness_first_lens=0.136, label="S7")
S11 = trion_source(S11_TAU_PS, brightness_first_lens=0.147, label="S11")
LOSSLESS = SetupParams(eta_setup=1.0, eta_det=1.0)


def qd_photons_per_pulse(pulse: np.ndarray, origin: np.ndarray, n_pulses: int) -> np.ndarray:
    return np.bincount(pulse[origin <= Origin.ANCHOR], minlength=n_pulses)


def _first_of_runs(sorted_values: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values."""
    first = np.ones(sorted_values.size, dtype=bool)
    first[1:] = sorted_values[1:] != sorted_values[:-1]
    return np.flatnonzero(first)


def greedy_pairs(pulse_index: np.ndarray, qd: np.ndarray, arm: np.ndarray):
    """Reference pairing of every QD photon, detected or not.

    The first long-arm QD photon in a slot meets the first short-arm QD
    photon of the same slot.  A photon's slot is its pulse index plus its
    arm, so the long photon of pulse k meets the short photon of pulse
    k + 1.  ``pulse_index`` must be sorted.  Returns (long_photon,
    short_photon) index arrays ordered by slot.
    """
    long_idx = np.flatnonzero(qd & (arm == 1))
    short_idx = np.flatnonzero(qd & (arm == 0))
    long_idx = long_idx[_first_of_runs(pulse_index[long_idx])]
    short_idx = short_idx[_first_of_runs(pulse_index[short_idx])]
    # rank[i]: rank of event i's pulse among the distinct pulses, from 1.
    # Pulse k + 1, if it has events, is the pulse ranked next after k.
    new_pulse = np.ones(pulse_index.size, dtype=bool)
    np.not_equal(pulse_index[1:], pulse_index[:-1], out=new_pulse[1:])
    rank = np.cumsum(new_pulse)
    short_of_rank = np.full(pulse_index.size + 2, -1)
    short_of_rank[rank[short_idx]] = short_idx
    partner = short_of_rank[rank[long_idx] + 1]
    met = (partner >= 0) & (pulse_index[partner] == pulse_index[long_idx] + 1)
    return long_idx[met], partner[met]


class TestSampleEmissionTime:
    def test_trion_mean_is_lifetime(self):
        rng = RngSpec(11, 0).generator()
        draws = sample_emission_time(rng, S11, size=1_000_000)
        assert np.mean(draws) == pytest.approx(S11_TAU_PS, abs=0.5)

    def test_exciton_mode_matches_peak_delay(self):
        rng = RngSpec(12, 0).generator()
        draws = sample_emission_time(rng, S7, size=1_000_000)
        hist, edges = np.histogram(draws, bins=np.arange(0.0, 1500.0, 2.0))
        centers = 0.5 * (edges[:-1] + edges[1:])
        # The density is flat on top, so locate the mode by the vertex of a
        # local parabola instead of a bare argmax.
        i = int(np.argmax(np.convolve(hist, np.ones(5) / 5, mode="same")))
        window = slice(i - 25, i + 26)
        coeffs = np.polyfit(centers[window], hist[window], 2)
        mode = -coeffs[1] / (2 * coeffs[0])
        assert mode == pytest.approx(peak_emission_delay(S7), abs=3.0)

    def test_exciton_mean_matches_quadrature(self):
        rng = RngSpec(13, 0).generator()
        n = 1_000_000
        draws = sample_emission_time(rng, S7, size=n)
        weight, _ = integrate.quad(
            lambda t: float(exciton_cross_intensity(t, S7)), 0, 40 * S7_TAU_PS, limit=400
        )
        first_moment, _ = integrate.quad(
            lambda t: t * float(exciton_cross_intensity(t, S7)), 0, 40 * S7_TAU_PS, limit=400
        )
        expected_mean = first_moment / weight
        se = np.std(draws) / math.sqrt(n)
        assert abs(np.mean(draws) - expected_mean) < 3 * se

    def test_dark_exciton_unsamplable(self):
        rng = RngSpec(1, 0).generator()
        with pytest.raises(UnsamplableEmissionError):
            sample_emission_time(rng, exciton_source(252.0, 8.58, 0.0), size=10)
        with pytest.raises(UnsamplableEmissionError):
            sample_emission_time(rng, exciton_source(252.0, 0.0, 40.0), size=10)

    def test_an_exciton_at_90_degrees_is_dark_as_at_0(self):
        # sin(2 theta) vanishes at 90 degrees too, though the float sin(pi) does not.
        for theta_deg in (0.0, 90.0):
            dark = exciton_source(252.0, 8.58, theta_deg, brightness_first_lens=0.1)
            with pytest.raises(UnsamplableEmissionError):
                next(detected_chunks(1, 0, dark, LOSSLESS, 1000, "hbt"))
        bright = exciton_source(252.0, 8.58, 45.0, brightness_first_lens=0.1)
        assert sum(t0.size for t0, _ in detected_chunks(1, 0, bright, LOSSLESS, 1000, "hbt")) > 0

    def test_sorted_lookup_bit_equal_to_interp(self):
        cdf, t = _exciton_inverse_cdf_table(S7.tau_ps, S7.delta_fss_uev, S7.theta_deg)
        rng = np.random.default_rng(15)
        # Uniforms off the knots, exactly on every knot (u = 0 included),
        # and repeated values, in shuffled order.
        u = np.concatenate([rng.random(20_000), cdf, cdf[:50], [0.0, 0.0]])
        rng.shuffle(u)
        bits = lambda a: np.asarray(a, dtype=float).view(np.uint64)
        assert np.array_equal(bits(_interp_sorted(u, cdf, t)), bits(np.interp(u, cdf, t)))

        for size in (0, 1, 5_000):
            drawn = sample_emission_time(RngSpec(16, 0).generator(), S7, size=size)
            u = RngSpec(16, 0).generator().random(size)
            assert np.array_equal(bits(drawn), bits(np.interp(u, cdf, t)))


class TestBernoulli:
    @pytest.mark.parametrize("p", [0.045, 0.3, 0.5])
    def test_frequency_within_4_sigma(self, p):
        n = 1_000_001
        hits = np.count_nonzero(_bernoulli(RngSpec(17, 0).generator(), p, n))
        assert abs(hits / n - p) < 4 * math.sqrt(p * (1 - p) / n)

    @pytest.mark.parametrize("p,expected", [(0.0, False), (1.0, True)])
    def test_certain_outcomes_draw_the_same_words(self, p, expected):
        g = RngSpec(18, 0).generator()
        assert np.all(_bernoulli(g, p, 1001) == expected)
        # ceil(1001 / 2) words are drawn whatever p is.
        words = RngSpec(18, 0).generator().bit_generator.random_raw(502)
        assert g.bit_generator.random_raw() == words[-1]
        assert _bernoulli(g, p, 0).size == 0

    def test_decisions_independent_of_host_byte_order(self):
        # Decision 2i reads the low 32 bits of word i and decision 2i + 1
        # its high 32 bits, as values, so no byte order enters.
        words = RngSpec(19, 0).generator().bit_generator.random_raw(500)
        halves = np.stack([words & 0xFFFFFFFF, words >> 32], axis=1).ravel()
        got = _bernoulli(RngSpec(19, 0).generator(), 0.3, 999)
        assert np.array_equal(got, (halves < round(0.3 * 2**32))[:999])
        digest = hashlib.sha256(np.packbits(got).tobytes()).hexdigest()
        assert digest[:16] == "8a6fd61dd83a5a42"


class TestEventPulses:
    @staticmethod
    def _assert_pulse_set(pulses, n):
        assert pulses.dtype == np.int64
        assert np.all(np.diff(pulses) > 0)
        assert pulses.size == 0 or (pulses[0] >= 0 and pulses[-1] < n)

    @pytest.mark.parametrize("p", [0.0138, 0.185, 0.5])
    def test_count_within_4_sigma(self, p):
        n = 1_000_003
        pulses = _event_pulses(RngSpec(51, 0).generator(), p, n)
        self._assert_pulse_set(pulses, n)
        assert abs(pulses.size - n * p) < 4 * math.sqrt(n * p * (1 - p))

    @pytest.mark.parametrize("p", [0.0138, 0.185])
    def test_gaps_are_geometric(self, p):
        pulses = _event_pulses(RngSpec(52, 0).generator(), p, 2_000_000)
        # The first gap runs from the pulse before the chunk.
        gaps = np.diff(pulses, prepend=-1)
        # Bins 1..k-1, then the tail k.., with k chosen so the tail expects ~50.
        k = int(math.log(50 / gaps.size) / math.log1p(-p)) + 1
        observed = np.bincount(np.minimum(gaps, k), minlength=k + 1)[1:]
        j = np.arange(1, k)
        expected = np.append(p * (1 - p) ** (j - 1), (1 - p) ** (k - 1)) * gaps.size
        assert stats.chisquare(observed, expected).pvalue > 0.01

    def test_certain_outcomes(self):
        g = RngSpec(53, 0).generator()
        assert _event_pulses(g, 0.0, 1000).size == 0
        # p = 0 makes no draw.
        assert g.bit_generator.random_raw() == RngSpec(53, 0).generator().bit_generator.random_raw()
        assert np.array_equal(_event_pulses(g, 1.0, 1000), np.arange(1000))
        assert np.array_equal(_event_pulses(g, 1.0, 1), [0])

    @pytest.mark.parametrize("p", [0.0138, 0.5, 1.0])
    def test_continued_blocks_follow_one_gap_stream(self, p):
        # Blocks of three gaps force the continuation; the pulses are the
        # partial sums of one exponential stream, drawn in whole blocks.
        n = 2_000
        with mock.patch.object(photon_sim, "_gap_block", lambda n, p: 3):
            g = RngSpec(54, 0).generator()
            pulses = _event_pulses(g, p, n)
        self._assert_pulse_set(pulses, n)
        scale = 0.0 if p == 1.0 else -1.0 / math.log1p(-p)
        gaps = np.floor(RngSpec(54, 0).generator().standard_exponential(2 * n) * scale) + 1
        positions = np.cumsum(gaps).astype(np.int64) - 1
        # Whole blocks up to the one that reaches the last pulse.
        drawn = 3 * (int(np.argmax(positions >= n - 1)) // 3 + 1)
        assert drawn > 3
        assert np.array_equal(pulses, positions[:drawn][positions[:drawn] < n])
        ref = RngSpec(54, 0).generator()
        ref.standard_exponential(drawn)
        assert g.bit_generator.random_raw() == ref.bit_generator.random_raw()


class TestTrainRows:
    def test_no_reexcitation_when_p_two_photon_zero(self):
        pulse, _, origin = train_rows(RngSpec(21, 0), S11, SetupParams(), 200_000)
        assert np.max(qd_photons_per_pulse(pulse, origin, 200_000)) == 1
        assert not np.any(origin == Origin.QD_REEXCITE)

    def test_first_photon_count_binomial(self):
        src = trion_source(S11_TAU_PS, brightness_first_lens=0.136)
        _, _, origin = train_rows(RngSpec(22, 0), src, LOSSLESS, 1_000_000)
        n_first = int(np.count_nonzero(origin == Origin.QD_FIRST))
        assert n_first == pytest.approx(136_000, abs=1_000)

    def test_all_probabilities_zero_gives_empty_stream(self):
        src = trion_source(100.0, brightness_first_lens=0.0)
        pulse, _, _ = train_rows(RngSpec(23, 0), src, SetupParams(), 10_000)
        assert len(pulse) == 0

    def test_invalid_two_photon_probability_rejected(self):
        # No train can be simulated from such a source: it cannot be built.
        with pytest.raises(SourceValidationError):
            trion_source(100.0, brightness_first_lens=0.1, p_two_photon=0.2)

    def test_reexcitation_rate_and_delay(self):
        n = 500_000
        src = trion_source(150.0, brightness_first_lens=0.4, p_two_photon=0.02)
        pulse_index, emit_time, origins = train_rows(RngSpec(24, 0), src, LOSSLESS, n)
        counts = qd_photons_per_pulse(pulse_index, origins, n)
        p2_hat = np.count_nonzero(counts >= 2) / n
        assert p2_hat == pytest.approx(0.02, abs=0.001)
        # The second photon is always emitted after the first one.
        re_mask = origins == Origin.QD_REEXCITE
        re_pulses = pulse_index[re_mask]
        first_by_pulse = {}
        for pulse, t, origin in zip(pulse_index, emit_time, origins):
            if origin == Origin.QD_FIRST:
                first_by_pulse[pulse] = t
        for pulse, t in zip(re_pulses[:500], emit_time[re_mask][:500]):
            assert t > first_by_pulse[pulse]

    def test_laser_leak_events(self):
        src = trion_source(100.0, brightness_first_lens=0.0)
        setup = SetupParams(eta_setup=1.0, eta_det=1.0, laser_leak_per_pulse=0.05)
        _, emit, origin = train_rows(RngSpec(25, 0), src, setup, 200_000)
        n_leak = int(np.count_nonzero(origin == Origin.LASER))
        assert n_leak == pytest.approx(10_000, abs=400)
        leak_times = emit[origin == Origin.LASER]
        assert np.std(leak_times) == pytest.approx(15.0 / 2.35482, rel=0.05)

    def test_deterministic_and_thread_invariant(self):
        size = _chunk_pulses(S11, SetupParams())
        n = 3 * size + 1234
        a = train_rows(RngSpec(77, 3), S11, SetupParams(), n)
        b = train_rows(RngSpec(77, 3), S11, SetupParams(), n)
        for column_a, column_b in zip(a, b):
            assert np.array_equal(column_a, column_b)
        # Each chunk depends only on its own key, so chunks simulated in any
        # order, on any thread, concatenate to the same train.
        starts = range(0, n, size)
        assert len(starts) == 4
        chunks = [None] * len(starts)
        for i in reversed(range(len(starts))):
            hi = min(starts[i] + size, n)
            chunks[i] = _simulate_chunk(RngSpec(77, 3), S11, SetupParams(), starts[i], hi, i)
        for column, want in zip(zip(*chunks), a):
            assert np.array_equal(np.concatenate(column), want)
        c = train_rows(RngSpec(77, 4), S11, SetupParams(), n)
        assert not np.array_equal(a[1], c[1])

    @pytest.mark.parametrize("lossless", [False, True])
    @pytest.mark.parametrize("leak", [0.0, 1e-9, 0.05, 1.0])
    def test_chunk_rows_are_the_stable_sort_of_their_columns(self, lossless, leak):
        # _simulate_chunk places each row by rank.  Its rows are those of a
        # stable sort by pulse of [first and anchor rows, re-excitation
        # rows, leak rows], made from the same draws in the same order.
        src = trion_source(150.0, brightness_first_lens=0.5, p_two_photon=0.4)
        setup = SetupParams(laser_leak_per_pulse=leak)
        if lossless:
            setup = SetupParams(eta_setup=1.0, eta_det=1.0, laser_leak_per_pulse=leak)
        rng, lo, hi = RngSpec(28, 0), 3 * CHUNK_PULSES, 3 * CHUNK_PULSES + 40_000
        got = _simulate_chunk(rng, src, setup, lo, hi, 3)

        g = rng.generator(3)
        b, r, eta = 0.5, 0.4 / 0.5, setup.eta_total
        p_anchor = b * (1 - eta) * r * eta
        rows = _event_pulses(g, b * eta + p_anchor, hi - lo) + lo
        anchor = (_bernoulli(g, p_anchor / (b * eta + p_anchor), rows.size) if p_anchor > 0
                  else np.zeros(rows.size, dtype=bool))
        re_row = np.flatnonzero(_bernoulli(g, r * eta, rows.size) | anchor)
        leak_pulses = _event_pulses(g, leak * eta, hi - lo) + lo
        first = sample_emission_time(g, src, size=rows.size)
        re_times = first[re_row] + sample_emission_time(g, src, size=re_row.size)
        leak_times = g.normal(0.0, setup.pulse_fwhm_ps * FWHM_TO_SIGMA, size=leak_pulses.size)
        pulse = np.concatenate([rows, rows[re_row], leak_pulses])
        emit = np.concatenate([first, re_times, leak_times])
        origin = np.concatenate([np.where(anchor, Origin.ANCHOR, Origin.QD_FIRST),
                                 np.full(re_row.size, Origin.QD_REEXCITE),
                                 np.full(leak_pulses.size, Origin.LASER)]).astype(np.int8)
        order = np.argsort(pulse, kind="stable")
        for column, want in zip(got, (pulse[order], emit[order], origin[order])):
            assert column.dtype == want.dtype
            assert np.array_equal(column, want)
        assert re_row.size > 1_000
        assert np.any(anchor) != lossless
        # At 1e-9 the chunk draws its leak pulses and finds none.
        assert (leak_pulses.size > 100) == (leak > 0.01)

    def test_events_sorted_by_pulse(self):
        pulse, _, _ = train_rows(RngSpec(26, 0), S7, SetupParams(), 100_000)
        assert np.all(np.diff(pulse) >= 0)

    @pytest.mark.parametrize("leak", [0.0, 0.05])
    def test_thinning_at_emission_keeps_the_detected_photons(self, leak):
        # Per pulse: a first photon with probability b, then a re-excitation
        # photon with r = p2 / b, each detected with eta.  The rows hold the
        # detected photons plus an anchor for each lost first photon whose
        # re-excitation photon is detected.
        n = 2 * CHUNK_PULSES + 5_000
        b, p2 = 0.4, 0.05
        src = trion_source(150.0, brightness_first_lens=b, p_two_photon=p2)
        lossless = SetupParams(eta_setup=1.0, eta_det=1.0, laser_leak_per_pulse=leak)
        lossy = SetupParams(laser_leak_per_pulse=leak)
        _, _, full_origin = train_rows(RngSpec(27, 0), src, lossless, n)
        assert not np.any(full_origin == Origin.ANCHOR)

        pulse, emit, origin = train_rows(RngSpec(27, 0), src, lossy, n)
        eta, r = lossy.eta_total, p2 / b
        detected_qd = (origin <= Origin.ANCHOR) & (origin != Origin.ANCHOR)
        per_pulse = np.bincount(pulse[detected_qd], minlength=n)
        p_first, p_re, p_both = b * eta, b * r * eta, b * eta * r * eta
        var_qd = p_first * (1 - p_first) + p_re * (1 - p_re) + 2 * (p_both - p_first * p_re)
        p_anchor = b * (1 - eta) * r * eta
        laws = [
            # Detected QD photons: b eta (1 + r eta) + b (1 - eta) r eta per pulse.
            (per_pulse.sum(), p_first + p_re, var_qd),
            (np.count_nonzero(origin == Origin.ANCHOR), p_anchor, p_anchor * (1 - p_anchor)),
            (np.count_nonzero(per_pulse == 2), p_both, p_both * (1 - p_both)),
            (np.count_nonzero(origin == Origin.LASER), leak * eta,
             leak * eta * (1 - leak * eta)),
        ]
        for count, mean, var in laws:
            assert abs(count - n * mean) <= 4 * math.sqrt(n * var)
        # An anchor is the lost first photon of a pulse whose re-excitation
        # photon is kept, and it comes right before that photon.
        anchors = np.flatnonzero(origin == Origin.ANCHOR)
        assert anchors.size > 0
        assert np.all(origin[anchors + 1] == Origin.QD_REEXCITE)
        assert np.array_equal(pulse[anchors + 1], pulse[anchors])
        assert np.all(emit[anchors + 1] > emit[anchors])


class TestHbtStage:
    def test_one_click_per_pulse_balanced_channels(self, ideal_setup):
        n = 1_000_000
        t0, t1 = detector_clicks(RngSpec(31, 0), ideal_setup, single_photon_batch(n), n)
        assert t0.size + t1.size == n
        assert t0.size / n == pytest.approx(0.5, abs=0.002)

    def test_two_photons_split_half_the_time(self, ideal_setup):
        n = 200_000
        pulse = np.repeat(np.arange(n, dtype=np.int64), 2)
        rows = (pulse, np.zeros(2 * n), np.zeros(2 * n, dtype=np.int8))
        t0, t1 = detector_clicks(RngSpec(32, 0), ideal_setup, rows, n)
        period = ideal_setup.rep_period_ps
        c0 = np.bincount(np.rint(t0 / period).astype(int), minlength=n)
        c1 = np.bincount(np.rint(t1 / period).astype(int), minlength=n)
        split = np.count_nonzero((c0 == 1) & (c1 == 1)) / n
        assert split == pytest.approx(0.5, abs=0.005)

    def test_jitter_width(self):
        setup = SetupParams(eta_setup=1.0, eta_det=1.0, jitter_fwhm_ps=53.0)
        n = 200_000
        t0, t1 = detector_clicks(RngSpec(33, 0), setup, single_photon_batch(n), n)
        period = setup.rep_period_ps
        residual = np.concatenate([t0, t1]).astype(float)
        residual -= np.rint(residual / period) * period
        assert np.std(residual) == pytest.approx(22.507, rel=0.02)

    def test_streams_globally_sorted(self):
        t0, t1 = train_clicks(RngSpec(34, 0), RngSpec(34, 1), S11, SetupParams(), 100_000)
        assert t0.dtype == t1.dtype == np.int64
        assert np.all(np.diff(t0) >= 0)
        assert np.all(np.diff(t1) >= 0)

    def test_thinning_composition_matches_single_stage(self):
        # Thinning inside the simulation at eta_setup*eta_det versus
        # a lossless train thinned by hand at eta_setup, then at eta_det,
        # must give the same per-pulse click distribution.
        n = 1_000_000
        setup_single = SetupParams(eta_setup=0.40, eta_det=0.30, jitter_fwhm_ps=0.0)
        setup_lossless = SetupParams(eta_setup=1.0, eta_det=1.0, jitter_fwhm_ps=0.0)
        src = trion_source(150.0, brightness_first_lens=0.3, p_two_photon=0.01)
        a0, a1 = train_clicks(RngSpec(35, 0), RngSpec(35, 1), src, setup_single, n)

        pre = train_rows(RngSpec(35, 2), src, setup_lossless, n)
        for stage, eta in enumerate((0.40, 0.30)):
            keep = RngSpec(35, 3 + stage).generator().random(len(pre[0])) < eta
            pre = tuple(column[keep] for column in pre)
        b0, b1 = detector_clicks(RngSpec(35, 5), setup_lossless, pre, n)

        period = setup_single.rep_period_ps
        table = []
        for t0, t1 in ((a0, a1), (b0, b1)):
            per_pulse = np.bincount(
                np.concatenate([np.rint(t0 / period).astype(int), np.rint(t1 / period).astype(int)]),
                minlength=n,
            )
            table.append([
                np.count_nonzero(per_pulse == 0),
                np.count_nonzero(per_pulse == 1),
                np.count_nonzero(per_pulse >= 2),
            ])
        _, p_value, _, _ = stats.chi2_contingency(np.array(table))
        assert p_value > 0.01

    def test_dark_counts_added(self, ideal_setup):
        setup = SetupParams(eta_setup=1.0, eta_det=1.0, jitter_fwhm_ps=0.0,
                            dark_rate_cps=100_000.0)
        src = trion_source(100.0, brightness_first_lens=0.0)
        t0, t1 = train_clicks(RngSpec(36, 0), RngSpec(36, 1), src, setup, 1_000_000)
        duration_s = 1_000_000 * setup.rep_period_ps * 1e-12
        expect = 100_000.0 * duration_s
        assert t0.size == pytest.approx(expect, abs=4 * math.sqrt(expect))
        assert t1.size == pytest.approx(expect, abs=4 * math.sqrt(expect))


class TestHomStage:
    def test_perfect_overlap_empties_zero_delay_peak(self, clean_setup):
        n = 500_000
        batch = single_photon_batch(n)
        t0, t1 = detector_clicks(RngSpec(41, 0), clean_setup, batch, n, overlap=1.0)
        # Zero-delay coincidences: cross-channel pairs within +-2 ns.
        lo = np.searchsorted(t1, t0 - 2000.0)
        hi = np.searchsorted(t1, t0 + 2000.0)
        assert int(np.sum(hi - lo)) == 0

    def test_zero_overlap_gives_zero_visibility(self, clean_setup):
        from qdbench.correlation import build_histogram, hom_visibility

        n = 1_000_000
        batch = single_photon_batch(n)
        t0, t1 = detector_clicks(RngSpec(42, 0), clean_setup, batch, n, overlap=0.0)
        period = clean_setup.rep_period_ps
        hist = build_histogram(t0, t1, 100.0, period)
        vis = hom_visibility(hist)
        a0 = vis.zero_area / vis.side_mean
        assert a0 == pytest.approx(0.5, abs=0.01)
        assert vis.value == pytest.approx(0.0, abs=0.02)

    def test_laser_leak_never_coalesces(self, clean_setup):
        from qdbench.correlation import build_histogram, integrate_peaks

        n = 1_000_000
        setup = SetupParams(eta_setup=1.0, eta_det=1.0, jitter_fwhm_ps=53.0,
                            laser_leak_per_pulse=0.2)
        src = trion_source(150.0, brightness_first_lens=0.3)
        t0, t1 = train_clicks(RngSpec(43, 0), RngSpec(43, 1), src, setup, n, overlap=1.0)
        period = setup.rep_period_ps
        hist = build_histogram(t0, t1, 100.0, period)
        zero = integrate_peaks(hist, 2000.0, [0])[0]
        # Perfect overlap removes QD-QD zero-delay pairs, so everything
        # left comes from the classical leak light.
        assert zero > 0

    def test_invalid_overlap_rejected(self):
        # Single photons, b = p2 = 0, as a hand-built train interferes.
        with pytest.raises(ValueError, match="overlap must lie in"):
            _pair_overlap(0.0, 0.0, 1.5)

    def test_deterministic(self, clean_setup):
        n = 200_000
        chunks = train_chunks(RngSpec(44, 0), S11, clean_setup, n)
        a = detector_clicks(RngSpec(44, 1), clean_setup, chunks, n, 0.9, S11)
        b = detector_clicks(RngSpec(44, 1), clean_setup, chunks, n, 0.9, S11)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_ideal_photon_overlap_round_trip(self, clean_setup):
        # With pure single photons the corrected overlap must reproduce the
        # overlap fed into the interferometer model.
        from qdbench.correlation import (
            build_histogram,
            corrected_overlap,
            g2_zero,
            hom_visibility,
        )

        n = 1_000_000
        src = trion_source(S11_TAU_PS, brightness_first_lens=0.25)
        period = clean_setup.rep_period_ps
        a, b = train_clicks(RngSpec(45, 0), RngSpec(45, 1), src, clean_setup, n)
        g2 = g2_zero(build_histogram(a, b, 100.0, period))
        c, d = train_clicks(RngSpec(45, 2), RngSpec(45, 3), src, clean_setup, n, 0.85)
        vis = hom_visibility(build_histogram(c, d, 100.0, period))
        m = corrected_overlap(vis.value, g2.value)
        sigma = math.hypot(vis.std_err, 2 * g2.std_err)
        assert abs(m.value - 0.85) < 3 * sigma

    def test_pairing_and_overlap_match_dense_reference(self):
        # Pulses with zero to three QD photons, plus laser photons that never
        # pair, checked against the per-pulse (dense) formulations.
        rng = np.random.default_rng(47)
        n = 20_000
        per_pulse = rng.choice(4, size=n, p=[0.5, 0.3, 0.15, 0.05])
        pulse = np.repeat(np.arange(n, dtype=np.int64), per_pulse)
        origin = rng.choice([Origin.QD_FIRST, Origin.QD_REEXCITE, Origin.LASER],
                            size=pulse.size, p=[0.6, 0.3, 0.1]).astype(np.int8)
        arm = rng.integers(0, 2, size=pulse.size)
        qd = origin <= Origin.ANCHOR

        slot = pulse + arm
        long_idx = np.where(qd & (arm == 1))[0]
        short_idx = np.where(qd & (arm == 0))[0]
        long_slots, long_first = np.unique(slot[long_idx], return_index=True)
        short_slots, short_first = np.unique(slot[short_idx], return_index=True)
        _, li, si = np.intersect1d(long_slots, short_slots, assume_unique=True,
                                   return_indices=True)
        pair_a, pair_b = greedy_pairs(pulse, qd, arm)
        assert pair_a.size > 1000
        assert np.array_equal(pair_a, long_idx[long_first[li]])
        assert np.array_equal(pair_b, short_idx[short_first[si]])

    @pytest.mark.parametrize("brightness,p2", [(0.3, 0.01), (0.136, 2.2e-4), (0.5, 0.1)])
    def test_pair_overlap_inverts_the_visibility_correction(self, brightness, p2):
        # The pairing model's raw visibility at this coalescence
        # probability, corrected for g2, gives back the overlap.
        m_pair = _pair_overlap(brightness, p2, 0.8)
        assert 0.0 < m_pair < 1.0
        p1, mu = brightness - p2, brightness + p2
        g2 = 2.0 * p2 / mu**2
        v_raw = (m_pair * (p1**2 + 3.0 * p1 * p2) - 2.0 * p2) / mu**2
        assert (v_raw + g2) / (1.0 - g2) == pytest.approx(0.8, rel=1e-12)

    @pytest.mark.parametrize("brightness", [0.0, 0.045, 0.3, 1.0])
    @pytest.mark.parametrize("overlap", [0.0, 0.37, 0.941, 1.0])
    def test_single_photons_coalesce_at_the_overlap(self, brightness, overlap):
        # p2 = 0, as in a hand-built single-photon batch, gives exactly the overlap.
        assert _pair_overlap(brightness, 0.0, overlap) == overlap

    def test_adjacent_side_peaks_suppressed(self, clean_setup):
        # The interferometer pairing removes one photon-pair combination
        # between adjacent slots, suppressing the |k| = 1 peaks to ~3/4 of
        # the uncorrelated side peaks; that is why they sit outside the
        # default normalization set.
        from qdbench.correlation import build_histogram, integrate_peaks

        n = 1_000_000
        batch = single_photon_batch(n)
        t0, t1 = detector_clicks(RngSpec(46, 0), clean_setup, batch, n, overlap=0.5)
        period = clean_setup.rep_period_ps
        hist = build_histogram(t0, t1, 100.0, period)
        areas = integrate_peaks(hist, 2000.0, [-3, -2, -1, 1, 2, 3])
        near = 0.5 * (areas[1] + areas[-1])
        far = 0.25 * (areas[2] + areas[-2] + areas[3] + areas[-3])
        assert near / far == pytest.approx(0.75, abs=0.02)

    @pytest.mark.parametrize("overlap", [1.0, 0.6])
    def test_thinning_before_routing_keeps_the_interference_law(self, overlap):
        # With p2 = 0 the raw visibility equals the pair overlap whatever
        # the efficiency, so lossy and lossless runs must agree.
        from qdbench.correlation import build_histogram, hom_visibility

        src = trion_source(S11_TAU_PS, brightness_first_lens=0.3)
        vis = []
        for setup, n in ((SetupParams(), 4_000_000),
                         (SetupParams(eta_setup=1.0, eta_det=1.0), 500_000)):
            t0, t1 = train_clicks(RngSpec(48, 0), RngSpec(48, 1), src, setup, n, overlap)
            period = setup.rep_period_ps
            vis.append(hom_visibility(build_histogram(t0, t1, 100.0, period)))
        lossy, lossless = vis
        assert lossy.side_mean > 1000
        assert abs(lossy.value - lossless.value) <= 4 * math.hypot(lossy.std_err,
                                                                   lossless.std_err)


def _grammar_rows(rng: np.random.Generator, pulses: np.ndarray, p_detect: float):
    """Rows of ``pulses`` laid out as _simulate_chunk lays them, before thinning.

    Per pulse, in this order: a first photon, its re-excitation photon
    (only after one) and a leak photon, each maybe absent.  Every row takes
    a random arm and is detected with probability ``p_detect``.  Returns
    (pulse, qd, arm, detected).
    """
    first = rng.random(pulses.size) < 0.6
    kinds = np.stack([first, first & (rng.random(pulses.size) < 0.5),
                      rng.random(pulses.size) < 0.3], axis=1)
    pulse = np.repeat(pulses, kinds.sum(axis=1))
    qd = np.broadcast_to([True, True, False], kinds.shape)[kinds]
    arm = rng.random(pulse.size) < 0.5
    return pulse, qd, arm, _bernoulli(rng, p_detect, pulse.size)


@st.composite
def _paired_batches(draw):
    """Pulses of zero to three rows across a chunk edge, with arms and detections."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 400))
    start = CHUNK_PULSES - n // 2
    return _grammar_rows(rng, np.arange(start, start + n, dtype=np.int64),
                         draw(st.sampled_from([0.0, 0.12, 1.0])))


@settings(max_examples=300, deadline=None)
@given(case=_paired_batches())
def test_kept_pairs_are_the_full_batch_pairs_both_detected(case):
    pulse, qd, arm, detected = case
    long_ref, short_ref = greedy_pairs(pulse, qd, arm)
    both = detected[long_ref] & detected[short_ref]
    long_kept, short_kept = _kept_pairs(pulse, qd, arm, detected)
    assert np.array_equal(long_kept, long_ref[both])
    assert np.array_equal(short_kept, short_ref[both])

    # Thinned as _simulate_chunk thins: the detected rows, plus the
    # anchors, the lost QD photons that precede a detected QD photon of
    # their pulse.  The pairs, mapped back to the full batch, are the same.
    rows = np.flatnonzero(detected | _anchors(pulse, qd, detected))
    long_thin, short_thin = _kept_pairs(pulse[rows], qd[rows], arm[rows], detected[rows])
    assert np.array_equal(rows[long_thin], long_ref[both])
    assert np.array_equal(rows[short_thin], short_ref[both])


@st.composite
def _chunked_batches(draw):
    """Pulses of zero to three rows over one or more chunk edges, with arms and detections."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    chunk = draw(st.integers(1, 40))
    n = draw(st.integers(chunk + 1, 400))
    return chunk, n, *_grammar_rows(rng, np.arange(n, dtype=np.int64),
                                    draw(st.sampled_from([0.0, 0.12, 1.0])))


@settings(max_examples=300, deadline=None)
@given(case=_chunked_batches())
def test_chunk_edge_carry_keeps_every_meeting_pair(case):
    # The long-arm rows of a chunk's last pulse move into the next chunk
    # with their arm, so the pairs found chunk by chunk are the pairs of
    # the whole batch.  Rows are thinned as _simulate_chunk thins.
    chunk, n, pulse, qd, arm, detected = case
    rows = np.flatnonzero(detected | _anchors(pulse, qd, detected))
    columns = (pulse[rows], qd[rows], detected[rows], rows, arm[rows])
    long_whole, short_whole = _kept_pairs(*(c[rows] for c in (pulse, qd, arm, detected)))
    long_ref, short_ref = greedy_pairs(pulse, qd, arm)
    both = detected[long_ref] & detected[short_ref]
    assert np.array_equal(rows[long_whole], long_ref[both])

    bounds = _chunks(n, chunk)
    assert len(bounds) > 1
    carry, long_met, short_met = None, [], []
    for _, lo, hi in bounds:
        own = (columns[0] >= lo) & (columns[0] < hi)
        (p, q, d, index, a), carry = _carry_rows([c[own] for c in columns], carry, hi, hi == n)
        if carry is not None:
            assert np.all((carry[0] == hi - 1) & carry[-1])
        long_chunk, short_chunk = _kept_pairs(p, q, a, d)
        long_met.append(index[long_chunk])
        short_met.append(index[short_chunk])
    assert carry is None
    assert np.array_equal(np.concatenate(long_met), rows[long_whole])
    assert np.array_equal(np.concatenate(short_met), rows[short_whole])


def _follows_grammar(pulse: np.ndarray, qd: np.ndarray, detected: np.ndarray) -> bool:
    """Whether rows follow the grammar that _kept_pairs states.

    Sorted by pulse; per pulse at most two QD rows, first, and at most one
    other row after them; a lost QD row (an anchor) only first.
    """
    new_pulse = np.ones(pulse.size, dtype=bool)
    new_pulse[1:] = pulse[1:] != pulse[:-1]
    at = np.arange(pulse.size)
    rank = at - np.maximum.accumulate(np.where(new_pulse, at, 0))
    last = np.append(new_pulse[1:], True)
    return bool(np.all(pulse[1:] >= pulse[:-1]) and np.all(rank[qd] <= 1)
                and np.all(last[~qd]) and np.all(rank[qd & ~detected] == 0))


@pytest.mark.parametrize("source,setup,n_pulses,chunk_pulses", [
    (GOLDEN_SOURCES["exciton"], SetupParams(), 200_000, None),
    (GOLDEN_SOURCES["trion"], LOSSLESS, 100_000, None),
    (GOLDEN_SOURCES["exciton"], SetupParams(laser_leak_per_pulse=0.05, dark_rate_cps=3e5),
     200_000, None),
    # Anchors, re-excitation and leak rows in most pulses, over 100 chunks.
    (trion_source(S11_TAU_PS, brightness_first_lens=0.5, p_two_photon=0.25),
     SetupParams(eta_setup=0.5, eta_det=1.0, laser_leak_per_pulse=0.3), 5_000, 50),
], ids=["default-anchors", "lossless", "leak-dark", "carried"])
def test_the_hom_stage_pairs_rows_in_the_grammar(monkeypatch, source, setup, n_pulses,
                                                  chunk_pulses):
    # _kept_pairs relies on the row order that _simulate_chunk and
    # _carry_rows make, so every call of a train must see it.
    if chunk_pulses is not None:
        monkeypatch.setattr(photon_sim, "CHUNK_PULSES", chunk_pulses)
        monkeypatch.setattr(photon_sim, "CHUNK_ROWS", 0)
    calls = []

    def checked(pulse, qd, arm, detected):
        assert _follows_grammar(pulse, qd, detected)
        # Chunk i starts at pulse i * chunk_pulses; rows before it were carried in.
        lo = len(calls) * (chunk_pulses or 0)
        calls.append((np.count_nonzero(pulse < lo), np.count_nonzero(qd & ~detected),
                      np.count_nonzero(~qd), np.count_nonzero(pulse[1:] == pulse[:-1])))
        return _kept_pairs(pulse, qd, arm, detected)

    monkeypatch.setattr(photon_sim, "_kept_pairs", checked)
    for _ in detected_chunks(7, 0, source, setup, n_pulses, "hom"):
        pass
    carried, anchors, others, shared = np.array(calls).T
    assert shared.sum() > 0
    assert (anchors.sum() > 0) == (setup.eta_total < 1.0)
    assert (others.sum() > 0) == (setup.laser_leak_per_pulse > 0)
    if chunk_pulses is not None:
        assert len(calls) == n_pulses // chunk_pulses
        assert np.count_nonzero(carried) > 10


def test_pairing_holds_a_block_of_look_ahead():
    # The look-ahead of _kept_pairs is made a block of rows at a time, so
    # its temporaries do not grow with the chunk.
    rng = np.random.default_rng(11)
    pulse, qd, arm, detected = _grammar_rows(rng, np.arange(450_000, dtype=np.int64), 1.0)
    n = pulse.size
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        long_met, short_met = _kept_pairs(pulse, qd, arm, detected)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert long_met.size > n // 10
    assert peak - before < 12 * n, f"{(peak - before) / n:.1f} bytes per row"


@pytest.mark.parametrize("carry_in", [False, True])
def test_carrying_rows_holds_one_column_more_than_the_chunk(carry_in):
    # A chunk that carries rows in or on is joined one column at a time, so
    # it never holds a second copy of all its rows.
    n, hi = 400_000, 1_000_000
    tracemalloc.start()
    try:
        # Two rows per pulse, every one on the long arm, so the chunk's last
        # pulse carries two rows on.
        columns = [np.repeat(np.arange(hi - n // 2, hi, dtype=np.int64), 2), np.ones(n),
                   np.zeros(n, dtype=np.int8), np.ones(n, dtype=bool)]
        carry = None
        if carry_in:
            carry = (np.full(3, hi - n // 2 - 1), np.ones(3), np.zeros(3, dtype=np.int8),
                     np.ones(3, dtype=bool))
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rows, carried_on = _carry_rows(columns, carry, hi, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert columns == []
    assert rows[0].size == n - 2 + (3 if carry_in else 0)
    assert carried_on[0].tolist() == [hi - 1] * 2
    # The chunk's rows take 18 bytes each; its widest column, 8.
    assert peak - before < 10 * n, f"{(peak - before) / n:.1f} bytes per row"


def test_streaming_rejects_clicks_that_reach_back_a_period(monkeypatch):
    # A jitter far wider than the period puts clicks of a chunk before the
    # previous chunk's last pulse, where they would already be folded.
    # Both trains are cut the same way, so both raise.
    setup = SetupParams(eta_setup=1.0, eta_det=1.0, jitter_fwhm_ps=1e6)
    monkeypatch.setattr(photon_sim, "CHUNK_PULSES", 100)
    monkeypatch.setattr(photon_sim, "CHUNK_ROWS", 0)
    assert len(_chunks(1_000, _chunk_pulses(S11, setup))) == 10
    for train in ("hbt", "hom"):
        with pytest.raises(RuntimeError, match="jitter"):
            list(detected_chunks(1, 0, S11, setup, 1_000, train))


def _expected_rows_per_pulse(source, setup) -> float:
    """Rows per pulse of _simulate_chunk: first photons, anchors, re-excitation and leak photons."""
    b, p2 = source.brightness_first_lens, source.p_two_photon
    r = p2 / b if p2 else 0.0
    eta = setup.eta_total
    first = b * eta
    anchor = b * (1 - eta) * r * eta
    # A detected first photon's re-excitation photon is detected with
    # probability r eta; an anchor's always is.
    return first + anchor + first * r * eta + anchor + setup.laser_leak_per_pulse * eta


#: An efficiency, eta_setup or eta_det, over its whole range (0, 1].
_EFFICIENCIES = st.floats(0.0, 1.0, exclude_min=True)


@st.composite
def _sources_and_setups(draw):
    """A trion source and a setup, over the whole range of b, p2, eta and the leak."""
    b = draw(st.floats(0.0, 0.5))
    source = trion_source(150.0, brightness_first_lens=b,
                          p_two_photon=draw(st.floats(0.0, 1.0)) * b)
    setup = SetupParams(eta_setup=draw(_EFFICIENCIES), eta_det=draw(_EFFICIENCIES),
                        laser_leak_per_pulse=draw(st.sampled_from([0.0, 1e-4, 0.02, 1.0])))
    return source, setup


#: The sizes of draw_fleet(2026)'s chunks, as powers of two.  At the default
#: efficiency a chunk of 2**20 pulses expects 6k to 24k rows, so every
#: source's chunks grow; without losses, only X01's expect fewer than 2**16.
_FLEET_CHUNK_LOG2 = {
    "default": {"X01": 24, "X02": 23, "X03": 23, "X04": 23, "X05": 23, "X06": 23, "X07": 22,
                "T01": 22, "T02": 22, "T03": 23, "T04": 23, "T05": 23, "T06": 22, "T07": 23,
                "T08": 23},
    "lossless": {"X01": 21, **{label: 20 for label in (
        "X02", "X03", "X04", "X05", "X06", "X07",
        "T01", "T02", "T03", "T04", "T05", "T06", "T07", "T08")}},
}


class TestChunkPulses:
    @settings(max_examples=300, deadline=None)
    @given(case=_sources_and_setups())
    def test_a_chunk_is_the_smallest_power_of_two_that_expects_its_rows(self, case):
        source, setup = case
        size = _chunk_pulses(source, setup)
        assert size in [CHUNK_PULSES << k for k in range(7)]
        rows = size * _expected_rows_per_pulse(source, setup)
        if size < 64 * CHUNK_PULSES:
            assert rows >= CHUNK_ROWS * (1 - 1e-12)
        if size > CHUNK_PULSES:
            assert rows < 2 * CHUNK_ROWS * (1 + 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(case=_sources_and_setups(), low=_EFFICIENCIES, high=_EFFICIENCIES)
    def test_brighter_sources_and_higher_efficiencies_never_get_longer_chunks(self, case, low,
                                                                              high):
        source, setup = case
        low, high = sorted((low, high))
        p2 = source.p_two_photon
        dim, bright = (dataclasses.replace(source, brightness_first_lens=p2 + x * (0.5 - p2))
                       for x in (low, high))
        assert _chunk_pulses(bright, setup) <= _chunk_pulses(dim, setup)
        lossy, efficient = (dataclasses.replace(setup, eta_setup=x) for x in (low, high))
        assert _chunk_pulses(source, efficient) <= _chunk_pulses(source, lossy)

    @pytest.mark.parametrize("setup_name", sorted(_FLEET_CHUNK_LOG2))
    def test_fleet_chunks(self, setup_name):
        setup = LOSSLESS if setup_name == "lossless" else SetupParams()
        sizes = {s.label: _chunk_pulses(s, setup) for s in draw_fleet(2026)}
        assert sizes == {label: 1 << k for label, k in _FLEET_CHUNK_LOG2[setup_name].items()}

    def test_a_chunk_holds_its_expected_rows(self):
        # With anchors, re-excitation and leak photons, one chunk's rows
        # are within five standard deviations of the expected count.
        src = trion_source(150.0, brightness_first_lens=0.4, p_two_photon=0.05)
        setup = SetupParams(laser_leak_per_pulse=0.02)
        rows = _simulate_chunk(RngSpec(29, 0), src, setup, 0, CHUNK_PULSES, 0)[0].size
        expect = CHUNK_PULSES * _expected_rows_per_pulse(src, setup)
        # A pulse gives at most three rows, so the count's variance is below
        # three times its mean.
        assert abs(rows - expect) < 5 * math.sqrt(3 * expect)


@st.composite
def _chunk_streams(draw):
    """(period, [(hi, t0, t1), ...]): sorted int64 chunk streams that overlap at their edges.

    Chunk k ends at pulse hi_k.  From chunk 1 on, a chunk's clicks start no
    earlier than floor((hi_{k-1} - 1) * period), the start of the previous
    chunk's last pulse, and any chunk's clicks may run two periods past
    its own end, into the next chunks.
    """
    period = draw(st.sampled_from([1.0, 2.5, 10.0]))
    chunks, hi, low = [], 0, -20
    for _ in range(draw(st.integers(1, 6))):
        hi += draw(st.integers(1, 4))
        high = math.floor((hi + 2) * period)
        times = st.lists(st.integers(low, high), max_size=12)
        chunks.append((hi, *(np.array(sorted(draw(times)), dtype=np.int64) for _ in range(2))))
        low = math.floor((hi - 1) * period)
    return period, chunks


@settings(max_examples=300, deadline=None)
@given(streams=_chunk_streams(), data=st.data())
def test_time_ordered_blocks_are_the_sorted_streams(streams, data):
    period, chunks = streams
    blocks = list(photon_sim._time_ordered(iter(chunks), period))
    # One block per chunk, and one of the clicks carried past the last.
    assert len(blocks) == len(chunks) + 1
    for channel in range(2):
        joined = np.concatenate([block[channel] for block in blocks])
        assert joined.dtype == np.int64
        assert np.array_equal(joined, np.sort(np.concatenate([c[1 + channel] for c in chunks])))
    spans = [(min(t[0] for t in b if t.size), max(t[-1] for t in b if t.size))
             for b in blocks if any(t.size for t in b)]
    assert all(last < first for (_, last), (first, _) in zip(spans, spans[1:]))

    if len(chunks) > 1:
        # A click before the previous chunk's last pulse reaches back.
        k = data.draw(st.integers(1, len(chunks) - 1))
        channel = data.draw(st.integers(0, 1))
        settled = math.floor((chunks[k - 1][0] - 1) * period)
        early = data.draw(st.integers(settled - 30, settled - 1))
        hi, *times = chunks[k]
        times[channel] = np.sort(np.append(times[channel], early))
        chunks[k] = (hi, *times)
        with pytest.raises(RuntimeError, match="precedes"):
            list(photon_sim._time_ordered(iter(chunks), period))


def test_time_ordered_keeps_no_block_it_yielded():
    # A block's clicks are freed as soon as its consumer drops it, before
    # the next chunk is simulated: the cutter holds no reference to it.
    period = 10.0
    chunks = ((hi, *(np.arange(10 * hi - 30, 10 * hi + 15, step, dtype=np.int64)
                     for step in (5, 7)))
              for hi in (3, 6, 9))
    for block in photon_sim._time_ordered(chunks, period):
        refs = [weakref.ref(a) for t in block for a in (t, t.base) if a is not None]
        del block
        gc.collect()
        assert all(ref() is None for ref in refs)


def _anchors(pulse: np.ndarray, qd: np.ndarray, detected: np.ndarray) -> np.ndarray:
    """Lost QD photons followed, later in their pulse, by a detected QD photon."""
    anchor = np.zeros(pulse.size, dtype=bool)
    for i in np.flatnonzero(qd & detected):
        earlier = np.flatnonzero((pulse[:i] == pulse[i]) & qd[:i] & ~detected[:i])
        anchor[earlier] = True
    return anchor


def _train_digest(source, setup, seed: int, n_pulses: int) -> str:
    """SHA-256 over every array one HBT and one HOM train of source 0 produce."""
    h = hashlib.sha256()

    def add(*arrays):
        for a in arrays:
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())

    streams = source_streams(seed, 0)
    for events, clicks, overlap in ((streams.hbt_events, streams.hbt_clicks, None),
                                    (streams.hom_events, streams.hom_clicks, source.overlap)):
        add(*train_rows(events, source, setup, n_pulses))
        add(*train_clicks(events, clicks, source, setup, n_pulses, overlap))
    return h.hexdigest()


#: Pinned stream digests of stream layout 6.  A change to any random draw,
#: its order, the chunk bounds or the event layout changes them; such a
#: change must bump ``STREAM_LAYOUT`` deliberately and record new digests.
#: Click arrays are hashed as the int64 picoseconds the detector stages
#: return.  The lossless trains' chunks stay at ``CHUNK_PULSES``, so their
#: digests are layout 5's; the others' trains are 2 * 2**21 + 18929 pulses
#: long, and equal layout 5's streams at ``CHUNK_PULSES = 2**21``.
_GOLDEN_DIGESTS = {
    ("exciton", "default"):
        "42428b1ec158ae0ad1b52f0a3d0b1680719b14878aad2494561222d0eee94b9f",
    ("exciton", "lossless"):
        "9646073f87c4b43144d922a0c7307f253bf0851536aa8818b6f40979f047bf6e",
    ("exciton", "leak_dark"):
        "c195fde7472fbaac9edb2559af0d50a8b8c6d1348b84fd04dcc51fcdb7a930b1",
    ("trion", "default"):
        "01a4fcd11442162c0a3ef9ac61f17c632ab3770a84cc5829b86803489cb237b1",
    ("trion", "lossless"):
        "e15e91615201814666809a63707f53b39c5c2164fc10733b37864a26c2ea72fe",
    ("trion", "leak_dark"):
        "72af86f5e22033bee5ed9a898b8ad376cd1ace5bfb4160d5871ed3f9de5c694c",
}


@pytest.mark.parametrize("source_name,setup_name", sorted(_GOLDEN_DIGESTS))
def test_golden_stream_digest(source_name, setup_name):
    # Three chunks of the train's own size, the last one short.
    source, setup = GOLDEN_SOURCES[source_name], GOLDEN_SETUPS[setup_name]
    n = 2 * _chunk_pulses(source, setup) + 18_929
    digest = _train_digest(source, setup, 2026, n)
    assert digest == _GOLDEN_DIGESTS[(source_name, setup_name)]


def test_source_streams_lay_out_eight_ids_per_source():
    # Source i owns ids 8 i ... 8 i + 7: five streams, then three reserved.
    for index in (0, 1, 14):
        streams = source_streams(2026, index)
        assert streams == tuple(RngSpec(2026, 8 * index + k) for k in range(5))
    assert source_streams(2026, 3)._fields == (
        "hbt_events", "hbt_clicks", "hom_events", "hom_clicks", "phi_scan")


def test_detected_chunks_rejects_an_unknown_train():
    with pytest.raises(ValueError, match="train must be one of"):
        detected_chunks(1, 0, S11, SetupParams(), 1_000, "g2")
