import hashlib
import math

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
    single_photon_batch,
)

from qdbench.dynamics import exciton_cross_intensity, peak_emission_delay
from qdbench.model import SetupParams, SourceValidationError, exciton_source, trion_source
from qdbench.photon_sim import (
    CHUNK_PULSES,
    EventBatch,
    Origin,
    RngSpec,
    UnsamplableEmissionError,
    _bernoulli,
    _exciton_inverse_cdf_table,
    _interp_sorted,
    _kept_pairs,
    _pair_overlap,
    _simulate_chunk,
    hbt_streams,
    hom_streams,
    sample_emission_time,
    simulate_pulse_train,
)

S7 = exciton_source(S7_TAU_PS, S7_DELTA_UEV, math.pi / 4, brightness_first_lens=0.136, label="S7")
S11 = trion_source(S11_TAU_PS, brightness_first_lens=0.147, label="S11")
LOSSLESS = SetupParams(eta_setup=1.0, eta_det=1.0)


def qd_photons_per_pulse(batch: EventBatch) -> np.ndarray:
    return np.bincount(batch.pulse_index[batch.qd_mask()], minlength=batch.n_pulses)


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
        assert mode == pytest.approx(peak_emission_delay(S7.exciton), abs=3.0)

    def test_exciton_mean_matches_quadrature(self):
        rng = RngSpec(13, 0).generator()
        n = 1_000_000
        draws = sample_emission_time(rng, S7, size=n)
        weight, _ = integrate.quad(
            lambda t: float(exciton_cross_intensity(t, S7.exciton)), 0, 40 * S7_TAU_PS, limit=400
        )
        first_moment, _ = integrate.quad(
            lambda t: t * float(exciton_cross_intensity(t, S7.exciton)), 0, 40 * S7_TAU_PS, limit=400
        )
        expected_mean = first_moment / weight
        se = np.std(draws) / math.sqrt(n)
        assert abs(np.mean(draws) - expected_mean) < 3 * se

    def test_dark_exciton_unsamplable(self):
        rng = RngSpec(1, 0).generator()
        with pytest.raises(UnsamplableEmissionError):
            sample_emission_time(rng, exciton_source(252.0, 8.58, 0.0), size=10)
        with pytest.raises(UnsamplableEmissionError):
            sample_emission_time(rng, exciton_source(252.0, 0.0, 0.7), size=10)

    def test_sorted_lookup_bit_equal_to_interp(self):
        cdf, t = _exciton_inverse_cdf_table(S7.exciton.tau_ps, S7.exciton.delta_fss_uev,
                                            S7.exciton.theta_rad)
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


class TestSimulatePulseTrain:
    def test_no_reexcitation_when_p_two_photon_zero(self):
        batch = simulate_pulse_train(RngSpec(21, 0), S11, SetupParams(), 200_000)
        assert np.max(qd_photons_per_pulse(batch)) == 1
        assert not np.any(batch.origin == Origin.QD_REEXCITE)

    def test_first_photon_count_binomial(self):
        src = trion_source(S11_TAU_PS, brightness_first_lens=0.136)
        batch = simulate_pulse_train(RngSpec(22, 0), src, LOSSLESS, 1_000_000)
        n_first = int(np.count_nonzero(batch.origin == Origin.QD_FIRST))
        assert n_first == pytest.approx(136_000, abs=1_000)

    def test_all_probabilities_zero_gives_empty_stream(self):
        src = trion_source(100.0, brightness_first_lens=0.0)
        batch = simulate_pulse_train(RngSpec(23, 0), src, SetupParams(), 10_000)
        assert len(batch) == 0

    def test_invalid_two_photon_probability_rejected(self):
        src = trion_source(100.0, brightness_first_lens=0.1)
        object.__setattr__(src, "p_two_photon", 0.2)
        with pytest.raises(SourceValidationError):
            simulate_pulse_train(RngSpec(1, 0), src, SetupParams(), 100)

    def test_reexcitation_rate_and_delay(self):
        src = trion_source(150.0, brightness_first_lens=0.4, p_two_photon=0.02)
        batch = simulate_pulse_train(RngSpec(24, 0), src, LOSSLESS, 500_000)
        counts = qd_photons_per_pulse(batch)
        p2_hat = np.count_nonzero(counts >= 2) / batch.n_pulses
        assert p2_hat == pytest.approx(0.02, abs=0.001)
        # The second photon is always emitted after the first one.
        re_mask = batch.origin == Origin.QD_REEXCITE
        re_pulses = batch.pulse_index[re_mask]
        first_by_pulse = {}
        for pulse, t, origin in zip(batch.pulse_index, batch.emit_time_ps, batch.origin):
            if origin == Origin.QD_FIRST:
                first_by_pulse[pulse] = t
        for pulse, t in zip(re_pulses[:500], batch.emit_time_ps[re_mask][:500]):
            assert t > first_by_pulse[pulse]

    def test_laser_leak_events(self):
        src = trion_source(100.0, brightness_first_lens=0.0)
        setup = SetupParams(eta_setup=1.0, eta_det=1.0, laser_leak_per_pulse=0.05)
        batch = simulate_pulse_train(RngSpec(25, 0), src, setup, 200_000)
        n_leak = int(np.count_nonzero(batch.origin == Origin.LASER))
        assert n_leak == pytest.approx(10_000, abs=400)
        leak_times = batch.emit_time_ps[batch.origin == Origin.LASER]
        assert np.std(leak_times) == pytest.approx(15.0 / 2.35482, rel=0.05)

    def test_deterministic_and_thread_invariant(self):
        n = 3 * CHUNK_PULSES + 1234
        a = simulate_pulse_train(RngSpec(77, 3), S11, SetupParams(), n)
        b = simulate_pulse_train(RngSpec(77, 3), S11, SetupParams(), n)
        assert np.array_equal(a.pulse_index, b.pulse_index)
        assert np.array_equal(a.emit_time_ps, b.emit_time_ps)
        assert np.array_equal(a.origin, b.origin)
        # Each chunk depends only on its own key, so chunks simulated in any
        # order, on any thread, concatenate to the same train.
        starts = range(0, n, CHUNK_PULSES)
        chunks = [None] * len(starts)
        for i in reversed(range(len(starts))):
            hi = min(starts[i] + CHUNK_PULSES, n)
            chunks[i] = _simulate_chunk(RngSpec(77, 3), S11, SetupParams(), starts[i], hi, i)
        pulse, emit, origin = (np.concatenate(column) for column in zip(*chunks))
        assert np.array_equal(pulse, a.pulse_index)
        assert np.array_equal(emit, a.emit_time_ps)
        assert np.array_equal(origin, a.origin)
        c = simulate_pulse_train(RngSpec(77, 4), S11, SetupParams(), n)
        assert not np.array_equal(a.emit_time_ps, c.emit_time_ps)

    def test_events_sorted_by_pulse(self):
        batch = simulate_pulse_train(RngSpec(26, 0), S7, SetupParams(), 100_000)
        assert np.all(np.diff(batch.pulse_index) >= 0)

    @pytest.mark.parametrize("leak", [0.0, 0.05])
    def test_thinning_at_emission_keeps_the_detected_photons(self, leak):
        # The emission decisions are drawn before detection, so a lossless
        # train from the same key holds every photon the lossy one emitted.
        n = 2 * CHUNK_PULSES + 5_000
        src = trion_source(150.0, brightness_first_lens=0.4, p_two_photon=0.05)
        lossless = SetupParams(eta_setup=1.0, eta_det=1.0, laser_leak_per_pulse=leak)
        lossy = SetupParams(laser_leak_per_pulse=leak)
        full = simulate_pulse_train(RngSpec(27, 0), src, lossless, n)
        thin = simulate_pulse_train(RngSpec(27, 0), src, lossy, n)
        assert not np.any(full.origin == Origin.ANCHOR)
        assert np.all(full.detected_mask())

        photons = len(full)
        kept = int(np.count_nonzero(thin.detected_mask()))
        eta = lossy.eta_total
        assert abs(kept - eta * photons) < 4 * math.sqrt(photons * eta * (1 - eta))
        # Every row is a photon of the full train: same pulse, same kind.
        for kind in (Origin.QD_REEXCITE, Origin.LASER):
            assert np.all(np.isin(thin.pulse_index[thin.origin == kind],
                                  full.pulse_index[full.origin == kind]))
        # An anchor is the lost first photon of a pulse whose re-excitation
        # photon is kept, and it comes right before that photon.
        anchors = np.flatnonzero(thin.origin == Origin.ANCHOR)
        assert anchors.size > 0
        assert np.all(thin.origin[anchors + 1] == Origin.QD_REEXCITE)
        assert np.array_equal(thin.pulse_index[anchors + 1], thin.pulse_index[anchors])
        assert np.all(thin.emit_time_ps[anchors + 1] > thin.emit_time_ps[anchors])
        assert (thin.brightness, thin.p_two_photon) == (0.4, 0.05)


class TestHbtStreams:
    def test_one_click_per_pulse_balanced_channels(self, ideal_setup):
        n = 1_000_000
        batch = single_photon_batch(n)
        t0, t1 = hbt_streams(RngSpec(31, 0), batch, ideal_setup)
        assert t0.size + t1.size == n
        assert t0.size / n == pytest.approx(0.5, abs=0.002)

    def test_two_photons_split_half_the_time(self, ideal_setup):
        n = 200_000
        pulse = np.repeat(np.arange(n, dtype=np.int64), 2)
        batch = EventBatch(pulse, np.zeros(2 * n), np.zeros(2 * n, dtype=np.int8), n)
        t0, t1 = hbt_streams(RngSpec(32, 0), batch, ideal_setup)
        period = ideal_setup.rep_period_ps
        c0 = np.bincount(np.rint(t0 / period).astype(int), minlength=n)
        c1 = np.bincount(np.rint(t1 / period).astype(int), minlength=n)
        split = np.count_nonzero((c0 == 1) & (c1 == 1)) / n
        assert split == pytest.approx(0.5, abs=0.005)

    def test_jitter_width(self):
        setup = SetupParams(eta_setup=1.0, eta_det=1.0, jitter_fwhm_ps=53.0)
        n = 200_000
        batch = single_photon_batch(n)
        t0, t1 = hbt_streams(RngSpec(33, 0), batch, setup)
        period = setup.rep_period_ps
        residual = np.concatenate([t0, t1]).astype(float)
        residual -= np.rint(residual / period) * period
        assert np.std(residual) == pytest.approx(22.507, rel=0.02)

    def test_streams_globally_sorted(self):
        batch = simulate_pulse_train(RngSpec(34, 0), S11, SetupParams(), 100_000)
        t0, t1 = hbt_streams(RngSpec(34, 1), batch, SetupParams())
        assert t0.dtype == t1.dtype == np.int64
        assert np.all(np.diff(t0) >= 0)
        assert np.all(np.diff(t1) >= 0)

    def test_thinning_composition_matches_single_stage(self):
        # Thinning inside simulate_pulse_train at eta_setup*eta_det versus
        # a lossless train thinned by hand at eta_setup, then at eta_det,
        # must give the same per-pulse click distribution.
        n = 1_000_000
        setup_single = SetupParams(eta_setup=0.40, eta_det=0.30, jitter_fwhm_ps=0.0)
        setup_lossless = SetupParams(eta_setup=1.0, eta_det=1.0, jitter_fwhm_ps=0.0)
        src = trion_source(150.0, brightness_first_lens=0.3, p_two_photon=0.01)
        batch = simulate_pulse_train(RngSpec(35, 0), src, setup_single, n)
        a0, a1 = hbt_streams(RngSpec(35, 1), batch, setup_single)

        pre = simulate_pulse_train(RngSpec(35, 2), src, setup_lossless, n)
        for stage, eta in enumerate((0.40, 0.30)):
            keep = RngSpec(35, 3 + stage).generator().random(len(pre)) < eta
            pre = EventBatch(pre.pulse_index[keep], pre.emit_time_ps[keep], pre.origin[keep], n)
        b0, b1 = hbt_streams(RngSpec(35, 5), pre, setup_lossless)

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
        batch = simulate_pulse_train(RngSpec(36, 0), src, setup, 1_000_000)
        t0, t1 = hbt_streams(RngSpec(36, 1), batch, setup)
        duration_s = 1_000_000 * setup.rep_period_ps * 1e-12
        expect = 100_000.0 * duration_s
        assert t0.size == pytest.approx(expect, abs=4 * math.sqrt(expect))
        assert t1.size == pytest.approx(expect, abs=4 * math.sqrt(expect))


class TestHomStreams:
    def test_perfect_overlap_empties_zero_delay_peak(self, clean_setup):
        n = 500_000
        batch = single_photon_batch(n)
        t0, t1 = hom_streams(RngSpec(41, 0), batch, clean_setup, overlap=1.0)
        # Zero-delay coincidences: cross-channel pairs within +-2 ns.
        lo = np.searchsorted(t1, t0 - 2000.0)
        hi = np.searchsorted(t1, t0 + 2000.0)
        assert int(np.sum(hi - lo)) == 0

    def test_zero_overlap_gives_zero_visibility(self, clean_setup):
        from qdbench.correlation import build_histogram, hom_visibility

        n = 1_000_000
        batch = single_photon_batch(n)
        t0, t1 = hom_streams(RngSpec(42, 0), batch, clean_setup, overlap=0.0)
        period = clean_setup.rep_period_ps
        hist = build_histogram(t0, t1, 100.0, 10.5 * period, period)
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
        batch = simulate_pulse_train(RngSpec(43, 0), src, setup, n)
        t0, t1 = hom_streams(RngSpec(43, 1), batch, setup, overlap=1.0)
        period = setup.rep_period_ps
        hist = build_histogram(t0, t1, 100.0, 10.5 * period, period)
        zero = integrate_peaks(hist, 2000.0, [0])[0].area
        # Perfect overlap removes QD-QD zero-delay pairs, so everything
        # left comes from the classical leak light.
        assert zero > 0

    def test_invalid_overlap_rejected(self, clean_setup):
        with pytest.raises(ValueError):
            hom_streams(RngSpec(1, 0), single_photon_batch(10), clean_setup, overlap=1.5)

    def test_deterministic(self, clean_setup):
        n = 200_000
        batch = simulate_pulse_train(RngSpec(44, 0), S11, clean_setup, n)
        a = hom_streams(RngSpec(44, 1), batch, clean_setup, 0.9)
        b = hom_streams(RngSpec(44, 1), batch, clean_setup, 0.9)
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
        ev = simulate_pulse_train(RngSpec(45, 0), src, clean_setup, n)
        a, b = hbt_streams(RngSpec(45, 1), ev, clean_setup)
        g2 = g2_zero(build_histogram(a, b, 100.0, 10.5 * period, period))
        ev2 = simulate_pulse_train(RngSpec(45, 2), src, clean_setup, n)
        c, d = hom_streams(RngSpec(45, 3), ev2, clean_setup, 0.85)
        vis = hom_visibility(build_histogram(c, d, 100.0, 10.5 * period, period))
        m = corrected_overlap(vis.value, g2.value)
        sigma = math.hypot(vis.std_err, 2 * g2.std_err)
        assert abs(m.value - 0.85) < 3 * sigma

    def test_unsorted_events_rejected(self, clean_setup):
        batch = single_photon_batch(10)
        shuffled = EventBatch(batch.pulse_index[::-1].copy(), batch.emit_time_ps,
                              batch.origin, batch.n_pulses)
        with pytest.raises(ValueError, match="sorted"):
            hom_streams(RngSpec(1, 0), shuffled, clean_setup, overlap=0.5)

    def test_pairing_and_overlap_match_dense_reference(self):
        # Pulses with zero to three QD photons, plus laser photons that never
        # pair, checked against the per-pulse (dense) formulations.
        rng = np.random.default_rng(47)
        n = 20_000
        per_pulse = rng.choice(4, size=n, p=[0.5, 0.3, 0.15, 0.05])
        pulse = np.repeat(np.arange(n, dtype=np.int64), per_pulse)
        origin = rng.choice([Origin.QD_FIRST, Origin.QD_REEXCITE, Origin.LASER],
                            size=pulse.size, p=[0.6, 0.3, 0.1]).astype(np.int8)
        batch = EventBatch(pulse, np.zeros(pulse.size), origin, n)
        arm = rng.integers(0, 2, size=pulse.size)
        qd = batch.qd_mask()

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
        t0, t1 = hom_streams(RngSpec(46, 0), batch, clean_setup, overlap=0.5)
        period = clean_setup.rep_period_ps
        hist = build_histogram(t0, t1, 100.0, 10.5 * period, period)
        areas = {
            p.peak_index: p.area
            for p in integrate_peaks(hist, 2000.0, [-3, -2, -1, 1, 2, 3])
        }
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
            batch = simulate_pulse_train(RngSpec(48, 0), src, setup, n)
            t0, t1 = hom_streams(RngSpec(48, 1), batch, setup, overlap)
            period = setup.rep_period_ps
            vis.append(hom_visibility(build_histogram(t0, t1, 100.0, 10.5 * period, period)))
        lossy, lossless = vis
        assert lossy.side_mean > 1000
        assert abs(lossy.value - lossless.value) <= 4 * math.hypot(lossy.std_err,
                                                                   lossless.std_err)


@st.composite
def _paired_batches(draw):
    """Pulses of zero to three events across a chunk edge, with arms and detections."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 400))
    per_pulse = rng.choice(4, size=n, p=[0.3, 0.3, 0.25, 0.15])
    start = CHUNK_PULSES - n // 2
    pulse = np.repeat(np.arange(start, start + n, dtype=np.int64), per_pulse)
    origin = rng.choice([Origin.QD_FIRST, Origin.QD_REEXCITE, Origin.LASER],
                        size=pulse.size, p=[0.5, 0.3, 0.2])
    arm = rng.random(pulse.size) < 0.5
    detected = _bernoulli(rng, draw(st.sampled_from([0.0, 0.12, 1.0])), pulse.size)
    return pulse, origin <= Origin.QD_REEXCITE, arm, detected


@settings(max_examples=300, deadline=None)
@given(case=_paired_batches())
def test_kept_pairs_are_the_full_batch_pairs_both_detected(case):
    pulse, qd, arm, detected = case
    long_ref, short_ref = greedy_pairs(pulse, qd, arm)
    both = detected[long_ref] & detected[short_ref]
    long_kept, short_kept = _kept_pairs(pulse, qd, arm, detected)
    assert np.array_equal(long_kept, long_ref[both])
    assert np.array_equal(short_kept, short_ref[both])

    # Thinned as simulate_pulse_train thins: the detected rows, plus the
    # anchors, the lost QD photons that precede a detected QD photon of
    # their pulse.  The pairs, mapped back to the full batch, are the same.
    rows = np.flatnonzero(detected | _anchors(pulse, qd, detected))
    long_thin, short_thin = _kept_pairs(pulse[rows], qd[rows], arm[rows], detected[rows])
    assert np.array_equal(rows[long_thin], long_ref[both])
    assert np.array_equal(rows[short_thin], short_ref[both])


def _anchors(pulse: np.ndarray, qd: np.ndarray, detected: np.ndarray) -> np.ndarray:
    """Lost QD photons followed, later in their pulse, by a detected QD photon."""
    anchor = np.zeros(pulse.size, dtype=bool)
    for i in np.flatnonzero(qd & detected):
        earlier = np.flatnonzero((pulse[:i] == pulse[i]) & qd[:i] & ~detected[:i])
        anchor[earlier] = True
    return anchor


def _train_digest(source, setup, seed: int, n_pulses: int) -> str:
    """SHA-256 over every array one HBT and one HOM train produce."""
    h = hashlib.sha256()

    def add(*arrays):
        for a in arrays:
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())

    hbt_ev = simulate_pulse_train(RngSpec(seed, 0), source, setup, n_pulses)
    add(hbt_ev.pulse_index, hbt_ev.emit_time_ps, hbt_ev.origin)
    add(*hbt_streams(RngSpec(seed, 1), hbt_ev, setup))
    hom_ev = simulate_pulse_train(RngSpec(seed, 2), source, setup, n_pulses)
    add(hom_ev.pulse_index, hom_ev.emit_time_ps, hom_ev.origin)
    add(*hom_streams(RngSpec(seed, 3), hom_ev, setup, source.overlap))
    return h.hexdigest()


#: Pinned stream digests of stream layout 3.  A change to any random draw,
#: its order or the event layout changes them; such a change must bump
#: ``STREAM_LAYOUT`` deliberately and record new digests.  Click arrays are
#: hashed as the int64 picoseconds the stream functions return.
_GOLDEN_DIGESTS = {
    ("exciton", "default"):
        "cd064a7071bf578f7914bd14ca733f727d3ed0b7489ed81d461ee011da9755c2",
    ("exciton", "lossless"):
        "f36581397244cfdc49a751aaed8f6fb01b5546d560a0976b916d062dcbde70d7",
    ("exciton", "leak_dark"):
        "e27cd3070198f8347e3130fb070fbacd80ee990f4a8de5ba75bdf249ee08e4f0",
    ("trion", "default"):
        "5086fcbe406ed3e7fb4294ecd927a9c09440d4640010c9a8f7f5c516d5ab47bb",
    ("trion", "lossless"):
        "eea144e39f7fdfae0ef7a4adaea6cefe2256250e78cdfc3c005734bcb30d904b",
    ("trion", "leak_dark"):
        "e7b07b70e50d80f556f2e6b72e01572e03d898dd49725b748f8cd4405b33d7ac",
}


@pytest.mark.parametrize("source_name,setup_name", sorted(_GOLDEN_DIGESTS))
def test_golden_stream_digest(source_name, setup_name):
    n = 2 * CHUNK_PULSES + 18_929
    digest = _train_digest(GOLDEN_SOURCES[source_name], GOLDEN_SETUPS[setup_name], 2026, n)
    assert digest == _GOLDEN_DIGESTS[(source_name, setup_name)]
