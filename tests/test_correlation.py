import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import (
    S11_TAU_PS,
    detector_clicks,
    poissonian_pulse_train,
    read_histogram,
    train_clicks,
)

from qdbench.correlation import (
    SIDE_PEAKS,
    CorrelationHistogram,
    PairCounter,
    brightness_chain,
    build_histogram,
    corrected_overlap,
    g2_zero,
    hom_visibility,
    integrate_peaks,
)
from qdbench.model import SetupParams, trion_source
from qdbench.photon_sim import RngSpec
from qdbench.pipeline import write_histogram

PERIOD = SetupParams().rep_period_ps


def ps(times) -> np.ndarray:
    """Times rounded to int64 picoseconds, the form click streams take."""
    return np.rint(times).astype(np.int64)


def make_hist(zero_area: int, side_area: int, bin_width=100.0, periods=10):
    """Hand-built histogram with given zero and side peak contents."""
    half = int(round(periods * PERIOD / bin_width)) + 10
    counts = np.zeros(2 * half + 1, dtype=np.int64)
    for k in range(-periods, periods + 1):
        idx = int(round(k * PERIOD / bin_width)) + half
        counts[idx] = zero_area if k == 0 else side_area
    return CorrelationHistogram(bin_width, counts, PERIOD)


class TestBuildHistogram:
    def test_identical_streams_all_mass_at_zero(self):
        t = ps(np.arange(50) * (PERIOD * 11))
        hist = build_histogram(t, t, 100.0, PERIOD)
        zero_bin = hist.counts[hist.delays_ps == 0.0]
        assert zero_bin[0] == 50
        assert hist.counts.sum() == 50

    def test_independent_poisson_streams_flat(self):
        rng = np.random.default_rng(5150)
        duration = 2.0e9  # 2 ms in ps
        t0 = ps(np.sort(rng.uniform(0, duration, size=60_000)))
        t1 = ps(np.sort(rng.uniform(0, duration, size=60_000)))
        hist = build_histogram(t0, t1, 1000.0, PERIOD)
        expected = np.full(hist.counts.size, hist.counts.mean())
        chi2 = float(np.sum((hist.counts - expected) ** 2 / expected))
        p = stats.chi2.sf(chi2, hist.counts.size - 1)
        assert p > 0.01

    def test_pulsed_single_photons_have_empty_zero_peak(self):
        setup = SetupParams(eta_setup=1.0, eta_det=1.0)
        src = trion_source(S11_TAU_PS, brightness_first_lens=0.3)
        t0, t1 = train_clicks(RngSpec(61, 0), RngSpec(61, 1), src, setup, 300_000)
        hist = build_histogram(t0, t1, 100.0, PERIOD)
        areas = integrate_peaks(hist, 2000.0, range(-6, 7))
        assert areas[0] == 0
        for k in (1, 2, 6, -3):
            assert areas[k] > 0
        # Side peaks sit at multiples of 12345.7 ps: the nearest bins to
        # k * period carry the bulk of each peak.
        k_centers = hist.delays_ps[np.argsort(hist.counts)[-12:]]
        assert np.all(np.abs(k_centers - np.rint(k_centers / PERIOD) * PERIOD) < 2000.0)

    def test_unsorted_stream_rejected(self):
        good = np.array([0, 1, 2])
        bad = np.array([1, 0, 2])
        with pytest.raises(ValueError):
            build_histogram(good, bad, 10.0, PERIOD)
        with pytest.raises(ValueError):
            build_histogram(bad, good, 10.0, PERIOD)

    @pytest.mark.parametrize("floats", [np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.5, 2.0]),
                                        np.array([], dtype=float)])
    def test_float_clicks_rejected(self, floats):
        good = np.array([0, 1, 2], dtype=np.int64)
        with pytest.raises(ValueError, match="integer picoseconds"):
            build_histogram(floats, good, 10.0, PERIOD)
        with pytest.raises(ValueError, match="integer picoseconds"):
            build_histogram(good, floats, 10.0, PERIOD)

    def test_span_invariant_enforced(self):
        # Histograms read from files still reach the span check.
        with pytest.raises(ValueError, match="at least 10 repetition periods"):
            make_hist(0, 1, periods=5)

    def test_matches_brute_force_pair_count(self):
        # A bin width whose outermost edge, 10511.5 * 99.9 = 1050098.85 ps,
        # is not an integer: E = 1050098.  Partners sit exactly at +-E,
        # which count, and at +-(E + 1), which do not.
        e = 1_050_098
        rng = np.random.default_rng(62)
        t0 = np.sort(rng.integers(0, 10**7, 300))
        offsets = np.array([-e - 1, -e, e, e + 1])
        t1 = np.sort(np.concatenate([rng.integers(0, 10**7, 300),
                                     (t0[::30, None] + offsets).ravel()]))
        hist = build_histogram(t0, t1, 99.9, 1e5)
        edge = hist.delays_ps[-1] + 0.5 * 99.9
        assert math.floor(edge) == e
        brute = 0
        for a in t0:
            brute += int(np.count_nonzero(np.abs(t1 - a) <= edge))
        assert hist.counts.sum() == brute
        for delta, counted in ((-e - 1, 0), (-e, 1), (e, 1), (e + 1, 0)):
            single = build_histogram(np.array([0]), np.array([delta]), 99.9, 1e5)
            assert single.counts.sum() == counted
            if counted:  # in the outermost bin on its side
                assert single.counts[0 if delta < 0 else -1] == 1


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n0=st.integers(0, 60), n1=st.integers(0, 60),
       span=st.sampled_from([10**5, 10**6, 10**7]))
def test_pair_counter_blocks_count_as_the_whole_streams(data, n0, n1, span):
    # Time-ordered blocks, cut anywhere (ties across a cut included), count
    # the pairs of the whole streams: a pair across blocks is counted once.
    t0 = np.sort(np.array(data.draw(st.lists(st.integers(0, span), min_size=n0, max_size=n0)),
                          dtype=np.int64))
    t1 = np.sort(np.array(data.draw(st.lists(st.integers(0, span), min_size=n1, max_size=n1)),
                          dtype=np.int64))
    cuts = sorted(data.draw(st.lists(st.integers(0, span + 1), max_size=6)))
    counter = PairCounter(99.9, 1e5)
    for lo, hi in zip([0, *cuts], [*cuts, span + 1]):
        counter.add(*(t[(t >= lo) & (t < hi)] for t in (t0, t1)))
    assert np.array_equal(counter.histogram().counts,
                          build_histogram(t0, t1, 99.9, 1e5).counts)


def test_pair_counter_rejects_a_block_that_starts_too_early():
    counter = PairCounter(100.0, PERIOD)
    counter.add(np.array([5, 900]), np.array([1_000]))
    with pytest.raises(ValueError, match="follows a click"):
        counter.add(np.array([999]), np.array([2_000]))


class TestIntegratePeaks:
    def test_contiguous_windows_partition_total(self):
        setup = SetupParams(eta_setup=1.0, eta_det=1.0)
        src = trion_source(S11_TAU_PS, brightness_first_lens=0.3, p_two_photon=0.002)
        t0, t1 = train_clicks(RngSpec(63, 0), RngSpec(63, 1), src, setup, 100_000)
        hist = build_histogram(t0, t1, 100.0, PERIOD)
        areas = integrate_peaks(hist, PERIOD / 2, range(-10, 11))
        assert sum(areas.values()) == hist.counts.sum()

    def test_empty_histogram_zero_areas(self):
        hist = make_hist(0, 0)
        assert integrate_peaks(hist, 2000.0, range(-6, 7)) == dict.fromkeys(range(-6, 7), 0)

    def test_peak_outside_span_rejected(self):
        hist = make_hist(10, 100)
        with pytest.raises(ValueError):
            integrate_peaks(hist, 2000.0, [12])

    def test_window_exceeding_half_period_rejected(self):
        hist = make_hist(10, 100)
        with pytest.raises(ValueError):
            integrate_peaks(hist, 0.6 * PERIOD, [0])

    def test_side_peak_uniformity(self):
        setup = SetupParams(eta_setup=1.0, eta_det=1.0)
        src = trion_source(S11_TAU_PS, brightness_first_lens=0.3)
        t0, t1 = train_clicks(RngSpec(64, 0), RngSpec(64, 1), src, setup, 1_000_000)
        hist = build_histogram(t0, t1, 100.0, PERIOD)
        peaks = integrate_peaks(hist, 2000.0, [k for k in range(-6, 7) if k != 0])
        areas = np.array(list(peaks.values()), dtype=float)
        # Pairwise ratios consistent with unity within Poisson scatter.
        sigma = np.sqrt(areas.mean())
        assert np.all(np.abs(areas - areas.mean()) < 5 * sigma)


class TestG2Zero:
    def test_ideal_single_photon_source(self):
        setup = SetupParams(eta_setup=1.0, eta_det=1.0)
        src = trion_source(S11_TAU_PS, brightness_first_lens=0.3)
        t0, t1 = train_clicks(RngSpec(65, 0), RngSpec(65, 1), src, setup, 1_000_000)
        hist = build_histogram(t0, t1, 100.0, PERIOD)
        res = g2_zero(hist)
        assert res.zero_area == 0
        assert res.value == 0.0

    def test_poissonian_stream_gives_unity(self):
        setup = SetupParams(eta_setup=1.0, eta_det=1.0)
        batch = poissonian_pulse_train(66, 1_000_000, mu=0.25, tau_ps=S11_TAU_PS)
        t0, t1 = detector_clicks(RngSpec(66, 1), setup, batch, 1_000_000)
        hist = build_histogram(t0, t1, 100.0, PERIOD)
        res = g2_zero(hist)
        assert res.value == pytest.approx(1.0, abs=0.02)

    def test_zero_side_peaks_rejected(self):
        hist = make_hist(5, 0)
        with pytest.raises(ValueError):
            g2_zero(hist)

    def test_poisson_error_propagation(self):
        hist = make_hist(100, 10_000)
        res = g2_zero(hist)
        assert res.value == pytest.approx(0.01)
        expected = math.hypot(
            math.sqrt(100) / 10_000, 100 * math.sqrt(100_000) / (10 * 10_000**2)
        )
        assert res.std_err == pytest.approx(expected, rel=1e-12)

    def test_empty_zero_peak_error_floored_at_one_count(self):
        res = g2_zero(make_hist(0, 1000))
        assert res.value == 0.0
        assert res.std_err == 1 / res.side_mean
        assert hom_visibility(make_hist(0, 1000)).std_err == 2 / res.side_mean

    @pytest.mark.parametrize("zero_area", [1, 2, 50])
    def test_nonempty_zero_peak_error_unchanged(self, zero_area):
        # Bit-equal to the plain Poisson error sqrt(a0) whenever a0 >= 1.
        hist = make_hist(zero_area, 1000)
        side = np.full(len(SIDE_PEAKS), 1000.0)
        s_mean = float(side.mean())
        err = math.hypot(math.sqrt(zero_area) / s_mean,
                         zero_area * math.sqrt(side.sum()) / (side.size * s_mean**2))
        g2, vis = g2_zero(hist), hom_visibility(hist)
        assert (g2.value, g2.std_err) == (zero_area / s_mean, err)
        assert (vis.value, vis.std_err) == (1.0 - 2.0 * (zero_area / s_mean), 2.0 * err)

    def test_translation_invariance(self):
        rng = np.random.default_rng(67)
        t0 = np.sort(rng.integers(0, 2**40, size=20_000))
        t1 = np.sort(rng.integers(0, 2**40, size=20_000))
        shift = 2**21
        h1 = build_histogram(t0, t1, 100.0, PERIOD)
        h2 = build_histogram(t0 + shift, t1 + shift, 100.0, PERIOD)
        assert np.array_equal(h1.counts, h2.counts)


class TestHomVisibility:
    def test_perfect_interference(self):
        res = hom_visibility(make_hist(0, 1000))
        assert res.value == 1.0

    def test_distinguishable_photons(self):
        res = hom_visibility(make_hist(500, 1000))
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_paper_area_ratio(self):
        res = hom_visibility(make_hist(525, 10_000))
        assert res.value == pytest.approx(1 - 2 * 0.0525, rel=1e-9)
        assert res.value == pytest.approx(0.895, abs=1e-9)

    def test_error_twice_ratio_error(self):
        hist = make_hist(100, 10_000)
        assert hom_visibility(hist).std_err == pytest.approx(
            2 * g2_zero(hist).std_err, rel=1e-12
        )


class TestCorrectedOverlap:
    def test_no_correction_without_noise(self):
        assert corrected_overlap(0.87, 0.0).value == 0.87

    def test_paper_values(self):
        res = corrected_overlap(0.895, 0.0237)
        assert res.value == pytest.approx(0.9410, abs=5e-5)
        assert not res.clamped

    def test_clamped_only_above_unity(self):
        res = corrected_overlap(0.99, 0.02)
        assert res.clamped and res.value == 1.0
        res2 = corrected_overlap(1.0 - 2 * 0.02, 0.02)
        assert not res2.clamped

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            corrected_overlap(0.9, 1.0)
        with pytest.raises(ValueError):
            corrected_overlap(1.2, 0.1)

    @given(
        v=st.floats(min_value=-0.5, max_value=1.0),
        g=st.floats(min_value=0.0, max_value=0.9),
        dv=st.floats(min_value=1e-6, max_value=0.1),
        dg=st.floats(min_value=1e-6, max_value=0.05),
    )
    @settings(max_examples=100)
    def test_monotone_and_dominates_raw(self, v, g, dv, dg):
        m = corrected_overlap(v, g).value
        assert corrected_overlap(min(v + dv, 1.0), g).value >= m
        if g + dg < 1.0:
            assert corrected_overlap(v, g + dg).value >= m
        assert m >= v


class TestBrightnessChain:
    setup = SetupParams()

    def test_zero_rate(self):
        res = brightness_chain(0.0, self.setup)
        assert res.fibered_rate_cps == 0.0
        assert res.first_lens_brightness == 0.0

    def test_arithmetic_chain(self):
        res = brightness_chain(4.0e5, self.setup)
        assert res.fibered_rate_cps == pytest.approx(1.3333333333e6, rel=1e-9)
        assert res.fibered_brightness == pytest.approx(0.01646090534979, rel=1e-9)
        assert res.first_lens_brightness == pytest.approx(0.0411522633744856, rel=1e-12)

    def test_cross_polarization_cap_exact(self):
        detected = 81e6 * 0.30 * 0.40 * 0.5
        assert brightness_chain(detected, self.setup).first_lens_brightness == 0.5

    def test_zero_efficiency_rejected(self):
        with pytest.raises(ValueError):
            brightness_chain(1e5, SetupParams(eta_det=0.0))


class TestEstimatorScaling:
    def test_g2_std_scales_inverse_sqrt_pulses(self):
        # Disjoint blocks of a train are independent samples of the g2
        # estimate at the block's pulse count.  Cutting 8 trains into 1280
        # small and 128 large blocks pins the slope to about +-0.025 (sd),
        # half the bound, so a correct estimator rarely fails the test.
        setup = SetupParams(eta_setup=1.0, eta_det=1.0)
        src = trion_source(150.0, brightness_first_lens=0.3, p_two_photon=0.00225)
        train = 1_600_000
        sizes = [10_000, 100_000]
        vals = {n: [] for n in sizes}
        for s in range(8):
            t0, t1 = train_clicks(RngSpec(1000 + s, 0), RngSpec(1000 + s, 1), src, setup, train)
            for n in sizes:
                edges = np.arange(0, train + 1, n) * PERIOD
                cut0, cut1 = np.searchsorted(t0, edges), np.searchsorted(t1, edges)
                for i in range(edges.size - 1):
                    hist = build_histogram(t0[cut0[i]:cut0[i + 1]], t1[cut1[i]:cut1[i + 1]],
                                           100.0, PERIOD)
                    vals[n].append(g2_zero(hist).value)
        stds = [np.std(vals[n]) for n in sizes]
        slope = np.polyfit(np.log10(sizes), np.log10(stds), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)


class TestHistogramIO:
    def test_round_trip(self, tmp_path):
        hist = make_hist(42, 137)
        path = tmp_path / "hist.csv"
        write_histogram(hist, path, "qdbench test seed=1 config=x")
        back = read_histogram(path)
        assert back.bin_width_ps == hist.bin_width_ps
        assert back.rep_period_ps == hist.rep_period_ps
        assert np.array_equal(back.counts, hist.counts)

    def test_a_file_on_another_grid_is_rejected(self, tmp_path):
        # The grid is derived from the bin width and the bin count, so a
        # file whose delays differ from it fails instead of being re-gridded.
        path = tmp_path / "hist.csv"
        write_histogram(make_hist(42, 137), path, "qdbench test seed=1 config=x")
        text = path.read_text()
        path.write_text(text.replace("\n0.0,", "\n1.0,"))
        with pytest.raises(ValueError, match="grid of its bin width"):
            read_histogram(path)
