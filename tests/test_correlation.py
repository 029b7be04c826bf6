import math
import tracemalloc
from unittest import mock

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

from qdbench import correlation
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


#: (bin width, period) grids: E = 1050098 below the edge 1050098.85; the
#: default grid, whose edge 129650 is an integer and rounds into the last
#: bin; a grid whose integer edge 129750 rounds one bin further out; a small E.
REFERENCE_GRIDS = [(99.9, 1e5), (100.0, PERIOD), (100.0, 12355.0), (7.0, 300.0)]


def reference_counts(t0, t1, bin_width, period):
    """Every pair with |t1 - t0| <= E, binned at rint((t1 - t0) / w) + half and clipped."""
    half = round(correlation.HISTOGRAM_PERIODS * period / bin_width)
    e = math.floor((half + 0.5) * bin_width)
    deltas = (t1[None, :] - t0[:, None]).ravel()
    deltas = deltas[np.abs(deltas) <= e]
    idx = np.clip(np.rint(deltas / bin_width).astype(np.int64) + half, 0, 2 * half)
    return np.bincount(idx, minlength=2 * half + 1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), grid=st.sampled_from(REFERENCE_GRIDS),
       n0=st.integers(0, 80), n1=st.integers(0, 80),
       spread=st.sampled_from([0.05, 3.0, 50.0, 1e4]),
       origin=st.integers(-10**12, 10**12), edges=st.booleans(), bursts=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_pair_counter_matches_the_definition_bin_by_bin(data, grid, n0, n1, spread, origin,
                                                         edges, bursts, seed):
    # Streams from dense (many clicks per E) to sparse (span >> n * E), at
    # negative times too; partners at exactly +-E and +-(E + 1); and two
    # bursts 1.2-1.9 E apart, whose gathers take the exact windows.
    bin_width, period = grid
    counter = PairCounter(bin_width, period)
    e = counter._e
    rng = np.random.default_rng(seed)
    span = max(1, int(spread * e))
    t0 = origin + rng.integers(0, span, n0)
    t1 = origin + rng.integers(0, span, n1)
    if edges and n0:
        offsets = np.array([-e - 1, -e, e, e + 1])
        t1 = np.concatenate([t1, (t0[:5, None] + offsets).ravel()])
    if bursts:
        at = origin + int(rng.integers(0, span))
        gap = int(data.draw(st.floats(1.2, 1.9)) * e)
        width = max(1, e // 20)
        t0 = np.concatenate([t0, at + rng.integers(0, width, 40)])
        t1 = np.concatenate([t1, at + gap + rng.integers(0, width, 40),
                             at + rng.integers(0, width, 3)])
    t0, t1 = np.sort(t0), np.sort(t1)
    ends = np.concatenate([t0, t1])
    lo, hi = (int(ends.min()), int(ends.max()) + 1) if ends.size else (0, 1)
    cuts = sorted(data.draw(st.lists(st.integers(lo, hi), max_size=5)))
    for a, b in zip([lo, *cuts], [*cuts, hi]):
        counter.add(*(t[(t >= a) & (t < b)] for t in (t0, t1)))
    assert np.array_equal(counter.histogram().counts,
                          reference_counts(t0, t1, bin_width, period))


def test_pair_counter_counts_clustered_clicks_in_bounded_memory():
    # 2e4 reference clicks in a burst of 0.15 E and 2e4 partners in one
    # 1.5 E later: every partner shares a neighbouring cell with every
    # reference click, but none is within E.  The exact windows keep the gathers to the 5
    # partners near the first burst, where 4e8 candidates would take GiBs.
    counter = PairCounter(100.0, PERIOD)
    e = counter._e
    t0 = -3 * e + np.arange(20_000, dtype=np.int64)
    near = t0[0] + np.array([-e, -5, 0, 9_000, e])
    t1 = np.sort(np.concatenate([near, t0[0] + 3 * e // 2 + np.arange(20_000)]))
    real_repeat = np.repeat

    def bounded_repeat(a, repeats, *args, **kwargs):
        assert int(np.sum(repeats)) <= 1 << 20, "a gather of quadratic size"
        return real_repeat(a, repeats, *args, **kwargs)

    tracemalloc.start()
    try:
        with mock.patch.object(np, "repeat", bounded_repeat):
            counter.add(t0, t1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"{peak / 2**20:.1f} MiB"
    expected = sum(reference_counts(t0[i : i + 1000], near, 100.0, PERIOD)
                   for i in range(0, t0.size, 1000))
    assert np.array_equal(counter.counts, expected)
    assert expected.sum() > 20_000


def test_pair_counter_rejects_a_block_that_starts_too_early():
    counter = PairCounter(100.0, PERIOD)
    counter.add(np.array([5, 900]), np.array([1_000]))
    with pytest.raises(ValueError, match="follows a click"):
        counter.add(np.array([999]), np.array([2_000]))


@pytest.mark.parametrize("bin_width, period, message", [
    (100.0, 1e9, "a histogram of 100.0 ps bins over +/-10.5 periods of 1000000000.0 ps "
                 "needs 2.1e+08 bins; it may hold 3 to 16777216"),
    (1e-300, 1e300, "needs inf bins; it may hold 3 to 16777216"),
    (1e9, PERIOD, "needs 1 bins; it may hold 3 to 16777216"),
    (math.inf, PERIOD, "a histogram of inf ps bins over +/-10.5 periods of 12345.67901234568 ps "
                       "needs 1 bins; it may hold 3 to 16777216"),
    (100.0, 0.0, "rep_period_ps must be finite and > 0, got 0.0"),
    (100.0, -PERIOD, "rep_period_ps must be finite and > 0, got -"),
    (100.0, math.inf, "rep_period_ps must be finite and > 0, got inf"),
    (100.0, math.nan, "rep_period_ps must be finite and > 0, got nan"),
])
def test_pair_counter_rejects_an_impossible_grid_before_allocating_it(bin_width, period,
                                                                        message):
    with mock.patch.object(np, "zeros", side_effect=AssertionError("allocated")):
        with pytest.raises(ValueError) as exc:
            PairCounter(bin_width, period)
    assert message in str(exc.value)


def test_pair_counter_allocates_at_most_2_to_the_24_bins():
    sizes = []

    def zeros(n, dtype):
        sizes.append(n)
        return np.empty(0, dtype)

    with mock.patch.object(np, "zeros", zeros):
        PairCounter(100.0, PERIOD)
        PairCounter(1.0, (2**23 - 1) / 10.5)
        with pytest.raises(ValueError, match=r"needs 1.68e\+07 bins"):
            PairCounter(1.0, 2**23 / 10.5)
    assert sizes == [2593, 2**24 - 1]


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
