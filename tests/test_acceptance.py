"""Acceptance suite: one test per release criterion, stated tolerances.

Each test appends a one-line verdict that the conftest terminal-summary
hook prints at the end of the run.  Statistical criteria run at fixed,
pre-verified seeds so the suite is deterministic.
"""

import filecmp
import json
import math
import os
import time

import numpy as np
import pytest
from scipy import integrate

import conftest
from conftest import (
    IRF_FWHM_PS,
    S7_DELTA_UEV,
    S7_TAU_PS,
    S11_TAU_PS,
    detector_clicks,
    folded_decay_trace,
    poissonian_pulse_train,
    synth_trace,
    train_clicks,
    whole_train_clicks,
)

from qdbench import photon_sim, pipeline
from qdbench.cli import main as cli_main
from qdbench.config import FleetConfig
from qdbench.correlation import (
    brightness_chain,
    build_histogram,
    corrected_overlap,
    g2_zero,
    hom_visibility,
)
from qdbench.dynamics import (
    cross_intensity_integral,
    exciton_amplitudes,
    exciton_cross_intensity,
    peak_emission_delay,
)
from qdbench.fleet import analytic_g2, draw_fleet, p_two_photon_for_g2
from qdbench.inference import classify_transition, fit_decay
from qdbench.model import (
    HBAR_UEV_PS,
    SetupParams,
    TransitionKind,
    exciton_source,
    trion_source,
)
from qdbench.photon_sim import RngSpec
from qdbench.pipeline import run_pipeline

S7 = exciton_source(tau_ps=S7_TAU_PS, delta_fss_uev=S7_DELTA_UEV, theta_rad=math.pi / 4)

# First intensity maximum for the S7 parameters, frozen from the defining
# stationarity condition tan(t*delta/2hbar) = tau*delta/hbar solved on the
# first branch; the dense grid search below reproduces it independently.
S7_PEAK_DELAY_PS = 195.666

CLEAN = SetupParams(eta_setup=1.0, eta_det=1.0, jitter_fwhm_ps=IRF_FWHM_PS)
PERIOD = CLEAN.rep_period_ps


def record(number: int, description: str, passed: bool, detail: str):
    conftest.ACCEPTANCE_RESULTS.append((number, description, passed, detail))
    assert passed, f"criterion {number} ({description}): {detail}"


def test_criterion_01_closed_form_matches_amplitude_oracle():
    start = time.time()
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(1000):
        p = exciton_source(
            tau_ps=rng.uniform(20.0, 2000.0),
            delta_fss_uev=rng.uniform(0.1, 50.0),
            theta_rad=rng.uniform(0.05, math.pi - 0.05),
        )
        t = rng.uniform(0.0, 10.0 * p.tau_ps)
        a_v, a_h = exciton_amplitudes(t, p)
        oracle = abs(-math.sin(p.theta_rad) * a_v + math.cos(p.theta_rad) * a_h) ** 2
        value = float(exciton_cross_intensity(t, p))
        if oracle > 0:
            worst = max(worst, abs(value - oracle) / oracle)
    elapsed = time.time() - start
    record(
        1,
        "cross-intensity closed form vs amplitude projection (1000 tuples)",
        worst < 1e-10 and elapsed < 1.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_02_peak_emission_delay():
    start = time.time()
    by_root = peak_emission_delay(S7)
    grid = np.arange(0.0, 482.0, 0.001)
    by_grid = float(grid[np.argmax(exciton_cross_intensity(grid, S7))])
    elapsed = time.time() - start
    ok = (
        abs(by_root - by_grid) <= 0.1
        and abs(by_root - S7_PEAK_DELAY_PS) <= 0.1
        and abs(by_grid - S7_PEAK_DELAY_PS) <= 0.1
        and abs(by_root - 200.0) <= 10.0  # "approximately 200 ps"
        and elapsed < 1.0
    )
    record(
        2,
        "S7 peak emission delay by root solve and grid search",
        ok,
        f"root {by_root:.3f} ps, grid {by_grid:.3f} ps, {elapsed:.2f} s",
    )


def test_criterion_03_beat_integral_identity():
    start = time.time()
    r = S7_DELTA_UEV * S7_TAU_PS / HBAR_UEV_PS
    assert r == pytest.approx(3.285, abs=5e-4)
    assert r * r / (1 + r * r) == pytest.approx(0.9152, abs=5e-5)
    numeric, _ = integrate.quad(
        lambda t: float(exciton_cross_intensity(t, S7)), 0.0, 60 * S7_TAU_PS, limit=800
    )
    closed = cross_intensity_integral(S7)
    rel = abs(numeric - closed) / closed
    elapsed = time.time() - start
    record(
        3,
        "quadrature of the beat intensity vs closed-form integral",
        rel < 1e-6 and elapsed < 1.0,
        f"rel err {rel:.2e} (r={r:.3f}), {elapsed:.2f} s",
    )


def test_criterion_04_exciton_fit_round_trip_100_seeds():
    start = time.time()
    hits = 0
    for seed in range(100):
        trace = synth_trace(
            TransitionKind.EXCITON, seed, S7_TAU_PS, delta_uev=S7_DELTA_UEV,
            total_counts=1e6,
        )
        fit = fit_decay(trace, TransitionKind.EXCITON, irf_fwhm_ps=IRF_FWHM_PS)
        if (
            abs(fit.params["tau"] - S7_TAU_PS) <= 3.0
            and abs(fit.params["delta_fss"] - S7_DELTA_UEV) <= 0.05
        ):
            hits += 1
    elapsed = time.time() - start
    record(
        4,
        "S7 fit recovers tau within 3 ps and splitting within 0.05 ueV",
        hits >= 95 and elapsed < 120.0,
        f"{hits}/100 seeds, {elapsed:.1f} s",
    )


def test_criterion_05_trion_fit_round_trip_100_seeds():
    start = time.time()
    hits = 0
    for seed in range(100):
        trace = synth_trace(TransitionKind.TRION, seed, S11_TAU_PS, total_counts=1e6)
        fit = fit_decay(trace, TransitionKind.TRION, irf_fwhm_ps=IRF_FWHM_PS)
        if abs(fit.params["tau"] - S11_TAU_PS) <= 0.9:
            hits += 1
    elapsed = time.time() - start
    record(
        5,
        "trion fit recovers tau within 0.9 ps",
        hits >= 95 and elapsed < 60.0,
        f"{hits}/100 seeds, {elapsed:.1f} s",
    )


def test_criterion_06_g2_estimator():
    start = time.time()
    n = 1_000_000

    p2 = p_two_photon_for_g2(0.0237, 0.13)
    noisy = trion_source(S11_TAU_PS, brightness_first_lens=0.13, p_two_photon=p2)
    assert analytic_g2(noisy) == pytest.approx(0.0237, rel=1e-9)
    a, b = train_clicks(RngSpec(41, 0), RngSpec(41, 1), noisy, CLEAN, n)
    calibrated = g2_zero(build_histogram(a, b, 100.0, PERIOD))

    ideal = trion_source(S11_TAU_PS, brightness_first_lens=0.13)
    a, b = train_clicks(RngSpec(41, 2), RngSpec(41, 3), ideal, CLEAN, n)
    clean_g2 = g2_zero(build_histogram(a, b, 100.0, PERIOD))

    batch = poissonian_pulse_train(44, n, mu=0.25, tau_ps=S11_TAU_PS)
    a, b = detector_clicks(RngSpec(44, 9), CLEAN, batch, n)
    poisson_g2 = g2_zero(build_histogram(a, b, 100.0, PERIOD))

    elapsed = time.time() - start
    ok = (
        abs(calibrated.value - 0.0237) <= 0.005
        and clean_g2.zero_area == 0
        and clean_g2.value == 0.0
        and abs(poisson_g2.value - 1.0) <= 0.02
        and elapsed < 120.0
    )
    record(
        6,
        "g2 estimator on calibrated, ideal and Poissonian streams",
        ok,
        f"calibrated {calibrated.value:.4f}, ideal {clean_g2.value:.4f}, "
        f"poissonian {poisson_g2.value:.4f}, {elapsed:.1f} s",
    )


def test_criterion_07_hom_chain_consistency():
    start = time.time()
    n = 3_000_000
    p2 = p_two_photon_for_g2(0.0237, 0.136)
    src = trion_source(S11_TAU_PS, brightness_first_lens=0.136, p_two_photon=p2)

    a, b = train_clicks(RngSpec(73, 0), RngSpec(73, 1), src, CLEAN, n)
    g2 = g2_zero(build_histogram(a, b, 100.0, PERIOD))

    c, d = train_clicks(RngSpec(73, 2), RngSpec(73, 3), src, CLEAN, n, overlap=0.941)
    vis = hom_visibility(build_histogram(c, d, 100.0, PERIOD))
    m = corrected_overlap(vis.value, g2.value)

    elapsed = time.time() - start
    ok = (
        abs(vis.value - 0.895) <= 0.01
        and abs(m.value - 0.941) <= 0.01
        and elapsed < 120.0
    )
    record(
        7,
        "interference chain reproduces raw V and corrected overlap",
        ok,
        f"V_raw {vis.value:.4f} (target 0.895), M {m.value:.4f} (target 0.941), "
        f"g2 {g2.value:.4f}, {elapsed:.1f} s",
    )


def test_criterion_08_classifier_monte_carlo():
    from test_inference import noisy_scan

    start = time.time()
    trion_hits = 0
    for seed in range(100):
        res = classify_transition(noisy_scan(TransitionKind.TRION, 0.0, seed))
        trion_hits += res.kind is TransitionKind.TRION

    rng = np.random.default_rng(808)
    exciton_hits, worst_theta = 0, 0.0
    for seed in range(100):
        theta = float(rng.uniform(10.0, 80.0))
        res = classify_transition(
            noisy_scan(TransitionKind.EXCITON, theta, 5000 + seed)
        )
        if res.kind is TransitionKind.EXCITON:
            err = abs(
                (math.degrees(res.theta_est_rad) - theta + 45.0) % 90.0 - 45.0
            )
            if err <= 2.0:
                exciton_hits += 1
            worst_theta = max(worst_theta, err)
    elapsed = time.time() - start
    ok = trion_hits >= 99 and exciton_hits >= 99 and elapsed < 60.0
    record(
        8,
        "transition classifier at 5% noise (100 seeds per kind)",
        ok,
        f"trion {trion_hits}/100, exciton {exciton_hits}/100 "
        f"(worst theta err {worst_theta:.2f} deg), {elapsed:.1f} s",
    )


def test_criterion_09_brightness_chain_arithmetic():
    start = time.time()
    setup = SetupParams()
    chain = brightness_chain(4.0e5, setup)
    cap = brightness_chain(81e6 * 0.30 * 0.40 * 0.5, setup)
    elapsed = time.time() - start
    ok = (
        chain.fibered_rate_cps == pytest.approx(4.0e5 / 0.30, rel=1e-12)
        and chain.fibered_brightness == pytest.approx(0.016460905349794238, rel=1e-9)
        and chain.first_lens_brightness == pytest.approx(0.0411522633744856, rel=1e-9)
        and cap.first_lens_brightness == 0.5
        and elapsed < 1.0
    )
    record(
        9,
        "detected-rate to first-lens brightness chain",
        ok,
        f"first lens {chain.first_lens_brightness:.6f} (target 0.041152), "
        f"cap case {cap.first_lens_brightness}, {elapsed:.2f} s",
    )


def test_criterion_10_fleet_statistics_round_trip():
    start = time.time()
    sources = draw_fleet(seed=2026)
    setup = SetupParams()
    config = FleetConfig.from_parts(sources, setup)
    n_pulses = 1_000_000
    result = run_pipeline(config, n_pulses=n_pulses, seed=31337, out_dir=None, threads=4)
    assert not result.failures

    truth = {s.label: s for s in sources}
    duration_s = n_pulses * setup.rep_period_ps * 1e-12
    checks = []

    for kind, name in ((TransitionKind.EXCITON, "exciton"), (TransitionKind.TRION, "trion")):
        reps = [r for r in result.reports if r.kind is kind]
        n = len(reps)
        tt = [truth[r.label] for r in reps]

        rec = np.mean([r.g2 for r in reps])
        tru = np.mean([analytic_g2(t) for t in tt])
        se = math.sqrt(sum(r.g2_err**2 for r in reps)) / n
        checks.append((f"{name} g2", tru, rec, se))

        rec = np.mean([r.overlap_corrected for r in reps])
        tru = np.mean([t.overlap for t in tt])
        se = math.sqrt(sum(r.overlap_err**2 for r in reps)) / n
        checks.append((f"{name} overlap", tru, rec, se))

        # The rate-based brightness estimator counts every detected photon,
        # so its expectation is the mean photon number B + p2.
        rec = np.mean([r.first_lens_brightness for r in reps])
        tru = np.mean([t.brightness_first_lens + t.p_two_photon for t in tt])
        se = (
            math.sqrt(
                sum(
                    (
                        r.first_lens_brightness
                        / math.sqrt(r.fibered_rate_cps * setup.eta_det * duration_s)
                    )
                    ** 2
                    for r in reps
                )
            )
            / n
        )
        checks.append((f"{name} brightness", tru, rec, se))

        rec = np.mean([r.wavelength_nm for r in reps])
        tru = np.mean([t.wavelength_nm for t in tt])
        checks.append((f"{name} wavelength", tru, rec, 1e-9))

        if kind is TransitionKind.TRION:
            # Re-excitation photons restart the decay clock, so a fraction
            # p2/mu of trace counts carries roughly one extra lifetime;
            # allow for that known contamination alongside the fit errors.
            allowance = np.mean(
                [
                    t.p_two_photon / (t.brightness_first_lens + t.p_two_photon) * t.tau_ps
                    for t in tt
                ]
            )
            se_fit = math.sqrt(sum(r.tau_fit_err_ps**2 for r in reps)) / n
            rec = np.mean([r.tau_fit_ps for r in reps])
            tru = np.mean([t.tau_ps for t in tt])
            checks.append((f"{name} lifetime", tru, rec, math.hypot(se_fit, allowance)))

    elapsed = time.time() - start
    failures = [
        f"{label}: |{rec:.5f} - {tru:.5f}| > 2*{se:.5f}"
        for label, tru, rec, se in checks
        if abs(rec - tru) > 2.0 * se
    ]
    worst = max(abs(rec - tru) / se for _, tru, rec, se in checks)
    record(
        10,
        "15-source fleet recovers kind-level means within 2 SE",
        not failures and elapsed < 600.0,
        f"worst |z| {worst:.2f} over {len(checks)} comparisons, "
        f"{elapsed:.1f} s at 1e6 pulses/source"
        + (f"; failed: {failures}" if failures else ""),
    )


def test_criterion_11_pipeline_determinism(tmp_path):
    start = time.time()
    sources = [
        trion_source(
            180.0,
            brightness_first_lens=0.14,
            p_two_photon=0.0004,
            dephasing=0.08,
            label=f"D{i}",
        )
        for i in range(3)
    ]
    config = FleetConfig.from_parts(sources, CLEAN)
    dirs = [str(tmp_path / name) for name in ("run_a", "run_b", "run_c")]
    run_pipeline(config, n_pulses=200_000, seed=97, out_dir=dirs[0], threads=1)
    run_pipeline(config, n_pulses=200_000, seed=97, out_dir=dirs[1], threads=1)
    run_pipeline(config, n_pulses=200_000, seed=97, out_dir=dirs[2], threads=4)

    files = []
    for base, _, names in os.walk(dirs[0]):
        rel = os.path.relpath(base, dirs[0])
        files.extend(os.path.join(rel, n) for n in names)
    assert files

    identical = True
    for other in dirs[1:]:
        match, mismatch, errors = filecmp.cmpfiles(dirs[0], other, files, shallow=False)
        identical = identical and not mismatch and not errors
    elapsed = time.time() - start
    record(
        11,
        "pipeline outputs byte-identical across reruns and thread counts",
        identical and elapsed < 600.0,
        f"{len(files)} files compared across 3 runs, {elapsed:.1f} s",
    )


@pytest.mark.parametrize("setup_name", ["default", "lossless", "leak_dark"])
def test_streamed_sources_equal_their_whole_trains(tmp_path, monkeypatch, capsys, setup_name):
    # Criterion 11 across chunk sizes: with chunks of a few thousand pulses
    # every train is streamed over several chunks and folded in blocks, and
    # the artifacts equal those built from each whole train, at two thread
    # counts.  Saved clicks re-analyse to the same g2 and V.
    setup = conftest.GOLDEN_SETUPS[setup_name]
    config = FleetConfig.from_parts(list(conftest.GOLDEN_SOURCES.values()), setup)
    monkeypatch.setattr(photon_sim, "CHUNK_PULSES", 3_000)
    monkeypatch.setattr(photon_sim, "CHUNK_ROWS", 0)
    _assert_streamed_equal_whole(tmp_path, config, 20_000, 7, chunks=[7, 7])
    capsys.readouterr()


def test_row_sized_chunks_stream_as_their_whole_trains(tmp_path, monkeypatch, capsys):
    # The same at the chunk sizes of the default setup: a trion over two
    # chunks of 2**22 pulses, with the golden exciton over three of 2**21.
    trion = trion_source(S11_TAU_PS, brightness_first_lens=0.147, p_two_photon=3e-4,
                         dephasing=0.06, label="T1")
    setup = SetupParams()
    config = FleetConfig.from_parts([conftest.GOLDEN_SOURCES["exciton"], trion], setup)
    assert [photon_sim._chunk_pulses(s, setup) for s in config.sources] == [2**21, 2**22]
    _assert_streamed_equal_whole(tmp_path, config, 5_000_000, 7, chunks=[3, 2])
    capsys.readouterr()


def _assert_streamed_equal_whole(tmp_path, config, n_pulses, seed, chunks):
    """Streamed runs of ``config`` equal each other and the artifacts of its whole trains.

    ``chunks`` holds the RNG chunks of each source's trains.
    """
    setup = config.setup
    assert [len(photon_sim._chunks(n_pulses, photon_sim._chunk_pulses(s, setup)))
            for s in config.sources] == chunks
    runs = []
    for threads in (1, 2):
        runs.append(tmp_path / f"threads{threads}")
        run_pipeline(config, n_pulses, seed, out_dir=str(runs[-1]), threads=threads,
                     options=pipeline.PipelineOptions(save_clicks=True))
    names = sorted(os.path.relpath(os.path.join(base, name), runs[0])
                   for base, _, files in os.walk(runs[0]) for name in files)
    for other in runs[1:]:
        assert filecmp.cmpfiles(runs[0], other, names, shallow=False)[0] == names

    header = pipeline.file_header(seed, config.config_hash)
    period = setup.rep_period_ps
    whole = tmp_path / "whole"
    for index, source in enumerate(config.sources):
        out = whole / source.label
        out.mkdir(parents=True)
        for train in pipeline.TRAINS:
            t0, t1 = whole_train_clicks(source, setup, seed, index, n_pulses, train)
            assert min(t0.size, t1.size) > 100
            hist = build_histogram(t0, t1, 100.0, period)
            pipeline.write_histogram(hist, out / f"{train}_histogram.csv", header)
            with pipeline._ClickWriter(out / f"{train}_clicks.csv", header, period) as writer:
                writer.write(t0, t1)
            if train == "hbt":
                trace = folded_decay_trace(t0, t1, setup, source)
                pipeline.write_table(out / "decay_trace.csv", header, ("t_ps", "counts"),
                                     (trace.t_ps, trace.counts.astype(np.int64)),
                                     f"irf_fwhm_ps={float(setup.jitter_fwhm_ps)!r}")
        streamed = runs[0] / source.label
        files = sorted(os.listdir(out))
        assert filecmp.cmpfiles(out, streamed, files, shallow=False)[0] == files

        report = json.loads((streamed / "report.json").read_text())
        estimates = {}
        for mode in pipeline.TRAINS:
            assert cli_main(["analyze", "--timestamps", str(streamed / f"{mode}_clicks.csv"),
                             "--mode", mode, "--out", str(tmp_path / "analysis")]) == 0
            estimates[mode] = json.loads(
                (tmp_path / "analysis" / f"{mode}_clicks_estimates.json").read_text())
        assert estimates["hbt"]["g2"] == report["g2"]
        assert estimates["hom"]["v_raw"] == report["v_raw"]
