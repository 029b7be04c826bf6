import filecmp
import hashlib
import json
import math
import os
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    GOLDEN_SETUPS,
    GOLDEN_SOURCES,
    read_histogram,
    train_rows,
    whole_train_clicks,
)

from qdbench import correlation, photon_sim, pipeline
from qdbench.cli import main as cli_main
from qdbench.config import FleetConfig, dump_config, parse_config, write_config
from qdbench.correlation import CorrelationHistogram
from qdbench.fleet import draw_fleet
from qdbench.leastsq import DegenerateFitError
from qdbench.model import SetupParams, TransitionKind, exciton_source, trion_source
from qdbench.pipeline import read_timestamps, run_pipeline

CLEAN_SETUP = SetupParams(eta_setup=1.0, eta_det=1.0)


def trion_config(n=1, dephasing=0.06):
    sources = [
        trion_source(
            164.9,
            brightness_first_lens=0.147,
            p_two_photon=0.0003,
            dephasing=dephasing,
            label=f"S{11 + i}",
        )
        for i in range(n)
    ]
    return FleetConfig.from_parts(sources, CLEAN_SETUP)


def s7_config():
    src = exciton_source(
        252.0,
        8.58,
        45.0,
        brightness_first_lens=0.136,
        p_two_photon=0.00022,
        dephasing=0.059,
        label="S7",
    )
    return FleetConfig.from_parts([src], CLEAN_SETUP)


class TestRunPipeline:
    def test_single_trion_smoke(self, tmp_path):
        result = run_pipeline(trion_config(), n_pulses=1_000_000, seed=5, out_dir=str(tmp_path))
        assert not result.failures
        (report,) = result.reports
        assert report.label == "S11"
        assert 0.0 <= report.g2 < 0.05
        assert 0.0 < report.v_raw <= 1.0
        assert report.first_lens_brightness == pytest.approx(0.147, abs=0.01)
        assert report.tau_fit_ps == pytest.approx(164.9, abs=3.0)
        per_source = tmp_path / "S11"
        for name in (
            "hbt_histogram.csv",
            "hom_histogram.csv",
            "decay_trace.csv",
            "fit.json",
            "classification.json",
            "phi_scan.csv",
            "report.json",
        ):
            assert (per_source / name).exists()
        for name in ("summary.json", "summary.csv", "summary.txt"):
            assert (tmp_path / name).exists()

    def test_s7_end_to_end_recovery(self, tmp_path):
        result = run_pipeline(s7_config(), n_pulses=2_000_000, seed=11, out_dir=None)
        assert not result.failures
        (report,) = result.reports
        assert report.tau_fit_ps == pytest.approx(252.0, abs=5.0)
        assert report.delta_fss_fit_uev == pytest.approx(8.58, abs=0.1)
        assert report.overlap_corrected == pytest.approx(0.941, abs=0.02)

    def test_seed_changes_streams_not_physics(self):
        cfg = trion_config()
        r1 = run_pipeline(cfg, n_pulses=400_000, seed=1, out_dir=None)
        r2 = run_pipeline(cfg, n_pulses=400_000, seed=2, out_dir=None)
        a, b = r1.reports[0], r2.reports[0]
        assert a.g2 != b.g2  # different realizations
        assert abs(a.g2 - b.g2) < 3 * math.hypot(a.g2_err, b.g2_err) + 1e-6
        assert abs(a.v_raw - b.v_raw) < 4 * math.hypot(a.v_raw_err, b.v_raw_err)
        assert abs(a.tau_fit_ps - b.tau_fit_ps) < 4 * math.hypot(
            a.tau_fit_err_ps, b.tau_fit_err_ps
        )

    def test_byte_identical_reruns_and_thread_invariance(self, tmp_path):
        cfg = trion_config(n=3)
        dirs = [tmp_path / name for name in ("a", "b", "c")]
        run_pipeline(cfg, n_pulses=100_000, seed=9, out_dir=str(dirs[0]), threads=1)
        run_pipeline(cfg, n_pulses=100_000, seed=9, out_dir=str(dirs[1]), threads=1)
        run_pipeline(cfg, n_pulses=100_000, seed=9, out_dir=str(dirs[2]), threads=3)
        _assert_same_files(dirs)

    def test_one_fleet_gives_one_set_of_bytes(self, tmp_path):
        # The fleet in memory, written and loaded, and through a second round
        # are one config.  With theta held in radians, X05's and X07's angles
        # moved by an ulp through the text, and so did their phi scans and
        # the config hash in every header.
        memory = FleetConfig.from_parts(draw_fleet(2026), SetupParams())
        once = parse_config(dump_config(memory.sources, memory.setup))
        twice = parse_config(dump_config(once.sources, once.setup))
        dirs = [tmp_path / name for name in ("memory", "once", "twice")]
        for config, out in zip((memory, once, twice), dirs):
            run_pipeline(config, n_pulses=100_000, seed=1, out_dir=str(out))
        _assert_same_files(dirs)

    def test_golden_phi_scan_digest(self, tmp_path):
        # The golden sources' scans at seed 2026 as sources 0 and 1: their
        # draws, the order of the draws and the table text.
        config = FleetConfig.from_parts(list(GOLDEN_SOURCES.values()), SetupParams())
        run_pipeline(config, 100_000, 2026, out_dir=str(tmp_path))
        digests = {name: hashlib.sha256((tmp_path / s.label / "phi_scan.csv").read_bytes())
                   .hexdigest() for name, s in GOLDEN_SOURCES.items()}
        assert digests == _GOLDEN_PHI_SCAN_DIGESTS

    def test_the_analysis_reads_the_kind_and_tau_of_its_source(self, tmp_path, monkeypatch):
        # With its clicks and its scan fixed, a source gives the same
        # artifacts under every parameter that only the simulation reads.
        setup, n_pulses = SetupParams(), 300_000
        truth = GOLDEN_SOURCES["exciton"]
        other = exciton_source(truth.tau_ps, 2.0 * truth.delta_fss_uev, 17.0,
                               brightness_first_lens=0.2, p_two_photon=0.03, dephasing=0.2,
                               label=truth.label, wavelength_nm=truth.wavelength_nm)
        blocks = {train: list(photon_sim.detected_chunks(3, 0, truth, setup, n_pulses, train))
                  for train in photon_sim.TRAINS}
        scan = photon_sim.synthesize_phi_scan(3, 0, truth)
        monkeypatch.setattr(pipeline, "detected_chunks",
                            lambda seed, index, source, setup, n, train: iter(blocks[train]))
        monkeypatch.setattr(pipeline, "synthesize_phi_scan", lambda seed, index, source: scan)
        for name, source in (("truth", truth), ("other", other)):
            pipeline.analyze_source(source, setup, 3, 0, n_pulses, str(tmp_path / name),
                                    "qdbench test")
        a, b = (tmp_path / name / truth.label for name in ("truth", "other"))
        files = sorted(os.listdir(a))
        assert len(files) == 7
        assert filecmp.cmpfiles(a, b, files, shallow=False)[0] == files

    def test_saving_clicks_needs_an_out_dir(self, monkeypatch):
        def no_source(*args, **kwargs):
            raise AssertionError("a source ran")

        monkeypatch.setattr(pipeline, "analyze_source", no_source)
        with pytest.raises(ValueError, match="save_clicks needs an out_dir"):
            run_pipeline(trion_config(n=3), 1000, 1, save_clicks=True)

    @pytest.mark.parametrize("setup_name", sorted(GOLDEN_SETUPS))
    def test_block_sizes_change_no_byte(self, tmp_path, monkeypatch, setup_name):
        # Detector stamping and pairing, the histogram gather and the decay
        # trace fold all work in blocks; small blocks split every train.
        config = FleetConfig.from_parts(list(GOLDEN_SOURCES.values()), GOLDEN_SETUPS[setup_name])
        run_pipeline(config, 300_000, 11, out_dir=str(tmp_path / "a"), save_clicks=True)
        monkeypatch.setattr(photon_sim, "_ROW_BLOCK", 1000)
        monkeypatch.setattr(correlation, "_HISTOGRAM_BLOCK", 777)
        monkeypatch.setattr(pipeline, "_FOLD_BLOCK", 999)
        run_pipeline(config, 300_000, 11, out_dir=str(tmp_path / "b"), save_clicks=True)
        for source in config.sources:
            names = sorted(os.listdir(tmp_path / "a" / source.label))
            assert "hom_clicks.csv" in names
            match, mismatch, errors = filecmp.cmpfiles(
                tmp_path / "a" / source.label, tmp_path / "b" / source.label, names,
                shallow=False)
            assert match == names, (mismatch, errors)

    def test_per_source_failure_recorded_and_run_continues(self, tmp_path):
        good = trion_source(164.9, brightness_first_lens=0.147, label="GOOD")
        dark = exciton_source(252.0, 8.58, 0.0, brightness_first_lens=0.1, label="DARK")
        cfg = FleetConfig.from_parts([good, dark], CLEAN_SETUP)
        result = run_pipeline(cfg, n_pulses=100_000, seed=3, out_dir=str(tmp_path))
        assert [r.label for r in result.reports] == ["GOOD"]
        assert "DARK" in result.failures
        assert (tmp_path / "failures.json").exists()

    def test_artifact_write_failure_isolated_to_its_source(self, tmp_path, capsys):
        cfg = trion_config(n=3)
        cfg_path = tmp_path / "fleet.cfg"
        write_config(cfg, cfg_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "S12").write_text("a file where the source directory goes\n")
        code = cli_main(["pipeline", "--config", str(cfg_path), "--pulses", "100000",
                         "--seed", "3", "--out", str(out)])
        assert code == 2
        failures = json.loads((out / "failures.json").read_text())
        assert list(failures) == ["S12", "_header"]
        assert failures["S12"].startswith("FileExistsError")
        for label in ("S11", "S13"):
            assert (out / label / "report.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert [s["label"] for s in summary["sources"]] == ["S11", "S13"]
        assert "S12: FAILED (FileExistsError" in capsys.readouterr().err

    def test_fit_reproduces_pipeline_fit_from_its_decay_trace(self, tmp_path):
        cfg = FleetConfig.from_parts([*s7_config().sources, *trion_config().sources],
                                     CLEAN_SETUP)
        run_pipeline(cfg, n_pulses=200_000, seed=4, out_dir=str(tmp_path / "run"))
        for source in cfg.sources:
            src_dir = tmp_path / "run" / source.label
            refit = tmp_path / "refit" / source.label
            assert cli_main([
                "fit", "--trace", str(src_dir / "decay_trace.csv"),
                "--kind", source.kind.value, "--out", str(refit),
            ]) == 0
            assert cli_main(["classify", "--phiscan", str(src_dir / "phi_scan.csv"),
                             "--out", str(refit)]) == 0
            for name in ("fit.json", "classification.json"):
                assert (refit / name).read_bytes() == (src_dir / name).read_bytes()

    def test_lossy_trains_hold_a_fraction_of_the_lossless_memory(self):
        # At the default efficiency (0.12) a batch holds only the photons
        # the detectors keep, so simulate and detect peak far below the
        # same call with lossless detection.
        src = trion_source(164.9, brightness_first_lens=0.3)
        peaks = []
        for setup in (SetupParams(), CLEAN_SETUP):
            tracemalloc.start()
            try:
                for train in pipeline.TRAINS:
                    whole_train_clicks(src, setup, 1, 0, 1_000_000, train)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        lossy, lossless = peaks
        assert lossy < lossless / 3

    def test_a_source_peaks_at_its_events_plus_its_clicks(self):
        # A source analyses HBT before it simulates HOM, and the detector
        # stages stamp clicks in blocks, so a lossless source peaks near 30
        # bytes per HBT row: one train's events (17 bytes), its clicks (8)
        # and a few per-row flags.  Holding the HBT clicks while HOM ran,
        # plus full-length temporaries, took 61.
        fleet = draw_fleet(2026)
        index = [s.label for s in fleet].index("T01")
        events = photon_sim.source_streams(1, index).hbt_events
        rows = len(train_rows(events, fleet[index], CLEAN_SETUP, 1_000_000)[0])
        tracemalloc.start()
        try:
            pipeline.analyze_source(fleet[index], CLEAN_SETUP, 1, index, 1_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / rows < 36, f"{peak / rows:.1f} bytes per HBT row"

    def test_a_source_peak_is_flat_in_pulses(self):
        # Each train is simulated, detected and folded one RNG chunk at a
        # time, so a source of 16 chunks peaks where one of 2 chunks does.
        peaks = _t01_peaks(lambda source, index, n_pulses: pipeline.analyze_source(
            source, SetupParams(), 1, index, n_pulses))
        assert peaks[1] < 1.25 * peaks[0], [f"{peak / 2**20:.2f} MiB" for peak in peaks]

    def test_saving_clicks_keeps_a_source_flat_in_pulses(self, tmp_path):
        # With --save-clicks each block is written to the click file as it
        # is folded, so no train's clicks are held.
        peaks = _t01_peaks(lambda source, index, n_pulses: pipeline.analyze_source(
            source, SetupParams(), 1, index, n_pulses, str(tmp_path / str(n_pulses)),
            "qdbench test", save_clicks=True))
        assert (tmp_path / str(16 * 2**22) / "T01" / "hom_clicks.csv").exists()
        assert peaks[1] < 1.25 * peaks[0], [f"{peak / 2**20:.2f} MiB" for peak in peaks]

    def test_simulate_keeps_a_train_flat_in_pulses(self, tmp_path):
        # `qdbench simulate` writes each train block by block, as it comes
        # out of the detector stage.
        def simulate(source, index, n_pulses):
            rows = pipeline.write_source_clicks(source, SetupParams(), 1, index, n_pulses,
                                                str(tmp_path / str(n_pulses)), "qdbench test")
            assert min(rows.values()) > 10_000

        peaks = _t01_peaks(simulate)
        assert peaks[1] < 1.25 * peaks[0], [f"{peak / 2**20:.2f} MiB" for peak in peaks]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("failing_train", pipeline.TRAINS)
    def test_a_failed_source_leaves_no_click_file(self, tmp_path, monkeypatch, failing_train,
                                                  threads):
        # Click files are written while a source runs.  A source that raises
        # mid-train, with its click files open (and, in HOM, its HBT file
        # complete), leaves none of them, and every other source's files
        # are those of a clean run.
        monkeypatch.setattr(photon_sim, "CHUNK_PULSES", 3_000)
        monkeypatch.setattr(photon_sim, "CHUNK_ROWS", 0)
        cfg = trion_config(n=3)
        assert all(len(photon_sim._chunks(20_000, photon_sim._chunk_pulses(s, cfg.setup))) == 7
                   for s in cfg.sources)
        clean, out = tmp_path / "clean", tmp_path / "out"
        run_pipeline(cfg, 20_000, 5, out_dir=str(clean), threads=threads, save_clicks=True)

        detected_chunks = pipeline.detected_chunks
        open_files = []

        def failing(seed, source_index, source, setup, n_pulses, train):
            blocks = detected_chunks(seed, source_index, source, setup, n_pulses, train)
            if source.label != "S12" or train != failing_train:
                yield from blocks
                return
            for i, block in enumerate(blocks):
                if i == 3:
                    open_files.append(sorted(os.listdir(out / "S12")))
                    raise RuntimeError("injected")
                yield block

        monkeypatch.setattr(pipeline, "detected_chunks", failing)
        result = run_pipeline(cfg, 20_000, 5, out_dir=str(out), threads=threads,
                              save_clicks=True)
        assert list(result.failures) == ["S12"]
        assert open_files == [["hbt_clicks.csv", "hom_clicks.csv"]]
        failures = json.loads((out / "failures.json").read_text())
        assert failures["S12"] == "RuntimeError: injected"
        assert not (out / "S12").exists()
        for label in ("S11", "S13"):
            names = sorted(os.listdir(clean / label))
            assert "hom_clicks.csv" in names
            assert sorted(os.listdir(out / label)) == names
            assert filecmp.cmpfiles(clean / label, out / label, names, shallow=False)[0] == names

    def test_headers_carry_version_seed_and_hash(self, tmp_path):
        cfg = trion_config()
        run_pipeline(cfg, n_pulses=100_000, seed=21, out_dir=str(tmp_path))
        text = (tmp_path / "S11" / "decay_trace.csv").read_text().splitlines()[0]
        assert text.startswith("# qdbench 0.1.0")
        assert "seed=21" in text
        assert cfg.config_hash in text
        assert text.endswith(f" stream_layout={photon_sim.STREAM_LAYOUT}")
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "seed=21" in summary["_header"]

    @pytest.mark.xfail(strict=True, raises=DegenerateFitError,
                       reason="ROADMAP B5: the decay fit models no laser-leak photons, and the "
                              "trace holds no clicks before the pulse")
    def test_a_trion_fits_under_a_laser_leak_and_dark_counts(self):
        # At seed 3 the first pass ends at t0 = -116 ps, where t0 and the
        # amplitude are collinear, and the final inverse fails.
        setup = SetupParams(laser_leak_per_pulse=0.02, dark_rate_cps=2e5)
        source = draw_fleet(2026)[10]
        assert source.label == "T04"
        for seed in (3, 4):
            assert pipeline.analyze_source(source, setup, seed, 10, 200_000).label == "T04"


def _files(root) -> list[str]:
    """The path of every file under ``root``, relative to it, sorted."""
    return sorted(path.relative_to(root).as_posix() for path in root.rglob("*")
                  if path.is_file())


def _assert_same_files(dirs):
    """Every file under ``dirs[0]`` has the same bytes under each other directory."""
    files = []
    for base, _, names in os.walk(dirs[0]):
        rel = os.path.relpath(base, dirs[0])
        files.extend(os.path.join(rel, n) for n in names)
    assert files
    for other in dirs[1:]:
        match, mismatch, errors = filecmp.cmpfiles(dirs[0], other, files, shallow=False)
        assert not mismatch and not errors, (other, mismatch, errors)


def _t01_peaks(run) -> list[int]:
    """The tracemalloc peaks of ``run(source, index, n_pulses)`` for T01 of 2 and 16 RNG chunks.

    The chunks are T01's own at the default setup, of 2**22 pulses.
    """
    fleet = draw_fleet(2026)
    index = [s.label for s in fleet].index("T01")
    size = photon_sim._chunk_pulses(fleet[index], SetupParams())
    assert size == 2**22
    peaks = []
    for n_pulses in (2 * size, 16 * size):
        tracemalloc.start()
        try:
            run(fleet[index], index, n_pulses)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def _row_loop_reference(t0, t1, header, rep_period_ps) -> bytes:
    """The click file as a row-by-row writer produces it."""
    channel = np.concatenate([np.zeros(t0.size, dtype=np.int64),
                              np.ones(t1.size, dtype=np.int64)])
    times = np.concatenate([t0, t1])
    order = np.lexsort((channel, times))
    lines = [f"# {header}\n", "# channel,time_ps\n", f"# rep_period_ps={rep_period_ps!r}\n"]
    for ch, t in zip(channel[order].tolist(), times[order].tolist()):
        lines.append(f"{ch},{t}\n")
    return "".join(lines).encode()


_DECADES = [sign * (10**k + d) for k in range(19) for d in (-1, 0) for sign in (1, -1)]
_CLICK_TIMES = st.one_of(
    st.integers(-(10**6), 10**6),
    st.sampled_from(_DECADES),
    st.integers(-9 * 10**18, 9 * 10**18),
)


@st.composite
def _click_streams(draw):
    """Two sorted int64 channels with negatives, 10**k edges and shared times."""
    t0 = sorted(draw(st.lists(_CLICK_TIMES, max_size=40)))
    shared = draw(st.lists(st.sampled_from(t0), max_size=10)) if t0 else []
    t1 = sorted(draw(st.lists(_CLICK_TIMES, max_size=40)) + shared)
    if draw(st.booleans()):
        t0, t1 = t1, t0
    return np.array(t0, dtype=np.int64), np.array(t1, dtype=np.int64)


#: SHA-256 of the concatenated ``pipeline --save-clicks`` click files of the
#: golden fleet under stream layout 6.  The seed is the first one whose
#: leak_dark files hold a click before t = 0 (about one seed in 200 does).
#: A train of at most ``CHUNK_PULSES`` pulses is one RNG chunk under layouts
#: 4, 5 and 6, so these files differ from layout 4's in their header line
#: only.
_GOLDEN_CLICK_SEED = 10
_GOLDEN_CLICK_PULSES = 100_000
_GOLDEN_CLICK_DIGESTS = {
    "default":
        "b63fd791c7f9dacc296c669aaa12790f4298294a310575ca9ae1a4bfb3dc4543",
    "lossless":
        "eecac2e281b2c756e5decb5d0253a34bad1a7b3c2dafd55d67b5935a85fbc00c",
    "leak_dark":
        "eb55c6d5c36981ee64e048e58a3fa0fd4d4b5df6b11d2146c3afd83aba141c02",
}


#: SHA-256 of the HBT and HOM click files of a default-setup trion of
#: 5e6 pulses, two chunks of 2**22, at the golden click seed.  Past their
#: header line they are layout 5's files at ``CHUNK_PULSES = 2**22``.
_GOLDEN_ROW_SIZED_PULSES = 5_000_000
_GOLDEN_ROW_SIZED_CLICK_DIGEST = "f85ddf44b31a0294186e98c8f59fede735289e0c3d7300119589223ff2cff511"


#: SHA-256 of each golden source's ``phi_scan.csv`` from ``run_pipeline`` at
#: seed 2026, with the exciton as source 0 and the trion as source 1.  The
#: scan is drawn whole, so a new stream layout changes its header line only.
_GOLDEN_PHI_SCAN_DIGESTS = {
    "exciton": "7dec0a16ccca9b92e67212ca14f22640ddb5788e8e8e853a7831ed2175b686f7",
    "trion": "338b7fa0520b53b903e3ab516f6a5f4bcb883b18c7b431f060ef845641e8f937",
}


class TestTimestampFiles:
    def test_round_trip_integer_picoseconds(self, tmp_path):
        t0 = np.array([-7, 3, 101, 5000])
        t1 = np.array([43, 77])
        path = tmp_path / "clicks.csv"
        with pipeline._ClickWriter(path, "qdbench test seed=0 config=x", 12345.0) as writer:
            writer.write(t0, t1)
        lines = path.read_text().splitlines()
        assert lines[1:3] == ["# channel,time_ps", "# rep_period_ps=12345.0"]
        back0, back1 = read_timestamps(path)
        assert back0.dtype == back1.dtype == np.int64
        assert np.array_equal(back0, t0)
        assert np.array_equal(back1, t1)

    def test_writer_rejects_float_times(self, tmp_path):
        # Neither a rejected whole stream nor a rejected later block leaves a file.
        path = tmp_path / "clicks.csv"
        with pytest.raises(TypeError):
            with pipeline._ClickWriter(path, "x", 1e4) as writer:
                writer.write(np.array([1.5]), np.array([2]))
        assert not path.exists()
        with pytest.raises(TypeError):
            with pipeline._ClickWriter(path, "x", 1e4) as writer:
                writer.write(np.array([-3, 5]), np.array([7]))
                writer.write(np.array([8]), np.array([9.0]))
        assert not path.exists()

    def test_block_writer_matches_row_loop(self, tmp_path):
        # More rows than one write block, with ties across the two channels.
        rng = np.random.default_rng(3)
        t0 = np.sort(np.rint(rng.uniform(0.0, 5e7, size=90_000)).astype(np.int64))
        t1 = np.sort(np.concatenate([rng.integers(0, 5 * 10**7, size=60_000), t0[::7]]))
        header = "qdbench test seed=0 config=x"
        path = tmp_path / "clicks.csv"
        with pipeline._ClickWriter(path, header, 12345.679012345678) as writer:
            writer.write(t0, t1)
        assert path.read_bytes() == _row_loop_reference(t0, t1, header, 12345.679012345678)

    @settings(max_examples=300, deadline=None)
    @given(streams=_click_streams(), block_rows=st.sampled_from([1, 2, 5, 1 << 16]))
    def test_writer_matches_row_loop_property(self, tmp_path_factory, streams, block_rows):
        t0, t1 = streams
        header = "qdbench test seed=0 config=x"
        path = tmp_path_factory.mktemp("clicks") / "clicks.csv"
        with mock.patch.object(pipeline, "_WRITE_BLOCK_ROWS", block_rows):
            with pipeline._ClickWriter(path, header, 1e4) as writer:
                writer.write(t0, t1)
        assert path.read_bytes() == _row_loop_reference(t0, t1, header, 1e4)

    @settings(max_examples=300, deadline=None)
    @given(streams=_click_streams(), data=st.data(),
           block_rows=st.sampled_from([1, 3, 1 << 16]))
    def test_block_by_block_writing_equals_the_whole_streams(self, tmp_path_factory, streams,
                                                             data, block_rows):
        # Blocks cut at given times, as detected_chunks cuts a train:
        # the clicks before a time go to one block and the rest to later
        # ones, so no time is shared across blocks; equal cuts give empty
        # blocks.
        t0, t1 = streams
        both = np.concatenate([t0, t1]).tolist()
        cut_times = st.one_of(_CLICK_TIMES, st.sampled_from(both)) if both else _CLICK_TIMES
        cuts = sorted(data.draw(st.lists(cut_times, max_size=8)))
        bounds = [[0, *np.searchsorted(t, np.array(cuts, dtype=np.int64)).tolist(), t.size]
                  for t in (t0, t1)]
        header = "qdbench test seed=0 config=x"
        path = tmp_path_factory.mktemp("clicks")
        with mock.patch.object(pipeline, "_WRITE_BLOCK_ROWS", block_rows):
            with pipeline._ClickWriter(path / "blocks.csv", header, 1e4) as writer:
                for i in range(len(cuts) + 1):
                    writer.write(*(t[b[i]:b[i + 1]] for t, b in zip((t0, t1), bounds)))
            with pipeline._ClickWriter(path / "whole.csv", header, 1e4) as whole:
                whole.write(t0, t1)
        assert writer.rows == t0.size + t1.size
        written = (path / "blocks.csv").read_bytes()
        assert written == (path / "whole.csv").read_bytes()
        assert written == _row_loop_reference(t0, t1, header, 1e4)

    @pytest.mark.parametrize("row", ["0,12,5", "0;12", "0,abc", "zero,12", "0,-3.5", "1,12.25",
                                     "2,12", "-1,12"])
    def test_malformed_row_is_a_validation_error(self, tmp_path, row, capsys):
        path = tmp_path / "clicks.csv"
        path.write_text(f"# channel,time_ps\n0,1\n{row}\n1,2\n")
        with pytest.raises(ValueError):
            read_timestamps(path)
        code = cli_main(["analyze", "--timestamps", str(path), "--mode", "hbt",
                         "--rep-rate-mhz", "81", "--out", str(tmp_path / "analysis")])
        assert code == 1
        assert capsys.readouterr().err.count("error:") == 1

    @pytest.mark.parametrize("setup_name", sorted(_GOLDEN_CLICK_DIGESTS))
    def test_golden_click_file_digest(self, tmp_path, setup_name):
        config = FleetConfig.from_parts(list(GOLDEN_SOURCES.values()), GOLDEN_SETUPS[setup_name])
        run_pipeline(config, _GOLDEN_CLICK_PULSES, _GOLDEN_CLICK_SEED, out_dir=str(tmp_path),
                     save_clicks=True)
        files = [
            (tmp_path / source.label / name).read_bytes()
            for source in config.sources
            for name in ("hbt_clicks.csv", "hom_clicks.csv")
        ]
        if setup_name == "leak_dark":
            # A pulse-0 laser-leak click lands before t = 0.
            assert any(b",-" in data for data in files)
        digest = hashlib.sha256(b"".join(files)).hexdigest()
        assert digest == _GOLDEN_CLICK_DIGESTS[setup_name]

    def test_golden_click_file_digest_of_row_sized_chunks(self, tmp_path):
        # A default-setup trion's train over two chunks of 2**22 pulses, the
        # size its expected rows give, as `qdbench simulate` writes it.
        source = trion_config().sources[0]
        setup = SetupParams()
        assert photon_sim._chunk_pulses(source, setup) == 2**22
        config = FleetConfig.from_parts([source], setup)
        header = pipeline.file_header(_GOLDEN_CLICK_SEED, config.config_hash)
        pipeline.write_source_clicks(source, setup, _GOLDEN_CLICK_SEED, 0,
                                     _GOLDEN_ROW_SIZED_PULSES, str(tmp_path), header)
        files = [(tmp_path / source.label / f"{train}_clicks.csv").read_bytes()
                 for train in ("hbt", "hom")]
        digest = hashlib.sha256(b"".join(files)).hexdigest()
        assert digest == _GOLDEN_ROW_SIZED_CLICK_DIGEST


def _table_reference(header, notes, names, columns) -> bytes:
    """A table as a row-by-row writer produces it: every value by repr."""
    lines = [f"# {header}\n", f"# {notes}\n", ",".join(names) + "\n"]
    rows = zip(*(np.asarray(column).tolist() for column in columns))
    lines += [",".join(map(repr, row)) + "\n" for row in rows]
    return "".join(lines).encode()


@settings(max_examples=200, deadline=None)
@given(times=st.lists(st.integers(-10**9, 10**9), max_size=200),
       n_bins=st.integers(1, 1000), period=st.sampled_from([4000.0, 12345.679012345678]),
       block=st.sampled_from([1, 7, 1 << 16]))
def test_decay_fold_counts_as_np_histogram(times, n_bins, period, block):
    # Negative times, and times folding exactly onto the top edge (4 n_bins)
    # and onto 0, which the last and the first bin hold.
    top = 4 * n_bins
    t = np.sort(np.array(times + [top, -4000 + top, 0, -4000, top - 1, top + 1],
                         dtype=np.int64))
    counts = np.zeros(n_bins, dtype=np.int64)
    with mock.patch.object(pipeline, "_FOLD_BLOCK", block):
        pipeline._fold_decay(counts, t, period)
    expected = np.histogram(np.mod(t, period), bins=n_bins, range=(0.0, float(top)))[0]
    assert np.array_equal(counts, expected)


class TestHistogramTables:
    def test_tables_match_a_row_by_row_writer(self, tmp_path):
        # The tables of a run share one delay column, which is formatted
        # once.  A new bin width, or a new bin count at the same width
        # (the last two), must still be written as its own text.
        rng = np.random.default_rng(5)
        period = 12345.0
        for i, (width, extra) in enumerate([(33.3, 0), (33.3, 0), (100.0, 0), (12.5, 0),
                                            (33.3, 0), (33.3, 1)]):
            half = round(correlation.HISTOGRAM_PERIODS * period / width) + extra
            delays = (np.arange(2 * half + 1) - half) * width
            hist = CorrelationHistogram(width, rng.poisson(50.0, delays.size), period)
            path = tmp_path / f"hist{i}.csv"
            pipeline.write_histogram(hist, path, "qdbench test")
            notes = f"bin_width_ps={width!r} rep_period_ps={period!r}"
            assert path.read_bytes() == _table_reference(
                "qdbench test", notes, ("bin_center_ps", "counts"), (delays, hist.counts))


class TestCli:
    def _write_config(self, tmp_path):
        cfg = trion_config()
        path = tmp_path / "fleet.cfg"
        write_config(cfg, path)
        return path

    def test_pipeline_subcommand(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path)
        code = cli_main([
            "pipeline", "--config", str(cfg_path), "--pulses", "100000",
            "--seed", "7", "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "S11" in out and "g2=" in out
        assert (tmp_path / "out" / "summary.json").exists()

    def test_simulate_then_analyze(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path)
        out = tmp_path / "streams"
        assert cli_main([
            "simulate", "--config", str(cfg_path), "--pulses", "200000",
            "--seed", "3", "--out", str(out),
        ]) == 0
        hbt = out / "S11" / "hbt_clicks.csv"
        assert hbt.exists()
        analysis = tmp_path / "analysis" / "S11"
        assert cli_main([
            "analyze", "--timestamps", str(hbt), "--mode", "hbt", "--out", str(analysis),
        ]) == 0
        payload = json.loads((analysis / "hbt_clicks_estimates.json").read_text())
        assert 0.0 <= payload["g2"] < 0.05
        hom = out / "S11" / "hom_clicks.csv"
        assert cli_main([
            "analyze", "--timestamps", str(hom), "--mode", "hom",
            "--g2", str(payload["g2"]), "--out", str(analysis),
        ]) == 0
        hom_payload = json.loads((analysis / "hom_clicks_estimates.json").read_text())
        assert 0.5 < hom_payload["v_raw"] <= 1.0
        assert 0.5 < hom_payload["overlap_corrected"] <= 1.0

    def test_simulate_isolates_a_failing_source(self, tmp_path, capsys):
        # As in `pipeline`, a source that fails is listed in failures.json,
        # leaves no click file, and the later sources still run.
        good = trion_source(164.9, brightness_first_lens=0.147, label="T1")
        dark = exciton_source(252.0, 8.58, 90.0, brightness_first_lens=0.1, label="DARK")
        late = trion_source(164.9, brightness_first_lens=0.147, label="T2")
        cfg_path = tmp_path / "fleet.cfg"
        write_config(FleetConfig.from_parts([good, dark, late], CLEAN_SETUP), cfg_path)
        out = tmp_path / "sim"
        (out / "DARK").mkdir(parents=True)
        (out / "DARK" / "hom_clicks.csv").write_text("a stale file of an earlier run\n")
        assert cli_main(["simulate", "--config", str(cfg_path), "--pulses", "10000",
                         "--out", str(out)]) == 2
        assert _files(out) == ["T1/hbt_clicks.csv", "T1/hom_clicks.csv", "T2/hbt_clicks.csv",
                               "T2/hom_clicks.csv", "failures.json"]
        failures = json.loads((out / "failures.json").read_text())
        assert list(failures) == ["DARK", "_header"]
        assert failures["DARK"].startswith("UnsamplableEmissionError: ")
        assert "DARK: FAILED (UnsamplableEmissionError" in capsys.readouterr().err
        # A pulse count that no source can use fails the run once, as a usage error.
        assert cli_main(["simulate", "--config", str(cfg_path), "--pulses", "0",
                         "--out", str(tmp_path / "none")]) == 1
        assert not (tmp_path / "none").exists()

    def test_simulate_rows_equal_pipeline_clicks(self, tmp_path, capsys):
        cfg = FleetConfig.from_parts(
            [*trion_config(2).sources, *s7_config().sources], CLEAN_SETUP
        )
        cfg_path = tmp_path / "fleet.cfg"
        write_config(cfg, cfg_path)
        common = ["--config", str(cfg_path), "--pulses", "150000", "--seed", "9"]
        # `simulate` writes exactly the click files of `pipeline --save-clicks`.
        sim, pipe = tmp_path / "sim", tmp_path / "pipe"
        assert cli_main(["simulate", *common, "--out", str(sim)]) == 0
        assert cli_main(["pipeline", *common, "--save-clicks", "--out", str(pipe)]) == 0
        names = _files(sim)
        assert names == [name for name in _files(pipe) if name.endswith("_clicks.csv")]
        assert len(names) == 2 * len(cfg.sources)
        for name in names:
            simulated = (sim / name).read_bytes()
            assert simulated.count(b"\n") > 1000
            assert simulated == (pipe / name).read_bytes()

    def test_analyze_of_simulated_files_reproduces_pipeline(self, tmp_path, capsys):
        # Re-analysing saved clicks bins the same integers the pipeline
        # binned, so histograms and estimates agree exactly.
        cfg = FleetConfig.from_parts(
            [*trion_config(2).sources, *s7_config().sources], CLEAN_SETUP
        )
        cfg_path = tmp_path / "fleet.cfg"
        write_config(cfg, cfg_path)
        common = ["--config", str(cfg_path), "--pulses", "200000", "--seed", "13"]
        assert cli_main(["simulate", *common, "--out", str(tmp_path / "sim")]) == 0
        assert cli_main(["pipeline", *common, "--out", str(tmp_path / "pipe")]) == 0

        def analyze(label, mode, *extra):
            analysis = tmp_path / "analysis" / label
            assert cli_main(["analyze", "--timestamps",
                             str(tmp_path / "sim" / label / f"{mode}_clicks.csv"),
                             "--mode", mode, "--out", str(analysis), *extra]) == 0
            estimates = json.loads((analysis / f"{mode}_clicks_estimates.json").read_text())
            return estimates, analysis / f"{mode}_clicks_histogram.csv"

        for source in cfg.sources:
            pipe = tmp_path / "pipe" / source.label
            report = json.loads((pipe / "report.json").read_text())
            hbt, hbt_hist = analyze(source.label, "hbt")
            hom, hom_hist = analyze(source.label, "hom", "--g2", repr(hbt["g2"]))
            assert hbt["g2"] == report["g2"]
            assert hom["v_raw"] == report["v_raw"]
            assert hom["overlap_corrected"] == report["overlap_corrected"]
            assert hbt["_header"] == hom["_header"] == report["_header"]
            for hist, mode in ((hbt_hist, "hbt"), (hom_hist, "hom")):
                assert read_histogram(hist).counts.sum() > 10_000
                assert hist.read_bytes() == (pipe / f"{mode}_histogram.csv").read_bytes()

    def test_analyze_and_fit_read_the_run_settings_from_its_files(self, tmp_path, capsys):
        # Off the default rate and jitter, the click and trace files tell
        # `analyze` and `fit` the run's repetition period and IRF width.
        setup = SetupParams(rep_rate_mhz=76.0, jitter_fwhm_ps=40.0)
        cfg = FleetConfig.from_parts(trion_config().sources, setup)
        cfg_path = tmp_path / "fleet.cfg"
        write_config(cfg, cfg_path)
        run = tmp_path / "run"
        assert cli_main(["pipeline", "--config", str(cfg_path), "--pulses", "200000",
                         "--seed", "1", "--save-clicks", "--out", str(run)]) == 0
        src_dir, out = run / "S11", tmp_path / "again"
        for mode in ("hbt", "hom"):
            assert cli_main(["analyze", "--timestamps", str(src_dir / f"{mode}_clicks.csv"),
                             "--mode", mode, "--out", str(out)]) == 0
            assert ((out / f"{mode}_clicks_histogram.csv").read_bytes()
                    == (src_dir / f"{mode}_histogram.csv").read_bytes())
        assert cli_main(["fit", "--trace", str(src_dir / "decay_trace.csv"), "--kind", "trion",
                         "--out", str(out)]) == 0
        assert (out / "fit.json").read_bytes() == (src_dir / "fit.json").read_bytes()

        # A flag is only for a file that does not record its setting.
        capsys.readouterr()
        assert cli_main(["analyze", "--timestamps", str(src_dir / "hbt_clicks.csv"),
                         "--mode", "hbt", "--rep-rate-mhz", "76", "--out", str(out)]) == 1
        assert cli_main(["fit", "--trace", str(src_dir / "decay_trace.csv"), "--kind", "trion",
                         "--irf-fwhm", "40", "--out", str(out)]) == 1
        hand_made = tmp_path / "clicks.csv"
        hand_made.write_text("# channel,time_ps\n0,1\n1,2\n")
        assert cli_main(["analyze", "--timestamps", str(hand_made), "--mode", "hbt",
                         "--out", str(out)]) == 1
        assert cli_main(["analyze", "--timestamps", str(hand_made), "--mode", "hbt",
                         "--rep-rate-mhz", "0", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--rep-rate-mhz is only for files without it" in err
        assert "--irf-fwhm is only for files without it" in err
        assert "records no rep_period_ps; pass --rep-rate-mhz" in err
        assert "--rep-rate-mhz must be > 0, got 0.0" in err

    def test_analyze_checks_its_settings_before_the_rows(self, tmp_path, capsys):
        # The flag and the file's note are checked before any row is read.
        path = tmp_path / "clicks.csv"
        path.write_text("# channel,time_ps\n0,1\nnot a row\n")
        noted = tmp_path / "noted.csv"
        noted.write_text("# channel,time_ps\n# rep_period_ps=12345.0\n0,1\nnot a row\n")
        for clicks, rate in ((path, "0"), (noted, "81")):
            assert cli_main(["analyze", "--timestamps", str(clicks), "--mode", "hbt",
                             "--rep-rate-mhz", rate, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: --rep-rate-mhz must be > 0, got 0.0",
            f"error: {noted} records rep_period_ps; --rep-rate-mhz is only for files without it",
        ]

    def test_threads_below_one_rejected(self, tmp_path, capsys):
        code = cli_main([
            "pipeline", "--config", str(self._write_config(tmp_path)), "--pulses", "1000",
            "--threads", "0", "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "threads must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--pulses", "0", "n_pulses must be > 0, got 0"),
    ])
    def test_run_wide_settings_fail_the_run_once(self, tmp_path, capsys, flag, value, message):
        # A setting shared by every source fails the run before any source
        # runs, not each source on its own.
        cfg_path = tmp_path / "fleet.cfg"
        write_config(trion_config(n=3), cfg_path)
        argv = ["pipeline", "--config", str(cfg_path), "--pulses", "1000",
                "--out", str(tmp_path / "o"), flag, value]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "o").exists()

    def test_a_repetition_rate_too_low_for_the_grid_fails_the_run_once(self, tmp_path, capsys):
        cfg = FleetConfig.from_parts(trion_config(n=3).sources, SetupParams(rep_rate_mhz=0.001))
        cfg_path = tmp_path / "fleet.cfg"
        write_config(cfg, cfg_path)
        assert cli_main(["pipeline", "--config", str(cfg_path), "--pulses", "1000",
                         "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: a histogram of 100.0 ps bins over +/-10.5 periods of 1000000000.0 ps "
            "needs 2.1e+08 bins; it may hold 3 to 16777216"]
        assert not (tmp_path / "o").exists()

    def test_a_repetition_rate_too_high_for_the_window_fails_the_run_once(self, tmp_path,
                                                                         capsys):
        cfg = FleetConfig.from_parts(trion_config(n=3).sources, SetupParams(rep_rate_mhz=300))
        cfg_path = tmp_path / "fleet.cfg"
        write_config(cfg, cfg_path)
        assert cli_main(["pipeline", "--config", str(cfg_path), "--pulses", "1000",
                         "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: window 2000.0 ps must be > 0 and at most half a repetition period "
            "(1666.7 ps), so that peaks do not overlap"]
        assert not (tmp_path / "o").exists()

    def test_a_jitter_the_decay_fit_cannot_model_fails_the_run_once(self, tmp_path, capsys):
        # The 4 ps trace grid undersamples a jitter under 16 ps FWHM, so every
        # source's fit would fail after both its trains were simulated.
        cfg = FleetConfig.from_parts(trion_config(n=3).sources, SetupParams(jitter_fwhm_ps=12.0))
        with mock.patch.object(pipeline, "analyze_source") as analyze:
            with pytest.raises(ValueError, match="undersamples"):
                run_pipeline(cfg, 1000, seed=1)
        analyze.assert_not_called()
        cfg_path = tmp_path / "fleet.cfg"
        write_config(cfg, cfg_path)
        assert cli_main(["pipeline", "--config", str(cfg_path), "--pulses", "1000",
                         "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: trace grid step 4.0 ps undersamples the 12.0 ps FWHM instrument response"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--bin-width", "0", "bin_width_ps must be > 0, got 0.0"),
        ("--bin-width", "nan", "bin_width_ps must be > 0, got nan"),
        ("--bin-width", "inf", "a histogram of inf ps bins over +/-10.5 periods of "
                               "12345.67901234568 ps needs 1 bins; it may hold 3 to 16777216"),
        ("--bin-width", "0.001", "a histogram of 0.001 ps bins over +/-10.5 periods of "
                                 "12345.67901234568 ps needs 2.59e+08 bins; it may hold 3 to "
                                 "16777216"),
        ("--window", "7000", "window 7000.0 ps must be > 0 and at most half a repetition period"),
        ("--window", "0", "window 0.0 ps must be > 0 and at most half a repetition period"),
        ("--window", "-5", "window -5.0 ps must be > 0 and at most half a repetition period"),
        ("--window", "nan", "window nan ps must be > 0 and at most half a repetition period"),
        # No 100 ps bin center lies within 1 ps of a side peak's center.
        ("--window", "1", "side peaks are empty; normalization undefined"),
        ("--g2", "1.5", "g2 must lie in [0, 1), got 1.5"),
    ])
    def test_a_failed_analysis_writes_nothing(self, tmp_path, capsys, flag, value, message):
        # Every estimate is made before the first file is written.
        period = 1e6 / 81
        path = tmp_path / "clicks.csv"
        path.write_text("# channel,time_ps\n" + "".join(
            f"{channel},{round(k * period)}\n" for k in range(30) for channel in (0, 1)))
        argv = ["analyze", "--timestamps", str(path), "--mode", "hom", "--rep-rate-mhz", "81",
                "--out", str(tmp_path / "o"), flag, value]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("rate, message", [
        ("0.001", "periods of 1000000000.0 ps needs 2.1e+08 bins; it may hold 3 to 16777216"),
        ("1e-300", "periods of 1e+306 ps needs 2.1e+305 bins; it may hold 3 to 16777216"),
        ("inf", "rep_period_ps must be finite and > 0, got 0.0"),
    ])
    def test_analyze_rejects_an_impossible_grid(self, tmp_path, capsys, rate, message):
        path = tmp_path / "clicks.csv"
        path.write_text("# channel,time_ps\n0,1\n1,2\n")
        assert cli_main(["analyze", "--timestamps", str(path), "--mode", "hbt",
                         "--rep-rate-mhz", rate, "--out", str(tmp_path / "o")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and line.endswith(message)

    def test_notes_that_qdbench_does_not_read_are_ignored(self, tmp_path, capsys):
        # A hand-made file may note more than the run settings, such as its
        # tagger; analyze and fit read it as the file without those notes.
        run = tmp_path / "run"
        assert cli_main(["pipeline", "--config", str(self._write_config(tmp_path)),
                         "--pulses", "100000", "--seed", "3", "--save-clicks",
                         "--out", str(run)]) == 0
        plain, noted = run / "S11", tmp_path / "noted"
        noted.mkdir()
        for name in ("hbt_clicks.csv", "decay_trace.csv"):
            lines = (plain / name).read_text().split("\n")
            i = next(i for i, line in enumerate(lines) if "_ps=" in line)
            lines[i] = f"# tagger=HydraHarp {lines[i][2:]} version=1.2.3"
            (noted / name).write_text("\n".join(lines))
        for d in (plain, noted):
            assert cli_main(["analyze", "--timestamps", str(d / "hbt_clicks.csv"),
                             "--mode", "hbt", "--out", str(d / "out")]) == 0
            assert cli_main(["fit", "--trace", str(d / "decay_trace.csv"), "--kind", "trion",
                             "--out", str(d / "out")]) == 0
        for name in ("hbt_clicks_histogram.csv", "hbt_clicks_estimates.json", "fit.json"):
            assert (noted / "out" / name).read_bytes() == (plain / "out" / name).read_bytes()

    @pytest.mark.parametrize("argv, lines, note", [
        (["analyze", "--mode", "hbt", "--timestamps"],
         "# channel,time_ps\n# tagger=HydraHarp rep_period_ps=abc\n0,1\n1,2\n",
         "rep_period_ps=abc"),
        (["fit", "--kind", "trion", "--trace"], "# irf_fwhm_ps=53ps\nt_ps,counts\n2.0,5\n",
         "irf_fwhm_ps=53ps"),
    ], ids=["analyze", "fit"])
    def test_a_setting_that_is_not_a_number_is_one_error_line(self, tmp_path, capsys, argv,
                                                              lines, note):
        path = tmp_path / "noted.csv"
        path.write_text(lines)
        assert cli_main([*argv, str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: note {note} is not a number"]

    def test_fit_subcommand(self, tmp_path, capsys):
        from conftest import synth_trace

        trace = synth_trace(TransitionKind.TRION, 12, 164.9)
        path = tmp_path / "trace.csv"
        with open(path, "w") as f:
            f.write("t_ps,counts\n")
            for t, c in zip(trace.t_ps, trace.counts):
                f.write(f"{t},{int(c)}\n")
        assert cli_main([
            "fit", "--trace", str(path), "--kind", "trion", "--irf-fwhm", "53",
            "--out", str(tmp_path / "fit"),
        ]) == 0
        payload = json.loads((tmp_path / "fit" / "fit.json").read_text())
        assert payload["params"]["tau"] == pytest.approx(164.9, abs=1.5)
        assert "_header" not in payload  # a hand-made file carries no provenance

    @pytest.mark.parametrize("note, flag, width", [
        ("", "-53", "-53.0"), ("", "nan", "nan"), ("# irf_fwhm_ps=nan\n", None, "nan")],
        ids=["negative-flag", "nan-flag", "nan-note"])
    def test_an_irf_width_the_fit_cannot_use_is_one_error_line(self, tmp_path, capsys, note,
                                                               flag, width):
        # 0 means no instrument response; a negative or non-finite width is
        # refused rather than fitted as none.
        from conftest import synth_trace

        trace = synth_trace(TransitionKind.TRION, 12, 164.9)
        path = tmp_path / "trace.csv"
        path.write_text(note + "t_ps,counts\n" + "".join(
            f"{t},{int(c)}\n" for t, c in zip(trace.t_ps, trace.counts)))
        argv = ["fit", "--trace", str(path), "--kind", "trion", "--out", str(tmp_path / "out")]
        assert cli_main(argv + (["--irf-fwhm", flag] if flag else [])) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: irf_fwhm_ps must be finite and >= 0, got {width}"]
        assert not (tmp_path / "out").exists()

    def test_a_trace_without_signal_is_one_error_line(self, tmp_path, capsys):
        # A flat trace holds no decay to fit: the fit refuses it as input,
        # with exit 1 and nothing written, not with a traceback.
        path = tmp_path / "trace.csv"
        path.write_text("# irf_fwhm_ps=53.0\nt_ps,counts\n"
                        + "".join(f"{4 * i + 2},5\n" for i in range(600)))
        argv = ["fit", "--trace", str(path), "--kind", "trion", "--out", str(tmp_path / "out")]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: no decay signal above background"]
        assert not (tmp_path / "out").exists()

    def test_classify_subcommand(self, tmp_path):
        path = tmp_path / "scan.csv"
        with open(path, "w") as f:
            f.write("phi_rad,cavity_light,qd_light\n")
            for phi in np.linspace(0, math.pi, 13):
                f.write(f"{phi},{math.sin(2 * phi) ** 2},{math.sin(2 * (0.6 - phi)) ** 2}\n")
        assert cli_main(["classify", "--phiscan", str(path), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "classification.json").read_text())
        assert payload["kind"] == "exciton"
        assert payload["theta_est_deg"] == pytest.approx(math.degrees(0.6), abs=0.01)
        assert "_header" not in payload  # a hand-made file carries no provenance

    @pytest.mark.parametrize("command", ["fit", "classify"])
    def test_a_non_finite_value_is_one_error_line(self, tmp_path, capsys, command):
        # One nan in a hand-made trace or scan fails the command before it
        # fits or decides anything, and nothing is written.
        from conftest import synth_trace

        path = tmp_path / "input.csv"
        if command == "fit":
            trace = synth_trace(TransitionKind.TRION, 12, 164.9)
            rows = [f"{t},{int(c)}" for t, c in zip(trace.t_ps, trace.counts)]
            rows[40] = f"{trace.t_ps[40]},nan"
            path.write_text("t_ps,counts\n" + "\n".join(rows) + "\n")
            argv = ["fit", "--trace", str(path), "--kind", "trion", "--irf-fwhm", "53"]
        else:
            rows = [f"{phi},{math.sin(2 * phi) ** 2},{math.sin(2 * (0.6 - phi)) ** 2}"
                    for phi in np.linspace(0, math.pi, 13)]
            rows[5] = f"{rows[5].rsplit(',', 1)[0]},nan"
            path.write_text("phi_rad,cavity_light,qd_light\n" + "\n".join(rows) + "\n")
            argv = ["classify", "--phiscan", str(path)]
        assert cli_main([*argv, "--out", str(tmp_path / "out")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and "finite" in line, line
        assert not (tmp_path / "out").exists()

    def test_report_subcommand(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path)
        out = tmp_path / "out"
        cli_main([
            "pipeline", "--config", str(cfg_path), "--pulses", "100000",
            "--seed", "7", "--out", str(out),
        ])
        rep = tmp_path / "rep"
        assert cli_main(["report", "--reports", str(out / "summary.json"),
                         "--out", str(rep)]) == 0
        # `report` rewrites the run's three summaries, each with the
        # provenance line of the run it summarises.
        assert _files(rep) == ["summary.csv", "summary.json", "summary.txt"]
        for name in _files(rep):
            assert (rep / name).read_bytes() == (out / name).read_bytes()
        first_line = (rep / "summary.csv").read_text().splitlines()[0]
        assert first_line.startswith("# qdbench ")
        assert first_line.endswith(f" stream_layout={photon_sim.STREAM_LAYOUT}")
        assert capsys.readouterr().out.endswith((rep / "summary.txt").read_text() + "\n")

    @pytest.mark.parametrize("text", ["{}", '{"sources": [{"label": "X"}]}', "[1, 2]"],
                             ids=["no-sources", "missing-fields", "not-an-object"])
    def test_malformed_report_file_is_one_error_line(self, tmp_path, capsys, text):
        path = tmp_path / "reports.json"
        path.write_text(text)
        assert cli_main(["report", "--reports", str(path), "--out", str(tmp_path / "o")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:")

    @pytest.mark.parametrize("argv,lines", [
        (["analyze", "--mode", "hbt", "--timestamps"],
         "# channel,time_ps\n# rep_period_ps=12345.0\n"),
        (["fit", "--kind", "trion", "--trace"], "# irf_fwhm_ps=53.0\nt_ps,counts\n"),
        (["classify", "--phiscan"], "phi_rad,cavity_light,qd_light\n"),
    ], ids=["analyze", "fit", "classify"])
    def test_file_without_rows_is_one_error_line(self, tmp_path, capsys, argv, lines):
        path = tmp_path / "empty.csv"
        path.write_text(f"# qdbench 0.1.0 seed=1 config=x stream_layout=5\n{lines}")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main([*argv, str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path} holds no rows"]

    @pytest.mark.parametrize("argv,lines,columns", [
        (["fit", "--kind", "trion", "--trace"], "# irf_fwhm_ps=53.0\nt_ps,counts,extra\n1,2,3\n",
         "expected 2 columns (t_ps,counts), found 3"),
        (["classify", "--phiscan"], "phi_rad,cavity_light\n0.0,1.0\n",
         "expected 3 columns (phi_rad,cavity_light,qd_light), found 2"),
    ], ids=["fit", "classify"])
    def test_table_of_the_wrong_width_is_one_error_line(self, tmp_path, capsys, argv, lines,
                                                        columns):
        path = tmp_path / "table.csv"
        path.write_text(lines)
        assert cli_main([*argv, str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: {columns}"]

    def test_validation_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[source:X]\nkind = trion\ntau_ps = -1\n")
        code = cli_main([
            "pipeline", "--config", str(bad), "--pulses", "1000",
            "--seed", "1", "--out", str(tmp_path / "o"),
        ])
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["analyze", "--timestamps", "t.csv", "--mode", "hbx", "--out", "o"],
        ["pipeline", "--config", "fleet.cfg"],
        ["fit", "--trace", "t.csv", "--kind", "trion", "--out", "o", "--seed", "1"],
        ["simulate", "--config", "fleet.cfg", "--out", "o", "--window", "2000"],
        ["pipeline", "--config", "fleet.cfg", "--out", "o", "--window", "2000"],
        ["pipeline", "--config", "fleet.cfg", "--out", "o", "--bin-width", "50"],
        ["frobnicate"],
        ["analyze", "--timestamps", "missing.csv", "--mode", "hbt", "--out", "o"],
        ["fit", "--trace", "missing.csv", "--kind", "trion", "--out", "o"],
        ["classify", "--phiscan", "missing.csv", "--out", "o"],
        ["report", "--reports", "missing.json", "--out", "o"],
        ["simulate", "--config", "missing.cfg", "--out", "o"],
        ["pipeline", "--config", "missing.cfg", "--out", "o"],
    ], ids=["bad-choice", "missing-flag", "fit-seed", "simulate-window", "pipeline-window",
            "pipeline-bin-width", "unknown-command",
            "no-timestamps", "no-trace", "no-phiscan", "no-reports", "simulate-no-config",
            "pipeline-no-config"])
    def test_usage_error_and_missing_input_exit_1(self, tmp_path, monkeypatch, capsys, argv):
        # fleet.cfg is a valid config, so a command that names it fails on its flags alone.
        write_config(trion_config(), tmp_path / "fleet.cfg")
        monkeypatch.chdir(tmp_path)
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse exits from inside main
            code = exc.code
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_partial_failure_exit_code(self, tmp_path):
        good = trion_source(164.9, brightness_first_lens=0.147, label="GOOD")
        dark = exciton_source(252.0, 8.58, 0.0, brightness_first_lens=0.1, label="DARK")
        cfg = FleetConfig.from_parts([good, dark], CLEAN_SETUP)
        path = tmp_path / "mixed.cfg"
        write_config(cfg, path)
        code = cli_main([
            "pipeline", "--config", str(path), "--pulses", "50000",
            "--seed", "2", "--out", str(tmp_path / "o"),
        ])
        assert code == 2
