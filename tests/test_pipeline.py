import filecmp
import hashlib
import json
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOLDEN_SETUPS, GOLDEN_SOURCES

from qdbench import pipeline
from qdbench.cli import main as cli_main
from qdbench.config import FleetConfig, write_config
from qdbench.model import SetupParams, TransitionKind, exciton_source, trion_source
from qdbench.pipeline import (
    PipelineOptions,
    analyze_source,
    read_timestamps,
    run_pipeline,
    write_timestamps,
)

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
        math.pi / 4,
        brightness_first_lens=0.136,
        p_two_photon=0.00022,
        dephasing=0.059,
        label="S7",
    )
    return FleetConfig.from_parts([src], CLEAN_SETUP)


class TestRunPipeline:
    @pytest.mark.parametrize("save_clicks", [False, True])
    def test_clicks_kept_only_when_saved(self, save_clicks):
        source = trion_config().sources[0]
        result = analyze_source(source, CLEAN_SETUP, seed=5, source_index=0, n_pulses=50_000,
                                options=PipelineOptions(save_clicks=save_clicks))
        if save_clicks:
            assert [c.size > 0 for c in result["clicks"]] == [True] * 4
        else:
            assert result["clicks"] is None

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
        files = []
        for base, _, names in os.walk(dirs[0]):
            rel = os.path.relpath(base, dirs[0])
            files.extend(os.path.join(rel, n) for n in names)
        assert files
        for other in dirs[1:]:
            match, mismatch, errors = filecmp.cmpfiles(
                dirs[0], other, files, shallow=False
            )
            assert not mismatch and not errors

    def test_per_source_failure_recorded_and_run_continues(self, tmp_path):
        good = trion_source(164.9, brightness_first_lens=0.147, label="GOOD")
        dark = exciton_source(252.0, 8.58, 0.0, brightness_first_lens=0.1, label="DARK")
        cfg = FleetConfig.from_parts([good, dark], CLEAN_SETUP)
        result = run_pipeline(cfg, n_pulses=100_000, seed=3, out_dir=str(tmp_path))
        assert [r.label for r in result.reports] == ["GOOD"]
        assert "DARK" in result.failures
        assert (tmp_path / "failures.json").exists()

    def test_fit_reproduces_pipeline_fit_from_its_decay_trace(self, tmp_path):
        cfg = FleetConfig.from_parts([*s7_config().sources, *trion_config().sources],
                                     CLEAN_SETUP)
        run_pipeline(cfg, n_pulses=200_000, seed=4, out_dir=str(tmp_path / "run"))
        for source in cfg.sources:
            src_dir = tmp_path / "run" / source.label
            refit = tmp_path / "refit" / source.label
            assert cli_main([
                "fit", "--trace", str(src_dir / "decay_trace.csv"),
                "--kind", source.kind.value,
                "--irf-fwhm", repr(cfg.setup.jitter_fwhm_ps), "--out", str(refit),
            ]) == 0
            expected = json.loads((src_dir / "fit.json").read_text())["params"]
            assert json.loads((refit / "fit.json").read_text())["params"] == expected

    def test_headers_carry_version_seed_and_hash(self, tmp_path):
        cfg = trion_config()
        run_pipeline(cfg, n_pulses=100_000, seed=21, out_dir=str(tmp_path))
        text = (tmp_path / "S11" / "decay_trace.csv").read_text().splitlines()[0]
        assert text.startswith("# qdbench 0.1.0")
        assert "seed=21" in text
        assert cfg.config_hash in text
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "seed=21" in summary["_header"]


def _row_loop_reference(t0, t1, header) -> bytes:
    """The click file as the original row-by-row writer produced it."""
    channel = np.concatenate([np.zeros(t0.size, dtype=np.int64),
                              np.ones(t1.size, dtype=np.int64)])
    times = np.rint(np.concatenate([t0, t1]))
    order = np.lexsort((channel, times))
    lines = [header + "\n", "# channel,time_ps\n"]
    for ch, t in zip(channel[order].tolist(), times[order].astype(np.int64).tolist()):
        lines.append(f"{ch},{t}\n")
    return "".join(lines).encode()


_DECADES = [sign * (10.0**k + d) for k in range(19) for d in (-1.0, -0.5, 0.0, 0.5)
            for sign in (1.0, -1.0)]
_CLICK_TIMES = st.one_of(
    st.integers(-(10**6), 10**6).map(float),
    st.integers(-(10**6), 10**6).map(lambda k: k + 0.5),
    st.sampled_from([*_DECADES, -0.0, -0.4, 0.4]),
    st.floats(-9e18, 9e18, allow_nan=False, allow_infinity=False),
)


@st.composite
def _click_streams(draw):
    """Two sorted channels with negatives, -0.0, .5 ties, 10**k edges and shared times."""
    t0 = sorted(draw(st.lists(_CLICK_TIMES, max_size=40)))
    shared = draw(st.lists(st.sampled_from(t0), max_size=10)) if t0 else []
    t1 = sorted(draw(st.lists(_CLICK_TIMES, max_size=40)) + shared)
    if draw(st.booleans()):
        t0, t1 = t1, t0
    return np.array(t0, dtype=float), np.array(t1, dtype=float)


#: SHA-256 of the concatenated ``pipeline --save-clicks`` click files of the
#: golden fleet, recorded with the original row-by-row writer.
_GOLDEN_CLICK_SEED = 51
_GOLDEN_CLICK_PULSES = 100_000
_GOLDEN_CLICK_DIGESTS = {
    "default":
        "f50f5824bbedb05c1fea4e93d9812cc87881d00f6e925be73b89b2a1af260234",
    "lossless":
        "767f2bfa71b1e3fae1da47c7cef905da6d923d1544d04d87af752c036ccdffa1",
    "leak_dark":
        "6f367cb000bc9bd690f1f793b5d29600193a3351cdf7b36f621e5f5609733ff3",
}


class TestTimestampFiles:
    def test_round_trip_integer_picoseconds(self, tmp_path):
        t0 = np.sort(np.array([3.2, 100.7, 5000.1]))
        t1 = np.sort(np.array([42.9, 77.3]))
        path = tmp_path / "clicks.csv"
        write_timestamps(path, t0, t1, "# qdbench test seed=0 config=x")
        lines = path.read_text().splitlines()
        assert lines[1] == "# channel,time_ps"
        back0, back1 = read_timestamps(path)
        assert np.array_equal(back0, np.rint(t0))
        assert np.array_equal(back1, np.rint(t1))

    def test_block_writer_matches_row_loop(self, tmp_path):
        # More rows than one write block, with ties across the two channels.
        rng = np.random.default_rng(3)
        t0 = np.sort(rng.uniform(0.0, 5e7, size=90_000))
        t1 = np.sort(np.concatenate([rng.uniform(0.0, 5e7, size=60_000), t0[::7] + 0.2]))
        header = "# qdbench test seed=0 config=x"
        path = tmp_path / "clicks.csv"
        write_timestamps(path, t0, t1, header)
        assert path.read_bytes() == _row_loop_reference(t0, t1, header)

    @settings(max_examples=300, deadline=None)
    @given(streams=_click_streams(), block_rows=st.sampled_from([1, 2, 5, 1 << 16]))
    def test_writer_matches_row_loop_property(self, tmp_path_factory, streams, block_rows):
        t0, t1 = streams
        header = "# qdbench test seed=0 config=x"
        path = tmp_path_factory.mktemp("clicks") / "clicks.csv"
        with mock.patch.object(pipeline, "_WRITE_BLOCK_ROWS", block_rows):
            write_timestamps(path, t0, t1, header)
        assert path.read_bytes() == _row_loop_reference(t0, t1, header)

    def test_read_accepts_decimal_times(self, tmp_path):
        path = tmp_path / "clicks.csv"
        path.write_text("# qdbench test seed=0 config=x\n# channel,time_ps\n"
                        "0,-3.5\n1,12.25\n0,7\n\n1,1e3\n")
        back0, back1 = read_timestamps(path)
        assert back0.tolist() == [-3.5, 7.0]
        assert back1.tolist() == [12.25, 1000.0]

    @pytest.mark.parametrize("row", ["0,12,5", "0;12", "0,abc", "zero,12"])
    def test_malformed_row_is_a_validation_error(self, tmp_path, row, capsys):
        path = tmp_path / "clicks.csv"
        path.write_text(f"# channel,time_ps\n0,1\n{row}\n1,2\n")
        with pytest.raises(ValueError):
            read_timestamps(path)
        code = cli_main(["analyze", "--timestamps", str(path), "--mode", "hbt",
                         "--out", str(tmp_path / "analysis")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("setup_name", sorted(_GOLDEN_CLICK_DIGESTS))
    def test_golden_click_file_digest(self, tmp_path, setup_name):
        config = FleetConfig.from_parts(list(GOLDEN_SOURCES.values()), GOLDEN_SETUPS[setup_name])
        run_pipeline(config, _GOLDEN_CLICK_PULSES, _GOLDEN_CLICK_SEED, out_dir=str(tmp_path),
                     options=PipelineOptions(save_clicks=True))
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
        hbt = out / "S11_hbt.csv"
        assert hbt.exists()
        assert cli_main([
            "analyze", "--timestamps", str(hbt), "--mode", "hbt",
            "--out", str(tmp_path / "analysis"),
        ]) == 0
        payload = json.loads((tmp_path / "analysis" / "S11_hbt_estimates.json").read_text())
        assert 0.0 <= payload["g2"] < 0.05
        hom = out / "S11_hom.csv"
        assert cli_main([
            "analyze", "--timestamps", str(hom), "--mode", "hom",
            "--g2", str(payload["g2"]), "--out", str(tmp_path / "analysis"),
        ]) == 0
        hom_payload = json.loads(
            (tmp_path / "analysis" / "S11_hom_estimates.json").read_text()
        )
        assert 0.5 < hom_payload["v_raw"] <= 1.0
        assert 0.5 < hom_payload["overlap_corrected"] <= 1.0

    def test_simulate_rows_equal_pipeline_clicks(self, tmp_path, capsys):
        cfg = FleetConfig.from_parts(
            [*trion_config(2).sources, *s7_config().sources], CLEAN_SETUP
        )
        cfg_path = tmp_path / "fleet.cfg"
        write_config(cfg, cfg_path)
        common = ["--config", str(cfg_path), "--pulses", "150000", "--seed", "9"]
        assert cli_main(["simulate", *common, "--out", str(tmp_path / "sim")]) == 0
        assert cli_main(["pipeline", *common, "--save-clicks",
                         "--out", str(tmp_path / "pipe")]) == 0
        for source in cfg.sources:
            for mode in ("hbt", "hom"):
                simulated = (tmp_path / "sim" / f"{source.label}_{mode}.csv").read_text()
                saved = (tmp_path / "pipe" / source.label / f"{mode}_clicks.csv").read_text()
                assert simulated.count("\n") > 1000
                assert simulated == saved

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

    def test_report_subcommand(self, tmp_path):
        cfg_path = self._write_config(tmp_path)
        out = tmp_path / "out"
        cli_main([
            "pipeline", "--config", str(cfg_path), "--pulses", "100000",
            "--seed", "7", "--out", str(out),
        ])
        assert cli_main([
            "report", "--reports", str(out / "summary.json"), "--format", "csv",
            "--out", str(tmp_path / "rep"),
        ]) == 0
        assert (tmp_path / "rep" / "summary.csv").exists()

    def test_validation_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[source:X]\nkind = trion\ntau_ps = -1\n")
        code = cli_main([
            "pipeline", "--config", str(bad), "--pulses", "1000",
            "--seed", "1", "--out", str(tmp_path / "o"),
        ])
        assert code == 1

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
