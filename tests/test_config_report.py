import json
from dataclasses import MISSING, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdbench import config
from qdbench.cli import main as cli_main
from qdbench.config import ConfigError, FleetConfig, dump_config, load_config, parse_config
from qdbench.fleet import analytic_g2, draw_fleet, p_two_photon_for_g2
from qdbench.model import SetupParams, SourceParams, TransitionKind, exciton_source, trion_source
from qdbench.report import (
    SourceReport,
    aggregate_benchmark,
    emit_report,
    parse_reports_json,
    render_report,
)


def parse_reports_csv(text: str) -> list[SourceReport]:
    """Parse a ``csv`` report back into source reports; empty cells are ``None``."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    columns = lines[0].split(",")
    if tuple(columns) != tuple(f.name for f in fields(SourceReport)):
        raise ValueError("unexpected csv columns")
    out = []
    for ln in lines[1:]:
        d = {}
        for field, cell in zip(columns, ln.split(",")):
            if field in ("label", "kind"):
                d[field] = cell
            elif cell == "":
                d[field] = None
            else:
                d[field] = float(cell)
        out.append(SourceReport.from_dict(d))
    return out


MINIMAL_TRION = """
[source:S11]
kind = trion
tau_ps = 164.9
brightness_first_lens = 0.147
"""


class TestConfig:
    def test_minimal_trion_fills_defaults(self):
        cfg = parse_config(MINIMAL_TRION)
        assert len(cfg.sources) == 1
        src = cfg.sources[0]
        assert src.kind is TransitionKind.TRION
        assert src.label == "S11"
        assert src.p_two_photon == 0.0
        assert src.wavelength_nm == 924.7
        assert cfg.setup.rep_rate_mhz == 81.0
        assert cfg.setup.eta_setup == 0.40
        assert cfg.setup.eta_det == 0.30
        assert cfg.setup.jitter_fwhm_ps == 53.0
        assert cfg.setup.pulse_fwhm_ps == 15.0

    def test_setup_overrides(self):
        cfg = parse_config("[setup]\neta_det = 0.25\n" + MINIMAL_TRION)
        assert cfg.setup.eta_det == 0.25

    def test_invalid_two_photon_aggregated(self):
        text = MINIMAL_TRION + "p_two_photon = 0.3\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any("p_two_photon" in e for e in err.value.errors)

    def test_unknown_key_reports_line(self):
        text = "[source:S1]\nkind = trion\ntau_ps = 100\nbogus_key = 3\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any("line 4" in e and "bogus_key" in e for e in err.value.errors)

    def test_parse_error_reports_line_and_column(self):
        text = "[source:S1]\nkind = trion\n   this is not a key value pair\ntau_ps = 100\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any("line 3" in e and "col 4" in e for e in err.value.errors)

    def test_multiple_errors_all_reported(self):
        text = (
            "[source:A]\nkind = trion\ntau_ps = -5\n"
            "[source:B]\nkind = exciton\ntau_ps = 100\ndelta_fss_uev = -1\ntheta_deg = 45\n"
        )
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert len(err.value.errors) >= 2

    def test_exciton_keys_rejected_on_trion(self):
        text = MINIMAL_TRION + "theta_deg = 30\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any("theta_deg" in e for e in err.value.errors)

    def test_fifteen_source_fleet_round_trip(self, tmp_path):
        sources = draw_fleet(seed=99)
        cfg = FleetConfig.from_parts(sources, SetupParams())
        path = tmp_path / "fleet.cfg"
        path.write_text(dump_config(cfg.sources, cfg.setup))
        back = load_config(path)
        assert len(back.sources) == 15
        kinds = [s.kind for s in back.sources]
        assert kinds.count(TransitionKind.EXCITON) == 7
        assert kinds.count(TransitionKind.TRION) == 8
        assert back.config_hash == cfg.config_hash
        for a, b in zip(cfg.sources, back.sources):
            assert a.label == b.label
            assert a.brightness_first_lens == pytest.approx(b.brightness_first_lens, rel=1e-12)
            assert a.tau_ps == pytest.approx(b.tau_ps, rel=1e-12)

    def test_round_trip_keeps_every_field(self):
        setup = SetupParams(rep_rate_mhz=76.0, pulse_fwhm_ps=12.0, eta_setup=0.5, eta_det=0.6,
                            jitter_fwhm_ps=40.0, laser_leak_per_pulse=0.01, dark_rate_cps=150.0)
        common = dict(brightness_first_lens=0.2, p_two_photon=0.001, wavelength_nm=925.3,
                      dephasing=0.05)
        sources = (exciton_source(240.0, 7.5, 30.0, label="X1", **common),
                   trion_source(170.0, label="T1", **common))
        # Every value with a default is set away from it; the None-default
        # fields are the exciton's splitting and angle, which a trion leaves None.
        for record in (setup, *sources):
            for f in fields(record):
                if f.default not in (MISSING, None):
                    assert getattr(record, f.name) != f.default, f.name
        back = parse_config(dump_config(sources, setup))
        assert back.setup == setup
        assert back.sources == sources

    def test_exciton_needs_splitting_and_angle(self):
        text = "[setup]\n\n[source:X1]\nkind = exciton\ntau_ps = 252\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.errors == [
            "line 3: source 'X1' missing required keys ['delta_fss_uev', 'theta_deg']"
        ]
        with pytest.raises(ConfigError) as err:
            parse_config(text + "theta_deg = 45\n")
        assert err.value.errors == ["line 3: source 'X1' missing required keys ['delta_fss_uev']"]

    @pytest.mark.parametrize("line,key,section", [(2, "hom_delay_ps", "setup"),
                                                  (9, "e_mean_uev", "source")])
    def test_removed_keys_rejected(self, tmp_path, capsys, line, key, section):
        lines = ["[setup]", "eta_det = 0.3", "[source:X1]", "kind = exciton", "tau_ps = 252",
                 "delta_fss_uev = 8.58", "theta_deg = 45", "brightness_first_lens = 0.1"]
        lines.insert(line - 1, f"{key} = 0.0")
        path = tmp_path / "fleet.cfg"
        path.write_text("\n".join(lines) + "\n")
        message = f"line {line}: unknown {section} key {key!r}"
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.errors == [message]
        code = cli_main(["pipeline", "--config", str(path), "--pulses", "1000",
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("jitter_fwhm_ps", "nan"), ("p_two_photon", "nan"), ("dark_rate_cps", "inf"),
        ("rep_rate_mhz", "inf"), ("delta_fss_uev", "nan"), ("tau_ps", "inf"),
    ])
    def test_non_finite_value_is_one_error(self, tmp_path, capsys, key, value):
        # Each passed a check written as x < 0 or not x > 0, and then failed
        # every source on numpy's error, or the run on an empty histogram.
        source = {"kind": "trion", "tau_ps": "164.9", "brightness_first_lens": "0.147"}
        if key == "delta_fss_uev":
            source.update(kind="exciton", delta_fss_uev="8.58", theta_deg="45.0")
        setup = {}
        (setup if key in {f.name for f in fields(SetupParams)} else source)[key] = value
        path = tmp_path / "fleet.cfg"
        path.write_text("\n".join(["[setup]", *(f"{k} = {v}" for k, v in setup.items()),
                                   "[source:S1]", *(f"{k} = {v}" for k, v in source.items())]))
        code = cli_main(["pipeline", "--config", str(path), "--pulses", "200000",
                         "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and f"{key} must be" in err and value in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", config._SOURCE_KEYS[1:])
    def test_non_finite_source_key_is_one_error_that_names_it(self, key, value):
        source = {"kind": "exciton", "tau_ps": "252.0", "delta_fss_uev": "8.58",
                  "theta_deg": "45.0", "brightness_first_lens": "0.147", key: value}
        text = "[source:S1]\n" + "".join(f"{k} = {v}\n" for k, v in source.items())
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert len(err.value.errors) == 1 and key in err.value.errors[0], err.value.errors

    def test_out_of_range_brightness_is_one_error(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL_TRION.replace("0.147", "-0.1"))
        assert err.value.errors == ["S11: brightness_first_lens must lie in [0, 0.5] "
                                    "(cross-polarization cap), got -0.1"]

    def test_source_keys_are_the_source_fields(self):
        # A SourceParams field added without a config key fails here.
        names = [f.name for f in fields(SourceParams) if f.name != "label"]
        assert list(config._SOURCE_KEYS) == names

    def test_fleet_round_trips_through_its_text(self):
        # A record holds theta in the degrees its config text states; held in
        # radians, an angle moved by an ulp on each round through the text.
        config = FleetConfig.from_parts(draw_fleet(2026), SetupParams())
        once = parse_config(dump_config(config.sources, config.setup))
        twice = parse_config(dump_config(once.sources, once.setup))
        assert once.sources == config.sources
        assert twice.sources == config.sources

    def test_duplicate_label_rejected(self):
        text = MINIMAL_TRION + "\n[source:S11]\nkind = trion\ntau_ps = 150\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any("duplicate" in e for e in err.value.errors)

    def test_empty_config_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[setup]\nrep_rate_mhz = 81\n")

    def test_duplicate_label_and_out_of_range_value_reported_together(self):
        # The second S11 is also out of range: neither rule hides the other.
        text = ("[setup]\neta_det = 1.5\n" + MINIMAL_TRION
                + "\n[source:S11]\nkind = trion\ntau_ps = -150\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.errors == [
            "setup: eta_det must lie in (0, 1], got 1.5",
            "S11: tau_ps must be finite and > 0, got -150.0",
            "line 9: duplicate source label 'S11'",
        ]

    def test_zero_efficiency_is_one_error(self, tmp_path, capsys):
        # A detector that detects nothing left every source to fail on
        # empty side peaks, and the run to exit 2.
        path = tmp_path / "fleet.cfg"
        path.write_text("[setup]\neta_det = 0\n" + MINIMAL_TRION)
        code = cli_main(["pipeline", "--config", str(path), "--pulses", "200000",
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: setup: eta_det must lie in (0, 1], got 0.0"]
        assert not (tmp_path / "out").exists()


class TestFleetRules:
    """The fleet rules hold for a config built in memory, as for a parsed one."""

    S1 = trion_source(164.9, brightness_first_lens=0.147, label="S1")

    def test_duplicate_labels_rejected(self):
        # run_pipeline keys its results by label, and so kept one of the two.
        with pytest.raises(ConfigError) as err:
            FleetConfig.from_parts([self.S1, self.S1], SetupParams())
        assert err.value.errors == ["source 2: duplicate source label 'S1'"]

    def test_unlabeled_source_rejected(self):
        # Its artifacts went into the run directory itself, beside summary.*.
        with pytest.raises(ConfigError) as err:
            FleetConfig.from_parts([trion_source(164.9)], SetupParams())
        assert err.value.errors == ["source 1: source section needs a label, e.g. [source:S1]"]

    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigError) as err:
            FleetConfig.from_parts([], SetupParams())
        assert err.value.errors == ["config defines no [source:...] sections"]

    def test_every_violation_is_listed(self):
        unlabeled = trion_source(150.0)
        with pytest.raises(ConfigError) as err:
            FleetConfig((unlabeled, self.S1, self.S1, unlabeled), SetupParams(), "0")
        assert err.value.errors == [
            "source 1: source section needs a label, e.g. [source:S1]",
            "source 3: duplicate source label 'S1'",
            "source 4: source section needs a label, e.g. [source:S1]",
        ]


    @pytest.mark.parametrize("label", ["S#1", "a]b", "S\n1", "../escaped", "/abs", ".hidden"])
    def test_label_must_be_a_plain_name(self, label):
        # A label names a directory and a section header: a path, a comment
        # or a bracket in it escaped the run directory or did not parse back.
        with pytest.raises(ConfigError) as err:
            FleetConfig.from_parts([trion_source(164.9, label=label)], SetupParams())
        assert err.value.errors == [
            f"source 1: source label {label!r} must match [A-Za-z0-9][A-Za-z0-9._-]*"]

    @pytest.mark.parametrize("label", ["../escaped", "{tmp}/abs"])
    def test_a_path_label_fails_the_run_before_writing(self, tmp_path, capsys, label):
        label = label.format(tmp=tmp_path)
        path = tmp_path / "fleet.cfg"
        path.write_text(MINIMAL_TRION.replace("[source:S11]", f"[source:{label}]"))
        code = cli_main(["pipeline", "--config", str(path), "--pulses", "200000",
                         "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and repr(label) in err[0], err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fleet.cfg"]

    @given(label=st.one_of(st.from_regex(config._LABEL, fullmatch=True), st.text(max_size=6)))
    @settings(max_examples=100)
    def test_a_label_is_refused_or_round_trips(self, label):
        try:
            fleet = FleetConfig.from_parts([trion_source(164.9, label=label)], SetupParams())
        except ConfigError:
            assert not config._LABEL.fullmatch(label)
            return
        assert parse_config(dump_config(fleet.sources, fleet.setup)) == fleet


class TestFleetGenerator:
    def test_two_photon_calibration_hits_g2(self):
        p2 = p_two_photon_for_g2(0.0237, 0.13)
        mu = 0.13 + p2
        assert 2 * p2 / mu**2 == pytest.approx(0.0237, rel=1e-10)

    def test_fleet_parameters_valid_and_on_target(self):
        sources = draw_fleet(seed=1)
        for s in sources:
            assert 0.0 < s.brightness_first_lens <= 0.5
            assert 0.0 <= s.p_two_photon <= s.brightness_first_lens
            assert analytic_g2(s) < 0.2


def make_report(label, kind, g2=0.03, overlap=0.92, tau=200.0, b=0.12, wl=924.7):
    return SourceReport(
        label=label,
        kind=kind,
        g2=g2,
        g2_err=0.002,
        v_raw=overlap - g2,
        v_raw_err=0.004,
        overlap_corrected=overlap,
        overlap_err=0.005,
        first_lens_brightness=b,
        fibered_rate_cps=1e6,
        tau_fit_ps=tau,
        tau_fit_err_ps=1.0,
        wavelength_nm=wl,
        delta_fss_fit_uev=8.6 if kind is TransitionKind.EXCITON else None,
        delta_fss_fit_err_uev=0.05 if kind is TransitionKind.EXCITON else None,
    )


class TestAggregate:
    def test_single_report(self):
        summary = aggregate_benchmark([make_report("A", TransitionKind.TRION)])
        st = summary.stats["trion"]["g2"]
        assert st.mean == 0.03 and st.std == 0.0 and st.n == 1
        assert summary.counts == {"exciton": 0, "trion": 1, "all": 1}

    def test_population_std_convention(self):
        reports = [
            make_report("A", TransitionKind.TRION, tau=180.0),
            make_report("B", TransitionKind.TRION, tau=220.0),
        ]
        st = aggregate_benchmark(reports).stats["trion"]["tau_fit_ps"]
        assert st.mean == 200.0
        assert st.std == 20.0  # divide by n, not n-1

    def test_permutation_invariance(self):
        reports = [
            make_report(lbl, TransitionKind.EXCITON, g2=g)
            for lbl, g in zip("ABCDE", (0.01, 0.02, 0.03, 0.04, 0.05))
        ]
        a = aggregate_benchmark(reports)
        b = aggregate_benchmark(list(reversed(reports)))
        assert a.stats["exciton"]["g2"] == b.stats["exciton"]["g2"]

    def test_mean_within_input_range(self):
        reports = [
            make_report(str(i), TransitionKind.TRION, tau=tau)
            for i, tau in enumerate((150.0, 180.0, 210.0))
        ]
        st = aggregate_benchmark(reports).stats["trion"]["tau_fit_ps"]
        assert 150.0 <= st.mean <= 210.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            aggregate_benchmark([])

    def test_trion_fleet_lifetime_spread_recovered(self):
        import numpy as np

        taus = np.random.default_rng(18).normal(180.0, 17.0, size=8)
        reports = [
            make_report(f"T{i}", TransitionKind.TRION, tau=float(t))
            for i, t in enumerate(taus)
        ]
        st = aggregate_benchmark(reports).stats["trion"]["tau_fit_ps"]
        assert st.mean == pytest.approx(180.0, abs=20.0)
        assert st.std == pytest.approx(17.0, abs=5.0)


class TestEmitReport:
    reports = [
        make_report("S7", TransitionKind.EXCITON, g2=0.0237, overlap=0.941),
        make_report("S11", TransitionKind.TRION, g2=0.045, overlap=0.90, tau=164.9),
        make_report("S13", TransitionKind.TRION, g2=0.06, overlap=0.88, tau=175.0),
    ]

    def test_unknown_format_rejected(self):
        summary = aggregate_benchmark(self.reports)
        with pytest.raises(ValueError):
            render_report(summary, self.reports, "yaml")

    def test_table_has_row_per_source_and_summary_rows(self):
        summary = aggregate_benchmark(self.reports)
        text = render_report(summary, self.reports, "table-text")
        lines = text.splitlines()
        for label in ("S7", "S11", "S13", "exciton", "trion", "all"):
            assert any(ln.startswith(label) for ln in lines)
        assert "population" in text

    def test_csv_round_trip_exact(self, tmp_path):
        summary = aggregate_benchmark(self.reports)
        path = tmp_path / "fleet.csv"
        emit_report(summary, self.reports, "csv", path, header="test seed=1 config=x")
        back = parse_reports_csv(path.read_text())
        assert len(back) == 3
        by_label = {r.label: r for r in back}
        for r in self.reports:
            b = by_label[r.label]
            for field in ("g2", "v_raw", "overlap_corrected", "tau_fit_ps", "wavelength_nm"):
                assert getattr(b, field) == pytest.approx(getattr(r, field), rel=1e-12)
            assert b.kind is r.kind

    def test_json_round_trip_lossless(self, tmp_path):
        summary = aggregate_benchmark(self.reports)
        path = tmp_path / "fleet.json"
        emit_report(summary, self.reports, "structured-json", path,
                    header="test seed=1 config=x")
        back, header = parse_reports_json(path.read_text())
        assert header == "test seed=1 config=x"
        assert sorted(r.label for r in back) == ["S11", "S13", "S7"]
        by_label = {r.label: r for r in back}
        for r in self.reports:
            assert by_label[r.label] == r

    @pytest.mark.parametrize("field,value", [("g2_err", "x"), ("g2", None)],
                             ids=["string", "null"])
    def test_field_of_the_wrong_type_is_one_error_line(self, tmp_path, capsys, field, value):
        path = tmp_path / "summary.json"
        emit_report(aggregate_benchmark(self.reports), self.reports, "structured-json", path)
        payload = json.loads(path.read_text())
        payload["sources"][0][field] = value
        path.write_text(json.dumps(payload))
        assert cli_main(["report", "--reports", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: source report 'S11': {field} must be a number, got {value!r}"]

    def test_negative_splitting_error_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "summary.json"
        emit_report(aggregate_benchmark(self.reports), self.reports, "structured-json", path)
        payload = json.loads(path.read_text())
        exciton = next(d for d in payload["sources"] if d["kind"] == "exciton")
        exciton["delta_fss_fit_err_uev"] = -1.0
        path.write_text(json.dumps(payload))
        assert cli_main(["report", "--reports", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: delta_fss_fit_err_uev must be >= 0"]

    def test_deterministic_label_ordering(self):
        summary = aggregate_benchmark(self.reports)
        a = render_report(summary, self.reports, "csv")
        b = render_report(summary, list(reversed(self.reports)), "csv")
        assert a == b

    def test_kind_consistency_enforced(self):
        with pytest.raises(ValueError):
            make_report("bad", TransitionKind.EXCITON).__class__(
                **{**make_report("bad", TransitionKind.EXCITON).to_dict(),
                   "kind": TransitionKind.EXCITON, "delta_fss_fit_uev": None}
            )
