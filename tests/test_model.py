import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdbench.dynamics import exciton_amplitudes
from qdbench.model import (
    HBAR_UEV_PS,
    SetupParams,
    SourceParams,
    SourceValidationError,
    TransitionKind,
    exciton_source,
    fss_period,
    trion_source,
)


def test_hbar_value():
    assert HBAR_UEV_PS == 658.2119569


class TestFssPeriod:
    def test_s7_value_against_beat_zero_crossings(self):
        period = fss_period(8.58)
        assert period == pytest.approx(482.0, abs=0.05)
        # Independent oracle: sin^2(t*delta/2hbar) touches zero once per
        # period, so consecutive zeros of the inner sine are one period apart.
        t = np.linspace(1.0, 1200.0, 2_000_001)
        beat = np.sin(t * 8.58 / (2 * HBAR_UEV_PS))
        sign_flips = np.where(np.diff(np.sign(beat)) != 0)[0]
        zeros = t[sign_flips]
        assert zeros[1] - zeros[0] == pytest.approx(period, abs=0.01)

    def test_inverse_proportionality(self):
        assert fss_period(2 * 8.58) == pytest.approx(fss_period(8.58) / 2, rel=1e-12)
        assert fss_period(2 * 8.58) == pytest.approx(241.0, abs=0.05)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -8.58])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            fss_period(bad)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_period_delta_product_identity(self, delta):
        assert fss_period(delta) * delta == pytest.approx(
            2 * math.pi * HBAR_UEV_PS, rel=1e-12
        )


class TestValidation:
    def test_valid_trion_accepted_unchanged(self):
        src = SourceParams(
            kind=TransitionKind.TRION,
            tau_ps=164.9,
            brightness_first_lens=0.147,
            label="S11",
        )
        assert (src.tau_ps, src.brightness_first_lens, src.label) == (164.9, 0.147, "S11")
        assert src.delta_fss_uev is None and src.theta_deg is None

    def test_negative_tau_names_field(self):
        with pytest.raises(SourceValidationError) as err:
            SourceParams(
                kind=TransitionKind.EXCITON,
                tau_ps=-1.0,
                delta_fss_uev=8.58,
                theta_deg=17.0,
            )
        assert err.value.errors == ["source: tau_ps must be finite and > 0, got -1.0"]

    def test_p_two_photon_above_brightness_names_field(self):
        with pytest.raises(SourceValidationError) as err:
            SourceParams(
                kind=TransitionKind.TRION,
                tau_ps=100.0,
                brightness_first_lens=0.1,
                p_two_photon=0.2,
            )
        assert err.value.errors == [
            "source: p_two_photon (0.2) cannot exceed brightness_first_lens (0.1)"
        ]

    def test_all_violations_reported_together(self):
        with pytest.raises(SourceValidationError) as err:
            SourceParams(
                kind=TransitionKind.TRION,
                tau_ps=-5.0,
                brightness_first_lens=0.9,
                wavelength_nm=-1.0,
            )
        assert err.value.errors == [
            "source: tau_ps must be finite and > 0, got -5.0",
            "source: brightness_first_lens must lie in [0, 0.5] (cross-polarization cap), got 0.9",
            "source: wavelength_nm must be finite and > 0, got -1.0",
        ]

    def test_brightness_cross_polarization_cap(self):
        with pytest.raises(SourceValidationError):
            trion_source(100.0, brightness_first_lens=0.6)
        assert trion_source(100.0, brightness_first_lens=0.5).brightness_first_lens == 0.5

    def test_validation_idempotent(self):
        # Rebuilding a valid record checks it again and changes nothing, its
        # canonicalized angle included.
        for src in (trion_source(180.0, brightness_first_lens=0.15),
                    exciton_source(252.0, 8.58, 194.0)):
            assert replace(src) == src

    @given(
        tau=st.floats(min_value=1.0, max_value=1e4),
        delta=st.floats(min_value=0.0, max_value=50.0),
        theta=st.floats(min_value=-600.0, max_value=600.0),
        b=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=50)
    def test_valid_exciton_round_trip(self, tau, delta, theta, b):
        src = exciton_source(tau, delta, theta, brightness_first_lens=b, p_two_photon=0.0)
        assert (src.tau_ps, src.delta_fss_uev, src.brightness_first_lens) == (tau, delta, b)
        assert 0.0 <= src.theta_deg < 180.0

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_every_non_finite_field_is_one_error(self, value):
        # Every float field, of the setup and of a source of either kind,
        # gives exactly one error that names it.
        setup = SetupParams()
        for f in fields(setup):
            with pytest.raises(SourceValidationError) as err:
                replace(setup, **{f.name: value})
            assert len(err.value.errors) == 1 and f.name in err.value.errors[0], err.value.errors
        common = dict(brightness_first_lens=0.2, p_two_photon=0.001, label="S1")
        for source in (exciton_source(252.0, 8.58, 17.0, **common),
                       trion_source(164.9, **common)):
            for f in fields(source):
                if isinstance(getattr(source, f.name), float):
                    with pytest.raises(SourceValidationError) as err:
                        replace(source, **{f.name: value})
                    errs = err.value.errors
                    assert len(errs) == 1 and f.name in errs[0], errs

    def test_kind_and_exciton_values_agree(self):
        # A trion with exciton values, or an exciton without them, is one error.
        trion = trion_source(164.9, label="T1")
        for bad in (dict(delta_fss_uev=8.0, theta_deg=30.0), dict(theta_deg=30.0)):
            with pytest.raises(SourceValidationError) as err:
                replace(trion, **bad)
            assert err.value.errors == ["T1: a trion has no delta_fss_uev or theta_deg"]
        exciton = exciton_source(252.0, 8.58, 17.0, label="X1")
        for bad in (dict(delta_fss_uev=None), dict(theta_deg=None)):
            with pytest.raises(SourceValidationError) as err:
                replace(exciton, **bad)
            assert err.value.errors == ["X1: an exciton needs delta_fss_uev and theta_deg"]


class TestExcitonSource:
    def test_theta_canonicalized_mod_pi(self):
        assert exciton_source(100.0, 5.0, 194.0).theta_deg == 14.0
        assert exciton_source(100.0, 5.0, -14.0).theta_deg == 166.0
        # -1e-300 % 180 rounds up to 180 itself, which is 0.
        assert exciton_source(100.0, 5.0, -1e-300).theta_deg == 0.0

    def test_eigenstate_energy_difference_is_delta(self):
        # The relative phase of the two eigenstate amplitudes turns at delta / hbar.
        p = exciton_source(100.0, 8.58, 30.0)
        a_v, a_h = exciton_amplitudes(37.0, p)
        assert np.angle(a_h / a_v) == pytest.approx(8.58 * 37.0 / HBAR_UEV_PS, rel=1e-12)


class TestSetupParams:
    def test_hom_delay_defaults_to_exact_rep_period(self):
        # The HOM long arm is not a setting: it delays a photon by exactly
        # one repetition period, so a pulse-0 photon emitted at 0 ps clicks
        # at 0 ps (short arm) or at one period (long arm), and nowhere else.
        from conftest import detector_clicks, single_photon_batch

        from qdbench.photon_sim import RngSpec

        setup = SetupParams(jitter_fwhm_ps=0.0)
        assert setup.rep_period_ps == pytest.approx(12345.679, abs=1e-3)
        clicks = np.concatenate([
            np.concatenate(detector_clicks(RngSpec(seed, 0), setup, single_photon_batch(1), 1,
                                           overlap=1.0))
            for seed in range(32)
        ])
        assert clicks.size == 32
        assert set(clicks.tolist()) == {0, round(setup.rep_period_ps)}

    def test_defaults_match_operating_point(self):
        setup = SetupParams()
        assert setup.rep_rate_mhz == 81.0
        assert setup.pulse_fwhm_ps == 15.0
        assert setup.eta_setup == 0.40
        assert setup.eta_det == 0.30
        assert setup.jitter_fwhm_ps == 53.0
        assert setup.rep_period_ps == pytest.approx(12345.679, abs=1e-3)

    def test_invalid_efficiency_rejected(self):
        # Each efficiency lies in (0, 1]: a zero one detects nothing.
        for value in (0.0, 1.5):
            with pytest.raises(SourceValidationError) as err:
                SetupParams(eta_det=value)
            assert err.value.errors == [f"setup: eta_det must lie in (0, 1], got {value}"]
        assert SetupParams(eta_setup=1.0, eta_det=1.0).eta_total == 1.0

    def test_nonpositive_times_rejected(self):
        with pytest.raises(SourceValidationError) as err:
            SetupParams(pulse_fwhm_ps=0.0)
        assert err.value.errors == ["setup: pulse_fwhm_ps must be finite and > 0, got 0.0"]

    def test_every_violation_is_listed(self):
        with pytest.raises(SourceValidationError) as err:
            SetupParams(rep_rate_mhz=-81.0, eta_setup=0.0, laser_leak_per_pulse=2.0)
        assert err.value.errors == [
            "setup: rep_rate_mhz must be finite and > 0, got -81.0",
            "setup: eta_setup must lie in (0, 1], got 0.0",
            "setup: laser_leak_per_pulse must lie in [0, 1], got 2.0",
        ]
