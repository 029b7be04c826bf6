import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdbench.dynamics import exciton_amplitudes
from qdbench.model import (
    HBAR_UEV_PS,
    ExcitonParams,
    SetupParams,
    SourceParams,
    SourceValidationError,
    TransitionKind,
    TrionParams,
    exciton_source,
    fss_period,
    trion_source,
    validate_setup,
    validate_source,
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
            trion=TrionParams(tau_ps=164.9),
            brightness_first_lens=0.147,
            label="S11",
        )
        assert validate_source(src) is src

    def test_negative_tau_names_field(self):
        src = SourceParams(
            kind=TransitionKind.EXCITON,
            exciton=ExcitonParams(tau_ps=-1.0, delta_fss_uev=8.58, theta_rad=0.3),
        )
        with pytest.raises(SourceValidationError) as err:
            validate_source(src)
        assert any("tau" in e for e in err.value.errors)

    def test_p_two_photon_above_brightness_names_field(self):
        src = SourceParams(
            kind=TransitionKind.TRION,
            trion=TrionParams(tau_ps=100.0),
            brightness_first_lens=0.1,
            p_two_photon=0.2,
        )
        with pytest.raises(SourceValidationError) as err:
            validate_source(src)
        assert any("p_two_photon" in e for e in err.value.errors)

    def test_all_violations_reported_together(self):
        src = SourceParams(
            kind=TransitionKind.TRION,
            trion=TrionParams(tau_ps=-5.0),
            brightness_first_lens=0.9,
            wavelength_nm=-1.0,
        )
        with pytest.raises(SourceValidationError) as err:
            validate_source(src)
        assert len(err.value.errors) == 3

    def test_brightness_cross_polarization_cap(self):
        with pytest.raises(SourceValidationError):
            trion_source(100.0, brightness_first_lens=0.6)
        assert trion_source(100.0, brightness_first_lens=0.5).brightness_first_lens == 0.5

    def test_validation_idempotent(self):
        src = trion_source(180.0, brightness_first_lens=0.15)
        assert validate_source(validate_source(src)) is src

    @given(
        tau=st.floats(min_value=1.0, max_value=1e4),
        delta=st.floats(min_value=0.0, max_value=50.0),
        theta=st.floats(min_value=-10.0, max_value=10.0),
        b=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=50)
    def test_valid_exciton_round_trip(self, tau, delta, theta, b):
        src = exciton_source(tau, delta, theta, brightness_first_lens=b, p_two_photon=0.0)
        assert validate_source(src) is src
        assert 0.0 <= src.exciton.theta_rad < math.pi


class TestExcitonParams:
    def test_theta_canonicalized_mod_pi(self):
        assert ExcitonParams(100.0, 5.0, math.pi + 0.25).theta_rad == pytest.approx(0.25)
        assert ExcitonParams(100.0, 5.0, -0.25).theta_rad == pytest.approx(math.pi - 0.25)

    def test_eigenstate_energy_difference_is_delta(self):
        # The relative phase of the two eigenstate amplitudes turns at delta / hbar.
        p = ExcitonParams(100.0, 8.58, 0.5)
        a_v, a_h = exciton_amplitudes(37.0, p)
        assert np.angle(a_h / a_v) == pytest.approx(8.58 * 37.0 / HBAR_UEV_PS, rel=1e-12)


class TestSetupParams:
    def test_hom_delay_defaults_to_exact_rep_period(self):
        # The HOM long arm is not a setting: it delays a photon by exactly
        # one repetition period, so a pulse-0 photon emitted at 0 ps clicks
        # at 0 ps (short arm) or at one period (long arm), and nowhere else.
        from conftest import single_photon_batch

        from qdbench.photon_sim import RngSpec, hom_streams

        setup = SetupParams(jitter_fwhm_ps=0.0)
        assert setup.rep_period_ps == pytest.approx(12345.679, abs=1e-3)
        clicks = np.concatenate([
            np.concatenate(hom_streams(RngSpec(seed, 0), single_photon_batch(1), setup, 1.0))
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
        with pytest.raises(SourceValidationError):
            validate_setup(SetupParams(eta_det=1.5))

    def test_nonpositive_times_rejected(self):
        with pytest.raises(SourceValidationError):
            validate_setup(SetupParams(pulse_fwhm_ps=0.0))
