import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from qdbench.dynamics import (
    FWHM_TO_SIGMA,
    cross_intensity_integral,
    exciton_amplitudes,
    exciton_cross_intensity,
    gaussian_kernel,
    peak_emission_delay,
    phi_scan_model,
)
from qdbench.model import (
    HBAR_UEV_PS,
    exciton_source,
    trion_source,
)

S7 = exciton_source(tau_ps=252.0, delta_fss_uev=8.58, theta_rad=math.pi / 4)


def projection_oracle(t, p):
    """|<H|psi(t)>|^2 built from the amplitudes and the basis rotation."""
    a_v, a_h = exciton_amplitudes(t, p)
    return np.abs(-math.sin(p.theta_rad) * a_v + math.cos(p.theta_rad) * a_h) ** 2


class TestExcitonAmplitudes:
    def test_initial_condition(self):
        p = exciton_source(100.0, 5.0, 0.7)
        a_v, a_h = exciton_amplitudes(0.0, p)
        assert complex(a_v) == pytest.approx(math.cos(0.7))
        assert complex(a_h) == pytest.approx(math.sin(0.7))
        assert abs(a_v) ** 2 + abs(a_h) ** 2 == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("theta", [0.1, math.pi / 4, 1.3])
    def test_population_decays_with_tau(self, theta):
        p = exciton_source(252.0, 8.58, theta)
        a_v, a_h = exciton_amplitudes(252.0, p)
        assert abs(a_v) ** 2 + abs(a_h) ** 2 == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_relative_phase_pi_at_half_beat_period(self):
        # Half a beat period after excitation the two components are out of
        # phase by exactly pi.
        t = math.pi * HBAR_UEV_PS / 8.58
        assert t == pytest.approx(241.0, abs=0.05)
        p = exciton_source(252.0, 8.58, math.pi / 4)
        a_v, a_h = exciton_amplitudes(t, p)
        phase = np.angle(a_v * np.conj(a_h))
        assert abs(phase) == pytest.approx(math.pi, rel=1e-9)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            exciton_amplitudes(-1.0, S7)


class TestExcitonCrossIntensity:
    def test_zero_when_dipoles_aligned_with_cavity(self):
        p = exciton_source(252.0, 8.58, 0.0)
        t = np.linspace(0.0, 2000.0, 500)
        assert np.all(exciton_cross_intensity(t, p) == 0.0)

    def test_zero_in_vanishing_splitting_limit(self):
        p = exciton_source(252.0, 0.0, math.pi / 4)
        t = np.linspace(0.0, 2000.0, 500)
        assert np.all(exciton_cross_intensity(t, p) == 0.0)

    def test_s7_value_at_half_beat_period(self):
        # exp(-241/252) with both sine factors at unity.
        assert exciton_cross_intensity(241.0, S7) == pytest.approx(0.3843, abs=2e-4)

    def test_matches_amplitude_projection_oracle(self):
        rng = np.random.default_rng(11235)
        for _ in range(100):
            p = exciton_source(
                tau_ps=rng.uniform(20.0, 2000.0),
                delta_fss_uev=rng.uniform(0.1, 50.0),
                theta_rad=rng.uniform(0.0, math.pi),
            )
            t = rng.uniform(0.0, 10.0 * p.tau_ps)
            assert exciton_cross_intensity(t, p) == pytest.approx(
                float(projection_oracle(t, p)), rel=1e-10, abs=1e-300
            )

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            exciton_cross_intensity(np.array([5.0, -0.1]), S7)


class TestPeakEmissionDelay:
    def test_s7_against_grid_search(self):
        t_star = peak_emission_delay(S7)
        # Independent oracle: dense grid maximization of the closed form.
        grid = np.arange(0.0, 482.0, 0.001)
        t_grid = grid[np.argmax(exciton_cross_intensity(grid, S7))]
        assert t_star == pytest.approx(t_grid, abs=0.1)
        # Stationarity: tan(t* delta / 2 hbar) = tau * delta / hbar.
        assert math.tan(t_star * 8.58 / (2 * HBAR_UEV_PS)) == pytest.approx(
            252.0 * 8.58 / HBAR_UEV_PS, rel=1e-9
        )
        # Close to (but measurably below) the ~200 ps scale.
        assert t_star == pytest.approx(195.666, abs=0.01)

    def test_long_lifetime_limit_is_half_beat_period(self):
        p = exciton_source(tau_ps=1e9, delta_fss_uev=8.58, theta_rad=0.4)
        assert peak_emission_delay(p) == pytest.approx(241.006, abs=0.01)

    def test_time_rescaling(self):
        p = exciton_source(252.0, 8.58, 0.4)
        p_scaled = exciton_source(252.0 / 2, 2 * 8.58, 0.4)
        assert peak_emission_delay(p_scaled) == pytest.approx(
            peak_emission_delay(p) / 2, rel=1e-12
        )

    def test_no_maximum_without_splitting(self):
        with pytest.raises(ValueError):
            peak_emission_delay(exciton_source(252.0, 0.0, 0.4))


class TestGaussianKernel:
    @pytest.mark.parametrize("step", [0.5, 1.0, 4.0, 13.25])
    def test_unit_sum(self, step):
        # A unit-sum kernel makes the IRF convolution mass-preserving.
        kernel, radius = gaussian_kernel(step, 53.0)
        assert kernel.size == 2 * radius + 1
        assert kernel.sum() == pytest.approx(1.0, rel=1e-12)

    def test_second_moment_from_fwhm(self):
        # sigma = fwhm / (2 sqrt(2 ln 2)).
        kernel, radius = gaussian_kernel(1.0, 53.0)
        x = np.arange(-radius, radius + 1, dtype=float)
        assert np.sum(x * kernel) == pytest.approx(0.0, abs=1e-12)
        sigma = math.sqrt(np.sum(x**2 * kernel))
        assert sigma == pytest.approx(53.0 * FWHM_TO_SIGMA, rel=1e-4)
        assert 53.0 * FWHM_TO_SIGMA == pytest.approx(22.507, abs=1e-3)


class TestIntegralIdentity:
    def test_s7_quadrature_matches_closed_form(self):
        r = 8.58 * 252.0 / HBAR_UEV_PS
        assert r == pytest.approx(3.285, abs=5e-4)
        assert r * r / (1 + r * r) == pytest.approx(0.9152, abs=5e-5)
        numeric, _ = integrate.quad(
            lambda t: float(exciton_cross_intensity(t, S7)), 0.0, 60 * 252.0, limit=800
        )
        assert numeric == pytest.approx(cross_intensity_integral(S7), rel=1e-6)

    @given(
        tau=st.floats(min_value=30.0, max_value=800.0),
        delta=st.floats(min_value=1.0, max_value=20.0),
        theta=st.floats(min_value=0.1, max_value=1.4),
    )
    @settings(max_examples=15, deadline=None)
    def test_quadrature_matches_closed_form_generic(self, tau, delta, theta):
        p = exciton_source(tau, delta, theta)
        numeric, _ = integrate.quad(
            lambda t: float(exciton_cross_intensity(t, p)), 0.0, 60 * tau, limit=800
        )
        assert numeric == pytest.approx(cross_intensity_integral(p), rel=1e-6)


class TestPhiScan:
    exciton = exciton_source(252.0, 8.58, math.radians(30.0))
    trion = trion_source(164.9)

    def test_cavity_light_vanishes_along_cavity_axis(self):
        for src in (self.exciton, self.trion):
            pt = phi_scan_model(0.0, src, amp_cavity=3.0, amp_qd=2.0)
            assert pt.cavity_light == 0.0

    def test_exciton_dark_when_pumping_an_eigenstate(self):
        pt = phi_scan_model(math.radians(30.0), self.exciton, 1.0, 2.0)
        assert pt.qd_light == pytest.approx(0.0, abs=1e-12)

    def test_cavity_light_maximal_at_45_degrees(self):
        phis = np.linspace(0.0, math.pi, 361)
        vals = [
            phi_scan_model(p, self.trion, 1.0, 1.0).cavity_light
            for p in phis
        ]
        assert max(vals) == pytest.approx(1.0, rel=1e-9)
        assert vals[90] == pytest.approx(1.0, rel=1e-9)  # phi = 45 deg

    def test_periods(self):
        for phi in np.linspace(0.0, math.pi, 17):
            a = phi_scan_model(phi, self.exciton, 1.0, 2.0)
            b = phi_scan_model(phi + math.pi / 2, self.exciton, 1.0, 2.0)
            c = phi_scan_model(phi + math.pi, self.exciton, 1.0, 2.0)
            assert b.cavity_light == pytest.approx(a.cavity_light, rel=1e-9, abs=1e-12)
            assert c.qd_light == pytest.approx(a.qd_light, rel=1e-9, abs=1e-12)

    def test_trion_emission_independent_of_phi(self):
        vals = {
            phi_scan_model(p, self.trion, 1.0, 1.7).qd_light
            for p in np.linspace(0.0, math.pi, 50)
        }
        assert vals == {1.7}

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            phi_scan_model(0.3, self.trion, -1.0, 1.0)

