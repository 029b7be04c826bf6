import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    S7_DELTA_UEV,
    S7_TAU_PS,
    S11_TAU_PS,
    folded_decay_trace,
    synth_trace,
    whole_train_clicks,
)

from qdbench.dynamics import PhiScanPoint, phi_scan_model
from qdbench.fleet import draw_fleet
from qdbench.inference import (
    TRION_PARAM_NAMES,
    DecayTrace,
    UnclassifiableError,
    _DecayModel,
    classify_transition,
    fit_decay,
)
from qdbench.leastsq import DegenerateFitError
from qdbench.model import SetupParams, TransitionKind, exciton_source, trion_source


class TestFitDecay:
    def test_noiseless_trion_recovers_tau_from_rough_init(self):
        # The start search begins from the trace alone, at half and at 1.5
        # times S11's lifetime.
        for tau in (0.5 * S11_TAU_PS, 1.5 * S11_TAU_PS):
            trace = synth_trace(TransitionKind.TRION, None, tau)
            fit = fit_decay(trace, TransitionKind.TRION, irf_fwhm_ps=53.0)
            assert fit.converged
            assert fit.params["tau"] == pytest.approx(tau, rel=1e-3)

    def test_noiseless_exciton_recovers_all_parameters(self):
        trace = synth_trace(
            TransitionKind.EXCITON, None, S7_TAU_PS, delta_uev=S7_DELTA_UEV, t0_ps=150.0
        )
        fit = fit_decay(trace, TransitionKind.EXCITON, irf_fwhm_ps=53.0)
        assert fit.converged
        assert fit.params["tau"] == pytest.approx(S7_TAU_PS, rel=1e-3)
        assert fit.params["delta_fss"] == pytest.approx(S7_DELTA_UEV, rel=1e-3)
        assert fit.params["t0"] == pytest.approx(150.0, abs=0.5)

    def test_poisson_s7_recovery_at_paper_precision(self):
        trace = synth_trace(
            TransitionKind.EXCITON, 424242, S7_TAU_PS, delta_uev=S7_DELTA_UEV,
            total_counts=1e6,
        )
        fit = fit_decay(trace, TransitionKind.EXCITON, irf_fwhm_ps=53.0)
        assert abs(fit.params["tau"] - S7_TAU_PS) < 3.0
        assert abs(fit.params["delta_fss"] - S7_DELTA_UEV) < 0.05
        assert fit.std_errs["tau"] < 1.0
        assert fit.std_errs["delta_fss"] < 0.02

    def test_the_kind_is_an_argument_of_the_fit(self):
        # A trace holds counts only; an exciton trace fitted as a trion gets
        # the trion model's parameters.
        assert [f.name for f in dataclasses.fields(DecayTrace)] == ["t_ps", "counts"]
        trace = synth_trace(TransitionKind.EXCITON, None, S7_TAU_PS, delta_uev=S7_DELTA_UEV)
        fit = fit_decay(trace, TransitionKind.TRION, irf_fwhm_ps=53.0)
        assert tuple(fit.params) == tuple(fit.std_errs) == TRION_PARAM_NAMES

    def test_background_only_trace_degenerate(self):
        rng = np.random.default_rng(9)
        t = np.arange(0.0, 2000.0, 4.0)
        counts = rng.poisson(50.0, size=t.size).astype(float)
        with pytest.raises(DegenerateFitError):
            fit_decay(DecayTrace(t, counts), TransitionKind.TRION, irf_fwhm_ps=53.0)

    def test_too_few_bins_rejected(self):
        t = np.arange(0.0, 40 * 4.0, 4.0)
        with pytest.raises(ValueError):
            fit_decay(DecayTrace(t, np.ones(t.size)), TransitionKind.TRION, 53.0)

    def test_undersampled_irf_rejected(self):
        # A grid step above fwhm/4 (13.25 ps for 53 ps) loses the kernel shape.
        trace = synth_trace(TransitionKind.TRION, None, S11_TAU_PS, bin_ps=20.0)
        with pytest.raises(ValueError, match="undersamples"):
            fit_decay(trace, TransitionKind.TRION, irf_fwhm_ps=53.0)
        # A step of exactly fwhm/4 is still accepted.
        _DecayModel(synth_trace(TransitionKind.TRION, None, S11_TAU_PS, bin_ps=13.25),
                    TransitionKind.TRION, 53.0)

    def test_short_span_rejected(self):
        trace = synth_trace(TransitionKind.TRION, 4, 800.0, span_ps=900.0, t0_ps=50.0)
        with pytest.raises(ValueError):
            fit_decay(trace, TransitionKind.TRION, irf_fwhm_ps=53.0)

    def test_jacobian_matches_central_differences(self):
        trace = synth_trace(
            TransitionKind.EXCITON, 77, S7_TAU_PS, delta_uev=S7_DELTA_UEV, t0_ps=133.0
        )
        model = _DecayModel(trace, TransitionKind.EXCITON, 53.0)
        rng = np.random.default_rng(3)
        for _ in range(5):
            p = np.array([
                S7_TAU_PS * rng.uniform(0.8, 1.2),
                S7_DELTA_UEV * rng.uniform(0.8, 1.2),
                3.0e4 * rng.uniform(0.5, 2.0),
                rng.uniform(0.0, 10.0),
                133.0 + rng.uniform(-20.0, 20.0),
            ])
            jac = model.jacobian(p)
            for k in range(p.size):
                h = 1e-6 * max(abs(p[k]), 1e-3)
                pp, pm = p.copy(), p.copy()
                pp[k] += h
                pm[k] -= h
                col = (model.residuals(pp) - model.residuals(pm)) / (2 * h)
                err = np.linalg.norm(jac[:, k] - col) / np.linalg.norm(col)
                assert err < 1e-4

    @pytest.mark.parametrize("kind", [TransitionKind.EXCITON, TransitionKind.TRION])
    def test_fit_evaluates_the_model_once_per_point(self, monkeypatch, kind):
        # The fit takes the Jacobian at the point whose residuals it has just
        # taken; the model keeps that evaluation, and the fit is unchanged.
        trace = synth_trace(kind, 5, S7_TAU_PS, delta_uev=S7_DELTA_UEV)
        calls = {"_evaluate": 0, "residuals": 0, "jacobian": 0}

        def counted(name):
            method = getattr(_DecayModel, name)

            def wrapper(self, params):
                calls[name] += 1
                return method(self, params)
            monkeypatch.setattr(_DecayModel, name, wrapper)

        for name in calls:
            counted(name)
        kept = fit_decay(trace, kind, irf_fwhm_ps=53.0)
        with_memo = dict(calls)
        calls.update(dict.fromkeys(calls, 0))
        monkeypatch.setattr(_DecayModel, "predict_components",
                            lambda self, params: self._evaluate(params))
        plain = fit_decay(trace, kind, irf_fwhm_ps=53.0)
        assert plain.to_dict() == kept.to_dict()
        assert calls["residuals"] == with_memo["residuals"]
        assert calls["jacobian"] == with_memo["jacobian"] > 2
        assert with_memo["_evaluate"] <= calls["_evaluate"] - calls["jacobian"]

    def test_amplitude_scale_equivariance(self):
        trace = synth_trace(
            TransitionKind.EXCITON, 55, S7_TAU_PS, delta_uev=S7_DELTA_UEV,
            background=5.0,
        )
        scaled = DecayTrace(trace.t_ps, trace.counts * 2.5)
        f1 = fit_decay(trace, TransitionKind.EXCITON, irf_fwhm_ps=53.0)
        f2 = fit_decay(scaled, TransitionKind.EXCITON, irf_fwhm_ps=53.0)
        for name in ("tau", "delta_fss", "t0"):
            assert f2.params[name] == pytest.approx(f1.params[name], rel=1e-9)
        assert f2.params["amplitude"] == pytest.approx(2.5 * f1.params["amplitude"], rel=1e-9)
        assert f2.params["background"] == pytest.approx(2.5 * f1.params["background"], rel=1e-9)

    def test_time_shift_equivariance(self):
        trace = synth_trace(TransitionKind.TRION, 56, S11_TAU_PS)
        shift = 256.0
        shifted = DecayTrace(trace.t_ps + shift, trace.counts)
        f1 = fit_decay(trace, TransitionKind.TRION, irf_fwhm_ps=53.0)
        f2 = fit_decay(shifted, TransitionKind.TRION, irf_fwhm_ps=53.0)
        assert f2.params["t0"] - f1.params["t0"] == pytest.approx(shift, abs=1e-6)
        for name in ("tau", "amplitude", "background"):
            assert f2.params[name] == pytest.approx(f1.params[name], rel=1e-9)

    def test_zero_width_irf_trion(self):
        # No instrument response: the trion jumps within one bin, so the
        # start must place the excitation to within a fraction of a bin.
        # (``gaussian_kernel`` is undefined at zero width; 1e-3 ps is a step.)
        for seed in range(8):
            trace = synth_trace(TransitionKind.TRION, seed, S11_TAU_PS, irf_fwhm_ps=1e-3)
            fit = fit_decay(trace, TransitionKind.TRION, irf_fwhm_ps=0.0)
            assert fit.converged
            assert abs(fit.params["tau"] - S11_TAU_PS) < 3.0 * fit.std_errs["tau"]
            assert fit.params["t0"] == pytest.approx(120.0, abs=0.5)
            assert fit.reduced_chi2 < 1.3

    def test_fleet_exciton_fits_start_in_the_right_basin(self):
        # Below about 1e6 pulses the beat is lost in the noise, and a fit
        # started at a wrong splitting ends in a local minimum that still
        # reports convergence.
        setup = SetupParams()
        worst = []
        for seed in range(1, 11):
            for index, source in enumerate(draw_fleet(2026)):
                if source.kind is not TransitionKind.EXCITON:
                    continue
                hbt0, hbt1 = whole_train_clicks(source, setup, seed, index, 300_000, "hbt")
                fit = fit_decay(folded_decay_trace(hbt0, hbt1, setup, source), source.kind,
                                setup.jitter_fwhm_ps)
                z_tau = (fit.params["tau"] - source.tau_ps) / fit.std_errs["tau"]
                z_delta = ((fit.params["delta_fss"] - source.delta_fss_uev)
                           / fit.std_errs["delta_fss"])
                worst.append((max(abs(z_tau), abs(z_delta)), seed, source.label))
        assert len(worst) == 70
        assert max(worst)[0] < 5.0, max(worst)


def noisy_scan(kind, theta_deg, seed, noise=0.05, n=13):
    rng = np.random.default_rng(seed)
    if kind is TransitionKind.EXCITON:
        src = exciton_source(S7_TAU_PS, S7_DELTA_UEV, theta_deg)
    else:
        src = trion_source(S11_TAU_PS)
    points = []
    for phi in np.linspace(0.0, math.pi, n):
        clean = phi_scan_model(float(phi), src)
        points.append(
            PhiScanPoint(
                phi_rad=clean.phi_rad,
                cavity_light=clean.cavity_light * max(0.0, 1 + noise * rng.standard_normal()),
                qd_light=clean.qd_light * max(0.0, 1 + noise * rng.standard_normal()),
            )
        )
    return points


class TestClassifyTransition:
    def test_noiseless_exciton_exact(self):
        points = noisy_scan(TransitionKind.EXCITON, 30.0, seed=0, noise=0.0)
        res = classify_transition(points)
        assert res.kind is TransitionKind.EXCITON
        assert res.theta_est_deg == pytest.approx(30.0, abs=1e-6)
        assert res.modulation_depth == pytest.approx(1.0, abs=1e-9)

    def test_noisy_trion_flat(self):
        correct = 0
        for seed in range(20):
            res = classify_transition(noisy_scan(TransitionKind.TRION, 0.0, seed))
            correct += res.kind is TransitionKind.TRION
            assert res.modulation_depth < 0.2
        assert correct == 20

    def test_theta_mod_90_ambiguity(self):
        points = noisy_scan(TransitionKind.EXCITON, 100.0, seed=1, noise=0.0)
        res = classify_transition(points)
        assert res.theta_est_deg == pytest.approx(10.0, abs=1e-6)

    def test_scale_invariance(self):
        points = noisy_scan(TransitionKind.EXCITON, 42.0, seed=3)
        scaled = [
            PhiScanPoint(p.phi_rad, p.cavity_light, 173.0 * p.qd_light) for p in points
        ]
        a = classify_transition(points)
        b = classify_transition(scaled)
        assert a.kind is b.kind
        assert b.theta_est_deg == pytest.approx(a.theta_est_deg, rel=1e-9)
        assert b.modulation_depth == pytest.approx(a.modulation_depth, rel=1e-9)

    def test_all_dark_scan_unclassifiable(self):
        # A source that never emits into the collection polarization yields
        # an identically zero QD line across the scan.
        points = [
            PhiScanPoint(float(p), math.sin(2 * p) ** 2, 0.0)
            for p in np.linspace(0.0, math.pi, 13)
        ]
        with pytest.raises(UnclassifiableError):
            classify_transition(points)

    def test_too_few_angles_rejected(self):
        points = noisy_scan(TransitionKind.TRION, 0.0, seed=0)[:7]
        with pytest.raises(ValueError):
            classify_transition(points)

    def test_insufficient_span_rejected(self):
        src = trion_source(S11_TAU_PS)
        points = [
            phi_scan_model(float(p), src)
            for p in np.linspace(0.0, math.pi / 2, 9)
        ]
        with pytest.raises(ValueError):
            classify_transition(points)

    @given(theta=st.floats(min_value=10.0, max_value=80.0))
    @settings(max_examples=25, deadline=None)
    def test_noiseless_exciton_any_angle(self, theta):
        res = classify_transition(
            noisy_scan(TransitionKind.EXCITON, theta, seed=0, noise=0.0)
        )
        assert res.kind is TransitionKind.EXCITON
        assert res.theta_est_deg == pytest.approx(theta, abs=1e-6)
