"""Parameter recovery: decay-trace fitting and transition classification.

``fit_decay`` fits a counted decay trace with the appropriate emission
model convolved with a fixed-width Gaussian instrument response, using
weighted damped least squares (weights 1/max(counts, 1)).  The model is

    counts(t) = amplitude * (model (*) irf)(t - t0) + background

with model parameters tau (both kinds) and delta_fss (exciton only).  The
angle theta is not identifiable from a decay trace (it only scales the
amplitude) and is recovered instead from polarization scans by
``classify_transition``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import PhiScanPoint, gaussian_kernel, peak_emission_delay
from .leastsq import DegenerateFitError, levenberg_marquardt
from .model import HBAR_UEV_PS, ExcitonParams, TransitionKind

EXCITON_PARAM_NAMES = ("tau", "delta_fss", "amplitude", "background", "t0")
TRION_PARAM_NAMES = ("tau", "amplitude", "background", "t0")

MODULATION_DEPTH_THRESHOLD = 0.2


class UnclassifiableError(ValueError):
    """Polarization scan carries no usable QD signal."""


@dataclass(frozen=True, eq=False)
class DecayTrace:
    """Counted emission-time histogram for one source."""

    t_ps: np.ndarray
    counts: np.ndarray
    kind: TransitionKind

    def __post_init__(self):
        t = np.asarray(self.t_ps, dtype=float)
        c = np.asarray(self.counts, dtype=float)
        object.__setattr__(self, "t_ps", t)
        object.__setattr__(self, "counts", c)
        if t.ndim != 1 or t.size != c.size:
            raise ValueError("t_ps and counts must be matching 1-d arrays")
        if np.any(np.diff(t) <= 0):
            raise ValueError("time grid must be strictly increasing")
        if np.any(c < 0):
            raise ValueError("counts must be non-negative")


@dataclass(frozen=True)
class FitResult:
    params: dict
    std_errs: dict
    reduced_chi2: float
    converged: bool
    n_iter: int


@dataclass(frozen=True)
class ClassificationResult:
    kind: TransitionKind
    theta_est_rad: float | None
    modulation_depth: float
    score_exciton: float
    score_trion: float


def _raw_model_and_derivs(
    u: np.ndarray, kind: TransitionKind, tau: float, delta: float, h: float
):
    """Unconvolved model per grid cell and its partials w.r.t. tau, delta, u.

    u is the cell-center time since excitation; the model vanishes before
    the excitation.  The trion model jumps at u = 0, so its binned value
    is the exact cell average over [u - h/2, u + h/2]; a pointwise sample
    would make the prediction discontinuous in t0 whenever the excitation
    time crosses a grid point, which wrecks the descent.  The exciton
    model rises quadratically from zero, so pointwise sampling is smooth
    and accurate there.
    """
    if kind is TransitionKind.TRION:
        a = np.maximum(u - 0.5 * h, 0.0)
        b = np.maximum(u + 0.5 * h, 0.0)
        ea = np.exp(-a / tau)
        eb = np.exp(-b / tau)
        m = tau * (ea - eb) / h
        dm_dtau = (ea * (1.0 + a / tau) - eb * (1.0 + b / tau)) / h
        dm_du = (eb * (b > 0) - ea * (a > 0)) / h
        dm_ddelta = np.zeros_like(m)
    else:
        pos = u >= 0.0
        uc = np.where(pos, u, 0.0)
        decay = np.exp(-uc / tau)
        x = uc * delta / (2.0 * HBAR_UEV_PS)
        s2 = np.sin(x) ** 2
        sin2x = np.sin(2.0 * x)
        m = np.where(pos, decay * s2, 0.0)
        dm_dtau = np.where(pos, decay * s2 * uc / tau**2, 0.0)
        dm_ddelta = np.where(pos, decay * sin2x * uc / (2.0 * HBAR_UEV_PS), 0.0)
        dm_du = np.where(
            pos, decay * (-s2 / tau + sin2x * delta / (2.0 * HBAR_UEV_PS)), 0.0
        )
    return m, dm_dtau, dm_ddelta, dm_du


class _DecayModel:
    """Model/Jacobian evaluator on a padded copy of the trace grid."""

    def __init__(self, trace: DecayTrace, irf_fwhm_ps: float):
        t = trace.t_ps
        steps = np.diff(t)
        self.step = float(steps[0])
        if np.any(np.abs(steps - self.step) > 1e-6 * self.step):
            raise ValueError("decay fitting requires a uniform time grid")
        self.kind = trace.kind
        self.counts = trace.counts
        self.sqrt_w = 1.0 / np.sqrt(np.maximum(trace.counts, 1.0))
        if irf_fwhm_ps > 0:
            self.kernel, self.radius = gaussian_kernel(self.step, irf_fwhm_ps)
            if self.step > irf_fwhm_ps / 4.0:
                # Coarse grids lose the kernel shape; widen bins upstream.
                raise ValueError(
                    f"trace grid step {self.step} ps undersamples the "
                    f"{irf_fwhm_ps} ps FWHM instrument response"
                )
        else:
            self.kernel, self.radius = np.array([1.0]), 1
        n = t.size
        self.t_pad = t[0] + self.step * np.arange(-self.radius, n + self.radius)
        self.crop = slice(self.radius, self.radius + n)

    def _conv(self, values: np.ndarray) -> np.ndarray:
        return np.convolve(values, self.kernel, mode="same")[self.crop]

    def predict_components(self, params: np.ndarray):
        if self.kind is TransitionKind.EXCITON:
            tau, delta, amp, bg, t0 = params
        else:
            tau, amp, bg, t0 = params
            delta = 0.0
        u = self.t_pad - t0
        m, dm_dtau, dm_ddelta, dm_du = _raw_model_and_derivs(u, self.kind, tau, delta, self.step)
        shape = self._conv(m)
        pred = amp * shape + bg
        return pred, shape, dm_dtau, dm_ddelta, dm_du, amp

    def residuals(self, params: np.ndarray) -> np.ndarray:
        tau = params[0]
        if tau <= 0 or (self.kind is TransitionKind.EXCITON and params[1] < 0):
            return np.full(self.counts.size, 1e100)
        pred = self.predict_components(params)[0]
        return (pred - self.counts) * self.sqrt_w

    def jacobian(self, params: np.ndarray) -> np.ndarray:
        _, shape, dm_dtau, dm_ddelta, dm_du, amp = self.predict_components(params)
        cols = [amp * self._conv(dm_dtau)]
        if self.kind is TransitionKind.EXCITON:
            cols.append(amp * self._conv(dm_ddelta))
        cols.append(shape)
        cols.append(np.ones_like(shape))
        cols.append(-amp * self._conv(dm_du))
        j = np.stack(cols, axis=1)
        return j * self.sqrt_w[:, None]


def _boxcar(values: np.ndarray, width: int) -> np.ndarray:
    width = max(1, min(width, values.size))
    kernel = np.ones(width) / width
    return np.convolve(values, kernel, mode="same")


def _initial_guess(trace: DecayTrace, irf_fwhm_ps: float) -> dict:
    t, c = trace.t_ps, trace.counts
    smooth = _boxcar(c, max(3, int(round(irf_fwhm_ps / max(t[1] - t[0], 1e-9)))))
    n_tail = max(3, c.size // 20)
    bg0 = float(np.mean(np.sort(smooth)[: 2 * n_tail]))
    i_pk = int(np.argmax(smooth))
    pk = float(smooth[i_pk])
    if pk - bg0 <= 5.0 * math.sqrt(bg0 + 1.0):
        raise DegenerateFitError("no decay signal above background")

    tail = smooth[i_pk:]
    target = bg0 + (pk - bg0) / math.e
    below = np.where(tail <= target)[0]
    tau0 = float(t[i_pk + below[0]] - t[i_pk]) if below.size else float((t[-1] - t[i_pk]) / 3.0)
    tau0 = max(tau0, 2.0 * (t[1] - t[0]))

    rise = np.where(smooth[: i_pk + 1] >= bg0 + (pk - bg0) / 2.0)[0]
    t_half = float(t[rise[0]]) if rise.size else float(t[max(i_pk - 1, 0)])

    init = {"background": bg0, "t0": t_half}
    if trace.kind is TransitionKind.EXCITON:
        # Dominant beat frequency from a Fourier probe of the detrended tail.
        seg = c[i_pk:] - _boxcar(c[i_pk:], max(5, int(round(tau0 / (t[1] - t[0])))))
        seg = seg * np.exp(np.clip(t[i_pk:] - t[i_pk], 0, 6 * tau0) / (2 * tau0))
        spec = np.abs(np.fft.rfft(seg, n=8 * seg.size))
        freqs = np.fft.rfftfreq(8 * seg.size, d=t[1] - t[0])
        lo = max(2, int(np.searchsorted(freqs, 0.25 / (t[-1] - t[i_pk]))))
        k = lo + int(np.argmax(spec[lo:]))
        delta0 = 2.0 * math.pi * HBAR_UEV_PS * float(freqs[k])
        init["delta_fss"] = max(delta0, 0.5)
        # The intensity peaks one beat-dependent delay after excitation.
        peak_delay = peak_emission_delay(ExcitonParams(tau0, init["delta_fss"], 0.0))
        init["t0"] = float(t[i_pk]) - peak_delay
    init["tau"] = tau0
    init["amplitude"] = pk - bg0
    return init


def _refine_start(model: _DecayModel, p0: np.ndarray, span_ps: float = 24.0,
                  step_ps: float = 2.0) -> np.ndarray:
    """Coarse scan over the excitation time with linear amplitude solves.

    The weighted RSS is rugged in t0 on the scale of a few picoseconds
    (the steep rise flips residual signs bin by bin), so a descent started
    from a mis-timed guess can stall in a nearby local minimum.  For each
    candidate t0 the optimal amplitude and background follow from a
    weighted linear solve; the best candidate seeds the full fit.
    """
    w = model.sqrt_w
    y = model.counts * w
    best = None
    for dt in np.arange(-span_ps, span_ps + 0.5 * step_ps, step_ps):
        trial = p0.copy()
        trial[-3], trial[-2] = 1.0, 0.0
        trial[-1] = p0[-1] + dt
        shape = model.predict_components(trial)[1]
        design = np.stack([shape * w, w], axis=1)
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        rss = float(np.sum((design @ coef - y) ** 2))
        if best is None or rss < best[0]:
            best = (rss, trial[-1], coef)
    _, t0_best, coef = best
    out = p0.copy()
    out[-3] = max(float(coef[0]), 1e-12)
    out[-2] = max(float(coef[1]), 0.0)
    out[-1] = t0_best
    return out


def fit_decay(
    trace: DecayTrace,
    irf_fwhm_ps: float,
    init: dict | None = None,
    max_iter: int = 500,
) -> FitResult:
    """Fit a decay trace with the kind-appropriate model plus IRF.

    The instrument-response width is held fixed.  ``init`` may override
    any of the auto-initialized parameters by name.
    """
    if trace.t_ps.size < 50:
        raise ValueError(f"need >= 50 bins to fit a decay, got {trace.t_ps.size}")
    model = _DecayModel(trace, irf_fwhm_ps)
    guess = _initial_guess(trace, irf_fwhm_ps)
    if init:
        guess.update(init)
    names = EXCITON_PARAM_NAMES if trace.kind is TransitionKind.EXCITON else TRION_PARAM_NAMES
    span = trace.t_ps[-1] - trace.t_ps[0]
    if span < 3.0 * guess["tau"]:
        raise ValueError(
            f"trace spans {span:.0f} ps but the estimated lifetime is "
            f"{guess['tau']:.0f} ps; need >= 3 lifetimes"
        )
    p0 = np.array([guess[name] for name in names], dtype=float)
    p0 = _refine_start(model, p0)

    result = levenberg_marquardt(
        model.residuals, model.jacobian, p0, max_iter=max_iter
    )
    # One reweighting pass: replace the observed-count variance estimate by
    # the fitted expectation.  Observed-count weights overweight downward
    # fluctuations and bias the decay constant low once bins hold few
    # counts; expectation weights remove that at no cost when counts are
    # high (the two estimates then agree).
    pred = model.predict_components(result.params)[0]
    model.sqrt_w = 1.0 / np.sqrt(np.maximum(pred, 1.0))
    result = levenberg_marquardt(
        model.residuals, model.jacobian, result.params, max_iter=max_iter
    )
    dof = max(trace.t_ps.size - len(names), 1)
    params = {name: float(v) for name, v in zip(names, result.params)}
    errs = {name: float(e) for name, e in zip(names, result.std_errs)}
    return FitResult(
        params=params,
        std_errs=errs,
        reduced_chi2=result.rss / dof,
        converged=result.converged,
        n_iter=result.n_iter,
    )


def _sinusoid_fit(phi: np.ndarray, qd: np.ndarray):
    """Exact least squares of A*sin^2(2(phi - theta)) + C via linearization.

    The model expands to c0 + c1*cos(4 phi) + c2*sin(4 phi) with
    c0 = A/2 + C, (c1, c2) = -(A/2)(cos 4 theta, sin 4 theta).
    """
    design = np.stack([np.ones_like(phi), np.cos(4.0 * phi), np.sin(4.0 * phi)], axis=1)
    coef, *_ = np.linalg.lstsq(design, qd, rcond=None)
    c0, c1, c2 = coef
    amp = 2.0 * math.hypot(c1, c2)
    theta = 0.25 * math.atan2(-c2, -c1) % (math.pi / 2.0)
    offset = c0 - amp / 2.0
    rss = float(np.sum((design @ coef - qd) ** 2))
    return amp, offset, theta, rss


def classify_transition(points: list[PhiScanPoint]) -> ClassificationResult:
    """Decide exciton vs trion from the QD line's polarization dependence.

    Fits the QD intensity against both a sin^2(2(phi - theta)) sinusoid
    and a constant; picks exciton when the fitted modulation depth exceeds
    0.2 and the sinusoid wins after a free-parameter penalty
    (score = RSS * n / (n - k)).
    """
    if len(points) < 8:
        raise ValueError(f"need >= 8 scan angles, got {len(points)}")
    phi = np.array([p.phi_rad for p in points], dtype=float)
    qd = np.array([p.qd_light for p in points], dtype=float)
    if phi.max() - phi.min() < math.pi - 1e-6:
        raise ValueError("scan must span at least 180 degrees")
    if np.all(qd == 0):
        raise UnclassifiableError("QD line intensity is identically zero")

    n = phi.size
    amp, offset, theta, rss_sin = _sinusoid_fit(phi, qd)
    rss_const = float(np.sum((qd - qd.mean()) ** 2))
    score_sin = rss_sin * n / (n - 3)
    score_const = rss_const * n / (n - 1)

    floor = max(offset, 0.0)
    denom = amp + 2.0 * floor
    depth = min(max(amp / denom, 0.0), 1.0) if denom > 0 else 0.0

    is_exciton = depth > MODULATION_DEPTH_THRESHOLD and score_sin < score_const
    return ClassificationResult(
        kind=TransitionKind.EXCITON if is_exciton else TransitionKind.TRION,
        theta_est_rad=theta if is_exciton else None,
        modulation_depth=depth,
        score_exciton=score_sin,
        score_trion=score_const,
    )
