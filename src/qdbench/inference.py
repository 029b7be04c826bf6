"""Parameter recovery: decay-trace fitting and transition classification.

``fit_decay`` fits a counted decay trace, which holds counts only, with
the emission model of the kind it is given, convolved with a fixed-width
Gaussian instrument response.  The model is

    counts(t) = amplitude * (model (*) irf)(t - t0) + background

with model parameters tau (both kinds) and delta_fss (exciton only).  The
start takes tau from the trace's 1/e fall and searches a grid over
delta_fss and t0, with amplitude and background solved in closed form.
Two passes of weighted damped least squares follow: the first weighs each
bin by its observed counts, 1/max(counts, 1), and the second by the first
pass's fitted expectation, 1/max(prediction, 1).  The angle theta is not
identifiable from a decay trace (it only scales the amplitude) and is
recovered instead from polarization scans by ``classify_transition``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import PhiScanPoint, gaussian_kernel
from .leastsq import DegenerateFitError, levenberg_marquardt
from .model import HBAR_UEV_PS, TransitionKind

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

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ClassificationResult:
    kind: TransitionKind
    theta_est_deg: float | None
    modulation_depth: float
    score_exciton: float
    score_trion: float

    def to_dict(self) -> dict:
        return {**asdict(self), "kind": self.kind.value}


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

    def __init__(self, trace: DecayTrace, kind: TransitionKind, irf_fwhm_ps: float):
        t = trace.t_ps
        steps = np.diff(t)
        self.step = float(steps[0])
        if np.any(np.abs(steps - self.step) > 1e-6 * self.step):
            raise ValueError("decay fitting requires a uniform time grid")
        self.kind = kind
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
        self._last_key, self._last = None, None

    def _conv(self, values: np.ndarray) -> np.ndarray:
        return np.convolve(values, self.kernel, mode="same")[self.crop]

    def predict_components(self, params: np.ndarray):
        """The model and its parts at ``params``; the last evaluation is reused.

        After an accepted step the fit asks for the Jacobian at the point
        whose residuals it has just taken, so each point is evaluated once.
        """
        key = params.tobytes()
        if key != self._last_key:
            self._last_key, self._last = key, self._evaluate(params)
        return self._last

    def _evaluate(self, params: np.ndarray):
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


#: Whole-bin shifts of the start search's excitation time on either side of
#: the peak-aligned placement.
_START_SHIFTS = 6
#: Smallest splitting (ueV) on the start search's grid; below it the exciton
#: model barely bends within a lifetime and differs from it only in amplitude.
_START_DELTA_MIN = 0.5


def _start(model: _DecayModel, t: np.ndarray, irf_fwhm_ps: float) -> np.ndarray:
    """The best start on a coarse grid, for the damped least-squares fit.

    tau comes from the 1/e fall of the trace smoothed with the instrument
    response.  For each splitting on a grid bounded by what the response
    resolves (one value for a trion), the model is convolved once, placed
    so that its peak meets the data's peak, and shifted by whole bins at
    two half-bin offsets.  Amplitude and background are linear, so each
    candidate costs one weighted 2x2 solve; the lowest weighted RSS wins.
    """
    c, h, n = model.counts, model.step, model.counts.size
    smooth = np.convolve(c, model.kernel, mode="same")
    bg0 = float(np.mean(np.sort(smooth)[: 2 * max(3, n // 20)]))
    i_pk = int(np.argmax(smooth))
    pk = float(smooth[i_pk])
    if pk - bg0 <= 5.0 * math.sqrt(bg0 + 1.0):
        raise DegenerateFitError("no decay signal above background")
    # The last bin above the 1/e level: a beat trough can dip below it early.
    above = np.flatnonzero(smooth[i_pk:] > bg0 + (pk - bg0) / math.e)
    tau = h * max(above[-1] + 1, 2)
    if t[-1] - t[0] < 3.0 * tau:
        raise ValueError(
            f"trace spans {t[-1] - t[0]:.0f} ps but the estimated lifetime is "
            f"{tau:.0f} ps; need >= 3 lifetimes"
        )

    if model.kind is TransitionKind.EXCITON:
        # A beat period 2 pi hbar / delta shorter than two response widths
        # (or four bins, with no response) washes out.
        delta_max = math.pi * HBAR_UEV_PS / max(irf_fwhm_ps, 2.0 * h)
        deltas = np.arange(_START_DELTA_MIN, delta_max, HBAR_UEV_PS / tau)
    else:
        deltas = [0.0]
    w = model.sqrt_w**2
    wc = w * c
    sw, swc, swcc = w.sum(), wc.sum(), wc @ c
    lead = n + _START_SHIFTS + model.radius
    best = (math.inf, None)
    for delta in deltas:
        for offset in (0.0, 0.5 * h):
            u = offset + h * np.arange(-lead, lead)
            m = _raw_model_and_derivs(u, model.kind, tau, delta, h)[0]
            shape = np.convolve(m, model.kernel, mode="same")
            starts = np.argmax(shape) - i_pk + np.arange(-_START_SHIFTS, _START_SHIFTS + 1)
            starts = np.clip(starts, 0, shape.size - n)
            win = np.lib.stride_tricks.sliding_window_view(shape, n)[starts]
            sss, ss, ssc = (win * win) @ w, win @ w, win @ wc
            det = sss * sw - ss * ss
            amp = (ssc * sw - ss * swc) / det
            bg = (sss * swc - ss * ssc) / det
            rss = swcc - amp * ssc - bg * swc
            k = int(np.argmin(rss))
            if rss[k] < best[0]:
                t0 = t[0] - u[starts[k]]
                best = (rss[k], (delta, max(amp[k], 1e-12), max(bg[k], 0.0), t0))
    delta, amp, bg, t0 = best[1]
    if model.kind is TransitionKind.EXCITON:
        return np.array([tau, delta, amp, bg, t0])
    return np.array([tau, amp, bg, t0])


def fit_decay(trace: DecayTrace, kind: TransitionKind, irf_fwhm_ps: float) -> FitResult:
    """Fit a decay trace with ``kind``'s model plus IRF.

    The instrument-response width is held fixed.  The fit starts from the
    best point of :func:`_start`'s grid.
    """
    if trace.t_ps.size < 50:
        raise ValueError(f"need >= 50 bins to fit a decay, got {trace.t_ps.size}")
    model = _DecayModel(trace, kind, irf_fwhm_ps)
    names = EXCITON_PARAM_NAMES if kind is TransitionKind.EXCITON else TRION_PARAM_NAMES
    p0 = _start(model, trace.t_ps, irf_fwhm_ps)
    result = levenberg_marquardt(model.residuals, model.jacobian, p0)
    # One reweighting pass: replace the observed-count variance estimate by
    # the fitted expectation.  Observed-count weights overweight downward
    # fluctuations and bias the decay constant low once bins hold few
    # counts; expectation weights remove that at no cost when counts are
    # high (the two estimates then agree).
    pred = model.predict_components(result.params)[0]
    model.sqrt_w = 1.0 / np.sqrt(np.maximum(pred, 1.0))
    result = levenberg_marquardt(model.residuals, model.jacobian, result.params)
    dof = max(trace.t_ps.size - len(names), 1)
    return FitResult(params=dict(zip(names, map(float, result.params))),
                     std_errs=dict(zip(names, map(float, result.std_errs))),
                     reduced_chi2=result.rss / dof, converged=result.converged,
                     n_iter=result.n_iter)


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
        theta_est_deg=math.degrees(theta) if is_exciton else None,
        modulation_depth=depth,
        score_exciton=score_sin,
        score_trion=score_const,
    )
