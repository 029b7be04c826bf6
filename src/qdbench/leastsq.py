"""Damped least-squares (Levenberg-Marquardt) minimizer.

Small, dependency-free implementation tailored to the decay-curve fits in
this package: dense Jacobians with a handful of parameters, step damping
adjusted by the gain ratio (Nielsen update), and covariance from the
inverse of the normal matrix, unscaled: the residuals are taken to be
weighted by their variances, so the weights alone set the errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DegenerateFitError(RuntimeError):
    """Normal matrix singular or the data carry no fittable signal."""


@dataclass
class LMResult:
    params: np.ndarray
    cov: np.ndarray
    rss: float
    n_iter: int
    converged: bool

    @property
    def std_errs(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.cov), 0.0, None))


_MAX_ITER = 500
_XTOL = 1e-8
_GTOL = 1e-10


def _normal_equations(jac, p: np.ndarray, r: np.ndarray):
    """Normal matrix J^T J at p, its damping diagonal and the gradient J^T r."""
    j = np.asarray(jac(p), dtype=float)
    a = j.T @ j
    d = np.diag(a).copy()
    d[d <= 0] = 1e-300
    return a, d, j.T @ r


def _solve_damped(a: np.ndarray, d: np.ndarray, g: np.ndarray, lam: float) -> np.ndarray:
    try:
        return np.linalg.solve(a + lam * np.diag(d), -g)
    except np.linalg.LinAlgError as exc:
        raise DegenerateFitError("singular normal matrix in damped step") from exc


def levenberg_marquardt(fun, jac, p0: np.ndarray) -> LMResult:
    """Minimize sum(fun(p)**2) starting from p0.

    ``fun`` returns the residual vector; ``jac`` its Jacobian.  Residuals
    may be returned non-finite to veto an infeasible parameter point, in
    which case the step is rejected and damping increases.

    Convergence: relative parameter change below ``_XTOL`` or infinity-norm
    of the gradient below ``_GTOL``; otherwise runs ``_MAX_ITER``
    iterations and reports converged=False.
    """
    p = np.asarray(p0, dtype=float).copy()
    r = np.asarray(fun(p), dtype=float)
    if not np.all(np.isfinite(r)):
        raise DegenerateFitError("residuals not finite at the initial point")
    rss = float(r @ r)
    lam = 1e-3
    nu = 2.0
    n_iter = 0
    converged = False

    a, d, g = _normal_equations(jac, p, r)

    for n_iter in range(1, _MAX_ITER + 1):
        grad_norm = float(np.max(np.abs(g)))
        if grad_norm < _GTOL:
            converged = True
            break
        step = _solve_damped(a, d, g, lam)
        rel_change = float(np.linalg.norm(step) / (np.linalg.norm(p) + 1e-300))
        if rel_change < _XTOL:
            # The damped step is already negligible; accepted or not, no
            # further progress is possible at this scale.
            converged = True
            break
        p_new = p + step
        r_new = np.asarray(fun(p_new), dtype=float)
        rss_new = float(r_new @ r_new) if np.all(np.isfinite(r_new)) else np.inf
        # Gain ratio: actual RSS reduction over the reduction predicted by
        # the damped quadratic model.
        predicted = float(step @ (lam * d * step - g))
        rho = (rss - rss_new) / predicted if predicted > 0 else -1.0
        if rho > 0 and rss_new < rss:
            p, r, rss = p_new, r_new, rss_new
            a, d, g = _normal_equations(jac, p, r)
            lam = lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
        else:
            lam *= nu
            nu *= 2.0
            if lam > 1e150:
                break

    try:
        cov = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise DegenerateFitError("singular normal matrix at the solution") from exc
    return LMResult(
        params=p,
        cov=cov,
        rss=rss,
        n_iter=n_iter,
        converged=converged,
    )
