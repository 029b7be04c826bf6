"""Coverage of every reported error bar, as z = (estimate - truth) / error.

``analyze_source`` runs over run seeds 1..N_SEEDS for the first exciton and
the first trion of ``draw_fleet(2026)``, both with two-photon emission
(p2 > 0), at the default setup and 1e6 pulses.  For tau, delta_fss, g2,
V and M the z scores must have |mean| <= 0.3 and a standard deviation in
[0.85, 1.15].

N_SEEDS = 201 makes the std band's half-width 3 sampling SDs of a sample
standard deviation, 1 / sqrt(2 (N - 1)); the mean band's half-width is
then 4.2 sampling SDs of a mean, 1 / sqrt(N).

A part that only a later ROADMAP item can pass is a strict xfail that
names the item, so the item's change turns it into a failure to unmark.
"""

import functools

import numpy as np
import pytest

from qdbench.fleet import analytic_g2, draw_fleet
from qdbench.model import SetupParams, TransitionKind
from qdbench.pipeline import analyze_source

N_SEEDS = 201
N_PULSES = 1_000_000
MEAN_BAND = 0.3
STD_BAND = (0.85, 1.15)

EXCITON, TRION = TransitionKind.EXCITON, TransitionKind.TRION
B1 = "B1: re-excitation photons lengthen the trion trace the fit models as one exponential"
G1 = "G1: M is clamped at 1, which narrows and lowers its spread"
G2 = "G2: a sparse zero peak's variance is taken from its observed area"


@functools.cache
def z_scores(kind: TransitionKind) -> dict[str, np.ndarray]:
    fleet = draw_fleet(2026)
    index, source = next((i, s) for i, s in enumerate(fleet) if s.kind is kind)
    setup = SetupParams()
    g2 = analytic_g2(source)
    fields = {
        "tau": ("tau_fit_ps", "tau_fit_err_ps", source.tau_ps),
        "g2": ("g2", "g2_err", g2),
        "V": ("v_raw", "v_raw_err", source.overlap * (1.0 - g2) - g2),
        "M": ("overlap_corrected", "overlap_err", source.overlap),
    }
    if kind is EXCITON:
        fields["delta_fss"] = ("delta_fss_fit_uev", "delta_fss_fit_err_uev",
                               source.delta_fss_uev)
    z = {name: [] for name in fields}
    for seed in range(1, N_SEEDS + 1):
        report = analyze_source(source, setup, seed, index, N_PULSES)
        for name, (value, err, truth) in fields.items():
            z[name].append((getattr(report, value) - truth) / getattr(report, err))
    return {name: np.array(values) for name, values in z.items()}


def part(kind, quantity, stat, owner=None):
    marks = [pytest.mark.xfail(strict=True, reason=owner)] if owner else []
    return pytest.param(kind, quantity, stat, marks=marks,
                        id=f"{kind.value}-{quantity}-{stat}")


@pytest.mark.parametrize("kind, quantity, stat", [
    part(EXCITON, "tau", "mean"),
    part(EXCITON, "tau", "std"),
    part(EXCITON, "delta_fss", "mean"),
    part(EXCITON, "delta_fss", "std"),
    part(EXCITON, "g2", "mean"),
    part(EXCITON, "g2", "std", G2),
    part(EXCITON, "V", "mean"),
    part(EXCITON, "V", "std", G2),
    part(EXCITON, "M", "mean"),
    part(EXCITON, "M", "std", G2),
    part(TRION, "tau", "mean", B1),
    part(TRION, "tau", "std"),
    part(TRION, "g2", "mean", G2),
    part(TRION, "g2", "std", G2),
    part(TRION, "V", "mean"),
    part(TRION, "V", "std"),
    part(TRION, "M", "mean"),
    part(TRION, "M", "std", G1),
])
def test_error_bar_coverage(kind, quantity, stat):
    z = z_scores(kind)[quantity]
    if stat == "mean":
        assert abs(z.mean()) <= MEAN_BAND, f"mean z {z.mean():+.3f} over {z.size} seeds"
    else:
        std = z.std(ddof=1)
        assert STD_BAND[0] <= std <= STD_BAND[1], f"std z {std:.3f} over {z.size} seeds"
