"""End-to-end pipelines: simulate, analyze, fit, classify, report.

Each source gets an independent family of RNG streams derived from the
global seed and its position in the config, so per-source work can run on
any number of threads with byte-identical results.  Every artifact file
starts with a header carrying the tool version, the seed and the config
hash; nothing time- or host-dependent is ever written.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import FleetConfig
from .correlation import (
    brightness_chain,
    build_histogram,
    corrected_overlap,
    g2_zero,
    hom_visibility,
    write_histogram,
)
from .dynamics import phi_scan_model
from .inference import DecayTrace, classify_transition, fit_decay
from .model import SetupParams, SourceParams, TransitionKind
from .photon_sim import RngSpec, hbt_streams, hom_streams, simulate_pulse_train
from .report import SourceReport, aggregate_benchmark, emit_report

_STREAMS_PER_SOURCE = 8
_WRITE_BLOCK_ROWS = 1 << 16
#: Sorted int64 times in [_EDGES[i - 1], _EDGES[i]) share one sign and one
#: digit count, _RUN_LAYOUTS[i]; _RUN_WIDTHS[i] is the byte width of their rows.
_EDGES = np.concatenate([1 - 10 ** np.arange(18, 0, -1), [0], 10 ** np.arange(1, 19)])
_RUN_LAYOUTS = [(True, 19 - i) for i in range(19)] + [(False, d) for d in range(1, 20)]
_RUN_WIDTHS = np.array([3 + negative + digits for negative, digits in _RUN_LAYOUTS])
_PHI_SCAN_ANGLES = 13
_PHI_SCAN_NOISE = 0.02
#: Coincidence histograms span +/- this many repetition periods.
HISTOGRAM_PERIODS = 10.5
#: Bin width (ps) of the decay trace.
_TRACE_BIN_PS = 4.0


class SourceStreams(NamedTuple):
    """The RNG streams of one source, as laid out by :func:`source_streams`."""

    hbt_events: RngSpec
    hbt_clicks: RngSpec
    hom_events: RngSpec
    hom_clicks: RngSpec
    phi_scan: RngSpec


def source_streams(seed: int, source_index: int) -> SourceStreams:
    """RNG streams of the source at ``source_index`` in the config.

    Source i owns stream ids [8 i, 8 i + 8); the ids after the last field
    are reserved, so a new stream never moves another source's streams.
    Every command that simulates a source takes its streams from here.
    """
    base = source_index * _STREAMS_PER_SOURCE
    return SourceStreams(*(RngSpec(seed, base + k) for k in range(len(SourceStreams._fields))))


@dataclass(frozen=True)
class PipelineOptions:
    bin_width_ps: float = 100.0
    window_ps: float = 2000.0
    save_clicks: bool = False


@dataclass
class PipelineResult:
    reports: list[SourceReport]
    summary: object
    failures: dict[str, str] = field(default_factory=dict)
    out_dir: str | None = None


def file_header(seed: int, config_hash: str) -> str:
    return f"# qdbench {__version__} seed={seed} config={config_hash}"


def write_timestamps(path, t0: np.ndarray, t1: np.ndarray, header: str):
    """Write merged click streams as integer-picosecond rows.

    Integer times avoid float-accumulation drift over long streams.  Rows
    are sorted by time, then channel; clicks from pulse 0 can have negative
    times.  Each block of ``_WRITE_BLOCK_ROWS`` rows is formatted as one
    byte array, which bounds the memory the text takes whatever the stream
    length.
    """
    times = np.rint(np.concatenate([t0, t1]))
    # Each channel stays sorted after rounding, so the stable sort is a
    # linear merge that puts channel 0 first on equal times.
    order = np.argsort(times, kind="stable")
    channel = (order >= t0.size).astype(np.uint8)
    times = times[order].astype(np.int64)
    with open(path, "wb") as f:
        f.write(f"{header}\n# channel,time_ps\n".encode())
        for lo in range(0, times.size, _WRITE_BLOCK_ROWS):
            hi = lo + _WRITE_BLOCK_ROWS
            f.write(_format_rows(channel[lo:hi], times[lo:hi]).tobytes())


def _format_rows(channel: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The text ``f"{c},{t}\\n"`` of every row as one byte array.

    ``times`` must be sorted, so that rows fall into contiguous runs of one
    sign and one digit count, cut at ``_EDGES``.  Each run is a fixed-width
    byte matrix inside the output, filled a column at a time.
    """
    bounds = [0, *np.searchsorted(times, _EDGES).tolist(), times.size]
    text = np.empty(int(np.diff(bounds) @ _RUN_WIDTHS), dtype=np.uint8)
    pos = 0
    for (negative, digits), width, lo, hi in zip(_RUN_LAYOUTS, _RUN_WIDTHS,
                                                  bounds[:-1], bounds[1:]):
        if lo == hi:
            continue
        rows = text[pos:pos + (hi - lo) * width].reshape(hi - lo, width)
        pos += rows.size
        rows[:, 0] = channel[lo:hi] + ord("0")
        rows[:, 1] = ord(",")
        if negative:
            rows[:, 2] = ord("-")
        rows[:, -1] = ord("\n")
        magnitude = -times[lo:hi] if negative else times[lo:hi]
        _put_digits(rows, width - 1, magnitude.astype(_digit_dtype(digits)), digits)
    return text


def _put_digits(rows: np.ndarray, end: int, values: np.ndarray, n: int):
    """Write ``values`` as ``n`` zero-padded decimal digits to ``rows[:, end - n:end]``.

    The digits are split in halves, and each half is held in the narrowest
    unsigned type that fits: narrow integer division is much cheaper.
    """
    if n == 1:
        rows[:, end - 1] = values + ord("0")
        return
    k = n // 2
    high = values // 10**k
    low = values - high * 10**k
    _put_digits(rows, end, low.astype(_digit_dtype(k)), k)
    _put_digits(rows, end - k, high.astype(_digit_dtype(n - k)), n - k)


def _digit_dtype(n: int):
    """The narrowest integer type that holds every ``n``-digit value."""
    return np.uint8 if n <= 2 else np.uint16 if n <= 4 else np.uint32 if n <= 9 else np.int64


def read_timestamps(path):
    """Read a timestamp file back into per-channel sorted time arrays.

    Times may be decimal.  A row that is not ``channel,time`` with an
    integer channel raises ``ValueError``.
    """
    rows = np.loadtxt(path, delimiter=",", comments="#", ndmin=1,
                      dtype=[("channel", np.int64), ("time_ps", float)])
    chans, times = rows["channel"], rows["time_ps"]
    return np.sort(times[chans == 0]), np.sort(times[chans == 1])


def synthesize_phi_scan(source: SourceParams, rng: np.random.Generator,
                        n_angles: int = _PHI_SCAN_ANGLES, noise: float = _PHI_SCAN_NOISE):
    """Noisy polarization scan of the cavity-rotated and QD line intensities."""
    phis = np.linspace(0.0, math.pi, n_angles)
    points = []
    for phi in phis:
        clean = phi_scan_model(float(phi), source.kind, source, amp_cavity=1.0, amp_qd=1.0)
        factor_c = max(0.0, 1.0 + noise * rng.standard_normal())
        factor_q = max(0.0, 1.0 + noise * rng.standard_normal())
        points.append(
            type(clean)(
                phi_rad=clean.phi_rad,
                cavity_light=clean.cavity_light * factor_c,
                qd_light=clean.qd_light * factor_q,
            )
        )
    return points


def decay_trace_from_clicks(t0: np.ndarray, t1: np.ndarray, setup: SetupParams,
                            source: SourceParams, bin_ps: float) -> DecayTrace:
    """Fold detector clicks onto the pulse window and bin them."""
    period = setup.rep_period_ps
    folded = np.mod(np.concatenate([t0, t1]), period)
    span = min(period, 12.0 * source.tau_ps + 400.0)
    n_bins = int(span / bin_ps)
    counts, edges = np.histogram(folded, bins=n_bins, range=(0.0, n_bins * bin_ps))
    centers = 0.5 * (edges[:-1] + edges[1:])
    return DecayTrace(t_ps=centers, counts=counts.astype(float), kind=source.kind)


def analyze_source(
    source: SourceParams,
    setup: SetupParams,
    seed: int,
    source_index: int,
    n_pulses: int,
    options: PipelineOptions = PipelineOptions(),
):
    """Simulate one source and recover all of its figures of merit."""
    streams = source_streams(seed, source_index)
    period = setup.rep_period_ps
    max_delay = HISTOGRAM_PERIODS * period

    events = simulate_pulse_train(streams.hbt_events, source, setup, n_pulses)
    hbt0, hbt1 = hbt_streams(streams.hbt_clicks, events, setup)
    # Drop the HBT events before the HOM train is simulated, so that only
    # one train's events are alive at a time.
    del events
    hbt_hist = build_histogram(hbt0, hbt1, options.bin_width_ps, max_delay, period)
    g2 = g2_zero(hbt_hist, options.window_ps)

    events = simulate_pulse_train(streams.hom_events, source, setup, n_pulses)
    hom0, hom1 = hom_streams(streams.hom_clicks, events, setup, source.overlap)
    del events
    hom_hist = build_histogram(hom0, hom1, options.bin_width_ps, max_delay, period)
    vis = hom_visibility(hom_hist, options.window_ps)
    overlap = corrected_overlap(vis.value, g2.value)
    overlap_err = math.hypot(
        vis.std_err / (1.0 - g2.value),
        (1.0 + vis.value) * g2.std_err / (1.0 - g2.value) ** 2,
    )

    trace = decay_trace_from_clicks(hbt0, hbt1, setup, source, _TRACE_BIN_PS)
    fit = fit_decay(trace, irf_fwhm_ps=setup.jitter_fwhm_ps)

    phi_points = synthesize_phi_scan(source, streams.phi_scan.generator())
    classification = classify_transition(phi_points)

    duration_s = n_pulses * period * 1e-12
    n_clicks = hbt0.size + hbt1.size
    detected_rate = n_clicks / duration_s
    chain = brightness_chain(detected_rate, setup)

    report = SourceReport(
        label=source.label,
        kind=source.kind,
        g2=g2.value,
        g2_err=g2.std_err,
        v_raw=vis.value,
        v_raw_err=vis.std_err,
        overlap_corrected=overlap.value,
        overlap_err=overlap_err,
        first_lens_brightness=chain.first_lens_brightness,
        fibered_rate_cps=chain.fibered_rate_cps,
        tau_fit_ps=fit.params["tau"],
        tau_fit_err_ps=fit.std_errs["tau"],
        wavelength_nm=source.wavelength_nm,
        delta_fss_fit_uev=(
            fit.params["delta_fss"] if source.kind is TransitionKind.EXCITON else None
        ),
        delta_fss_fit_err_uev=(
            fit.std_errs["delta_fss"] if source.kind is TransitionKind.EXCITON else None
        ),
    )
    return {
        "report": report,
        "fit": fit,
        "classification": classification,
        "hbt_hist": hbt_hist,
        "hom_hist": hom_hist,
        "trace": trace,
        "phi_points": phi_points,
        # Click streams are large; keep them only when they will be written.
        "clicks": (hbt0, hbt1, hom0, hom1) if options.save_clicks else None,
    }


def _write_source_artifacts(out_dir, source, result, header, options):
    src_dir = os.path.join(out_dir, source.label)
    os.makedirs(src_dir, exist_ok=True)
    meta = {"source": source.label, "provenance": header.strip("# ").replace(" ", "_")}
    write_histogram(result["hbt_hist"], os.path.join(src_dir, "hbt_histogram.csv"), meta=meta)
    write_histogram(result["hom_hist"], os.path.join(src_dir, "hom_histogram.csv"), meta=meta)

    trace = result["trace"]
    with open(os.path.join(src_dir, "decay_trace.csv"), "w") as f:
        f.write(header + "\n")
        f.write("t_ps,counts\n")
        for t, c in zip(trace.t_ps.tolist(), trace.counts.tolist()):
            f.write(f"{t!r},{int(c)}\n")

    fit = result["fit"]
    with open(os.path.join(src_dir, "fit.json"), "w") as f:
        json.dump(
            {
                "_header": header.strip("# "),
                "params": fit.params,
                "std_errs": fit.std_errs,
                "reduced_chi2": fit.reduced_chi2,
                "converged": fit.converged,
                "n_iter": fit.n_iter,
            },
            f,
            indent=2,
            sort_keys=True,
        )

    cls = result["classification"]
    with open(os.path.join(src_dir, "classification.json"), "w") as f:
        json.dump(
            {
                "_header": header.strip("# "),
                "kind": cls.kind.value,
                "theta_est_deg": (
                    math.degrees(cls.theta_est_rad) if cls.theta_est_rad is not None else None
                ),
                "modulation_depth": cls.modulation_depth,
                "score_exciton": cls.score_exciton,
                "score_trion": cls.score_trion,
            },
            f,
            indent=2,
            sort_keys=True,
        )

    with open(os.path.join(src_dir, "phi_scan.csv"), "w") as f:
        f.write(header + "\n")
        f.write("phi_rad,cavity_light,qd_light\n")
        for p in result["phi_points"]:
            f.write(f"{p.phi_rad!r},{p.cavity_light!r},{p.qd_light!r}\n")

    with open(os.path.join(src_dir, "report.json"), "w") as f:
        json.dump({"_header": header.strip("# "), **result["report"].to_dict()}, f,
                  indent=2, sort_keys=True)

    if options.save_clicks:
        hbt0, hbt1, hom0, hom1 = result["clicks"]
        write_timestamps(os.path.join(src_dir, "hbt_clicks.csv"), hbt0, hbt1, header)
        write_timestamps(os.path.join(src_dir, "hom_clicks.csv"), hom0, hom1, header)


def run_pipeline(
    config: FleetConfig,
    n_pulses: int,
    seed: int,
    out_dir: str | None = None,
    threads: int = 1,
    options: PipelineOptions = PipelineOptions(),
) -> PipelineResult:
    """Simulate and analyze every source in the config.

    Per-source failures are recorded and do not abort the rest of the
    fleet.  Rerunning with identical (config, seed, n_pulses) reproduces
    identical analysis outputs regardless of ``threads``.
    """
    header = file_header(seed, config.config_hash)

    def work(indexed):
        index, source = indexed
        return analyze_source(source, config.setup, seed, index, n_pulses, options)

    indexed_sources = list(enumerate(config.sources))
    results: dict[str, dict] = {}
    failures: dict[str, str] = {}
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = {src.label: pool.submit(work, (i, src)) for i, src in indexed_sources}
        for label, fut in futures.items():
            try:
                results[label] = fut.result()
            except Exception as exc:  # per-source isolation
                failures[label] = f"{type(exc).__name__}: {exc}"
    else:
        for i, src in indexed_sources:
            try:
                results[src.label] = work((i, src))
            except Exception as exc:
                failures[src.label] = f"{type(exc).__name__}: {exc}"

    reports = [results[s.label]["report"] for s in config.sources if s.label in results]
    summary = aggregate_benchmark(reports) if reports else None

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for source in config.sources:
            if source.label in results:
                _write_source_artifacts(out_dir, source, results[source.label], header, options)
        if reports:
            for fmt, name in (
                ("structured-json", "summary.json"),
                ("csv", "summary.csv"),
                ("table-text", "summary.txt"),
            ):
                emit_report(summary, reports, fmt, os.path.join(out_dir, name), header=header)
        if failures:
            with open(os.path.join(out_dir, "failures.json"), "w") as f:
                json.dump({"_header": header.strip("# "), **failures}, f, indent=2, sort_keys=True)

    return PipelineResult(reports=reports, summary=summary, failures=failures, out_dir=out_dir)
