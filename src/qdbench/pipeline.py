"""End-to-end pipelines: simulate, analyze, fit, classify, report.

Each source gets an independent family of RNG streams derived from the
global seed and its position in the config, so per-source work can run on
any number of threads with byte-identical results.  Every command writes
its artifacts through this module's writers.  A header is the bare line of
:func:`file_header` (version, seed, config hash, stream layout): text files
start with it behind ``# ``, JSON files hold it as ``_header``, and
``None`` writes neither.  A text file that must be read with a run setting
(a histogram's bin width and period, a click file's period, a decay
trace's IRF width) records it on a ``# key=value`` note line, which
:func:`read_notes` reads back.  Nothing time- or host-dependent is ever
written.
"""

from __future__ import annotations

import functools
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
    WINDOW_PS,
    brightness_chain,
    build_histogram,
    corrected_overlap,
    g2_zero,
    hom_visibility,
)
from .dynamics import phi_scan_model
from .inference import DecayTrace, classify_transition, fit_decay
from .model import SetupParams, SourceParams
from .photon_sim import STREAM_LAYOUT, RngSpec, hbt_streams, hom_streams, simulate_pulse_train
from .report import SourceReport, aggregate_benchmark, emit_report

_STREAMS_PER_SOURCE = 8
#: Clicks folded at a time by :func:`decay_trace_from_clicks`.
_FOLD_BLOCK = 1 << 16
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
    window_ps: float = WINDOW_PS
    save_clicks: bool = False


@dataclass
class PipelineResult:
    reports: list[SourceReport]
    summary: object
    failures: dict[str, str] = field(default_factory=dict)


def file_header(seed: int, config_hash: str) -> str:
    return (f"qdbench {__version__} seed={seed} config={config_hash} "
            f"stream_layout={STREAM_LAYOUT}")


def read_header(path) -> str | None:
    """The provenance line a file starts with, or None for a hand-made file."""
    with open(path) as f:
        line = f.readline()
    return line[2:].rstrip("\n") if line.startswith("# qdbench ") else None


def read_notes(path) -> dict[str, float]:
    """The ``key=value`` settings on a text file's leading ``#`` lines, header excluded.

    Tables hold them on the note line after the header, and click files on
    the line after ``# channel,time_ps``; a hand-made file may hold none.
    """
    notes = {}
    with open(path) as f:
        for line in f:
            if not line.startswith("#"):
                break
            if not line.startswith("# qdbench "):
                notes.update(token.split("=", 1) for token in line[1:].split() if "=" in token)
    return {key: float(value) for key, value in notes.items()}


def _comment(header: str | None) -> str:
    return "" if header is None else f"# {header}\n"


def _cells(column) -> list[str]:
    """A column's values as text, floats by repr."""
    return list(map(repr, np.asarray(column).tolist()))


def write_table(path, header: str | None, names, columns, notes: str | None = None):
    """Write ``# header``, a ``# notes`` line, the column names, then rows (floats by repr)."""
    _write_rows(path, header, names, map(_cells, columns), notes)


def _write_rows(path, header: str | None, names, cells, notes: str | None):
    with open(path, "w") as f:
        f.write(_comment(header) + _comment(notes) + ",".join(names) + "\n")
        f.writelines(",".join(row) + "\n" for row in zip(*cells))


@functools.lru_cache(maxsize=1)
def _delay_cells(delays: bytes) -> tuple[str, ...]:
    """The text of a delay column, given as its float64 bytes.

    Every histogram of a run has the same delays, so they are formatted
    once.  Keyed by bytes, 0.0 and -0.0, whose text differs, stay apart.
    """
    return tuple(_cells(np.frombuffer(delays)))


def write_histogram(hist, path, header: str | None):
    """Write a histogram's ``bin_center_ps,counts`` rows under its bin width and period."""
    _write_rows(path, header, ("bin_center_ps", "counts"),
                (_delay_cells(hist.delays_ps.tobytes()), _cells(hist.counts)),
                f"bin_width_ps={hist.bin_width_ps!r} rep_period_ps={hist.rep_period_ps!r}")


def write_json(path, payload: dict, header: str | None):
    """Write ``payload`` as indented JSON with sorted keys, ``header`` as ``_header``."""
    if header is not None:
        payload = {"_header": header, **payload}
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)


def write_timestamps(path, t0: np.ndarray, t1: np.ndarray, header: str | None,
                     rep_period_ps: float):
    """Write two sorted integer-picosecond click streams as merged rows.

    The column names and a ``rep_period_ps=`` note come first, then rows
    sorted by time, then channel; clicks from pulse 0 can have negative
    times.  Each block of ``_WRITE_BLOCK_ROWS`` rows is formatted
    as one byte array, which bounds the memory the text takes whatever the
    stream length.
    """
    # Float times do not cast safely to int64 and raise a TypeError.
    times = np.concatenate([t0, t1], dtype=np.int64, casting="safe")
    # Each channel is sorted, so the stable sort is a linear merge that
    # puts channel 0 first on equal times.
    order = np.argsort(times, kind="stable")
    channel = (order >= t0.size).astype(np.uint8)
    times = times[order]
    with open(path, "wb") as f:
        f.write(f"{_comment(header)}# channel,time_ps\n"
                f"# rep_period_ps={float(rep_period_ps)!r}\n".encode())
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
    """Read a timestamp file back into per-channel sorted int64 ps arrays.

    A row that is not ``channel,time_ps`` with an integer channel and an
    integer time raises ``ValueError``; a decimal time is such a row.
    """
    rows = np.loadtxt(path, delimiter=",", comments="#", ndmin=1,
                      dtype=[("channel", np.int64), ("time_ps", np.int64)])
    chans, times = rows["channel"], rows["time_ps"]
    return np.sort(times[chans == 0]), np.sort(times[chans == 1])


def synthesize_phi_scan(source: SourceParams, rng: np.random.Generator):
    """Noisy polarization scan of the cavity-rotated and QD line intensities."""
    phis = np.linspace(0.0, math.pi, _PHI_SCAN_ANGLES)
    points = []
    for phi in phis:
        clean = phi_scan_model(float(phi), source.kind, source, amp_cavity=1.0, amp_qd=1.0)
        factor_c = max(0.0, 1.0 + _PHI_SCAN_NOISE * rng.standard_normal())
        factor_q = max(0.0, 1.0 + _PHI_SCAN_NOISE * rng.standard_normal())
        points.append(
            type(clean)(
                phi_rad=clean.phi_rad,
                cavity_light=clean.cavity_light * factor_c,
                qd_light=clean.qd_light * factor_q,
            )
        )
    return points


def decay_trace_from_clicks(t0: np.ndarray, t1: np.ndarray, setup: SetupParams,
                            source: SourceParams) -> DecayTrace:
    """Fold detector clicks onto the pulse window and bin them.

    Each channel is folded ``_FOLD_BLOCK`` clicks at a time; histogram
    counts add, so the blocks change no count.
    """
    period = setup.rep_period_ps
    span = min(period, 12.0 * source.tau_ps + 400.0)
    n_bins = int(span / _TRACE_BIN_PS)
    grid = dict(bins=n_bins, range=(0.0, n_bins * _TRACE_BIN_PS))
    counts = np.zeros(n_bins, dtype=np.int64)
    for t in (t0, t1):
        for lo in range(0, t.size, _FOLD_BLOCK):
            counts += np.histogram(np.mod(t[lo:lo + _FOLD_BLOCK], period), **grid)[0]
    edges = np.histogram_bin_edges(np.empty(0), **grid)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return DecayTrace(t_ps=centers, counts=counts.astype(float), kind=source.kind)


#: The two trains of a source, in the order a source simulates them.
TRAINS = ("hbt", "hom")


def train_clicks(source: SourceParams, setup: SetupParams, seed: int, source_index: int,
                 n_pulses: int, train: str) -> tuple[np.ndarray, np.ndarray]:
    """Simulate and detect one train of one source: its two click streams.

    ``train`` is ``"hbt"`` or ``"hom"``.  The train's events are freed on
    return, so a caller that handles one train at a time holds one train's
    events or clicks, never both trains'.
    """
    streams = source_streams(seed, source_index)
    if train == "hbt":
        events = simulate_pulse_train(streams.hbt_events, source, setup, n_pulses)
        return hbt_streams(streams.hbt_clicks, events, setup)
    if train == "hom":
        events = simulate_pulse_train(streams.hom_events, source, setup, n_pulses)
        return hom_streams(streams.hom_clicks, events, setup, source.overlap)
    raise ValueError(f"train must be one of {TRAINS}, got {train!r}")


def analyze_source(
    source: SourceParams,
    setup: SetupParams,
    seed: int,
    source_index: int,
    n_pulses: int,
    options: PipelineOptions = PipelineOptions(),
    out_dir: str | None = None,
    header: str | None = None,
) -> SourceReport:
    """Simulate one source and recover all of its figures of merit.

    With ``out_dir`` set, the source's artifacts are written to
    ``out_dir/<label>/``, each file starting with ``header``.
    """
    period = setup.rep_period_ps
    max_delay = HISTOGRAM_PERIODS * period
    # The click streams that --save-clicks writes; the others are dropped
    # as soon as their train is analysed.
    saved = [] if out_dir is not None and options.save_clicks else None

    # HBT is analysed before the HOM train is simulated.
    t0, t1 = train_clicks(source, setup, seed, source_index, n_pulses, "hbt")
    hbt_hist = build_histogram(t0, t1, options.bin_width_ps, max_delay, period)
    g2 = g2_zero(hbt_hist, options.window_ps)
    trace = decay_trace_from_clicks(t0, t1, setup, source)
    n_clicks = t0.size + t1.size
    if saved is not None:
        saved += (t0, t1)
    del t0, t1
    fit = fit_decay(trace, irf_fwhm_ps=setup.jitter_fwhm_ps)

    t0, t1 = train_clicks(source, setup, seed, source_index, n_pulses, "hom")
    hom_hist = build_histogram(t0, t1, options.bin_width_ps, max_delay, period)
    if saved is not None:
        saved += (t0, t1)
    del t0, t1
    vis = hom_visibility(hom_hist, options.window_ps)
    overlap = corrected_overlap(vis.value, g2.value)
    overlap_err = math.hypot(
        vis.std_err / (1.0 - g2.value),
        (1.0 + vis.value) * g2.std_err / (1.0 - g2.value) ** 2,
    )

    phi_rng = source_streams(seed, source_index).phi_scan.generator()
    phi_points = synthesize_phi_scan(source, phi_rng)
    classification = classify_transition(phi_points)

    duration_s = n_pulses * period * 1e-12
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
        delta_fss_fit_uev=fit.params.get("delta_fss"),
        delta_fss_fit_err_uev=fit.std_errs.get("delta_fss"),
    )
    if out_dir is not None:
        _write_source_artifacts(out_dir, header, options, setup, report, fit, classification,
                                hbt_hist, hom_hist, trace, phi_points, saved)
    return report


def _write_source_artifacts(out_dir, header, options, setup, report, fit, classification,
                            hbt_hist, hom_hist, trace, phi_points, clicks):
    """Write a source's artifacts; ``clicks`` is (hbt0, hbt1, hom0, hom1) or None."""
    src_dir = os.path.join(out_dir, report.label)
    os.makedirs(src_dir, exist_ok=True)
    write_histogram(hbt_hist, os.path.join(src_dir, "hbt_histogram.csv"), header)
    write_histogram(hom_hist, os.path.join(src_dir, "hom_histogram.csv"), header)
    write_table(os.path.join(src_dir, "decay_trace.csv"), header, ("t_ps", "counts"),
                (trace.t_ps, trace.counts.astype(np.int64)),
                f"irf_fwhm_ps={float(setup.jitter_fwhm_ps)!r}")
    for name, payload in (("fit", fit), ("classification", classification), ("report", report)):
        write_json(os.path.join(src_dir, f"{name}.json"), payload.to_dict(), header)
    write_table(os.path.join(src_dir, "phi_scan.csv"), header,
                ("phi_rad", "cavity_light", "qd_light"),
                zip(*((p.phi_rad, p.cavity_light, p.qd_light) for p in phi_points)))

    if options.save_clicks:
        hbt0, hbt1, hom0, hom1 = clicks
        period = setup.rep_period_ps
        write_timestamps(os.path.join(src_dir, "hbt_clicks.csv"), hbt0, hbt1, header, period)
        write_timestamps(os.path.join(src_dir, "hom_clicks.csv"), hom0, hom1, header, period)


def run_pipeline(
    config: FleetConfig,
    n_pulses: int,
    seed: int,
    out_dir: str | None = None,
    threads: int = 1,
    options: PipelineOptions = PipelineOptions(),
) -> PipelineResult:
    """Simulate and analyze every source in the config.

    Sources run on a pool of ``threads`` threads (at least 1), and each
    source's artifacts are written by the thread that analysed it.  A source
    whose analysis or artifact writing raises is recorded as a failure, left
    out of the summary, and does not abort the rest of the fleet.
    Rerunning with identical (config, seed, n_pulses) reproduces identical
    analysis outputs regardless of ``threads``.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    header = file_header(seed, config.config_hash)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = {
            src.label: pool.submit(analyze_source, src, config.setup, seed, i, n_pulses, options,
                                   out_dir, header)
            for i, src in enumerate(config.sources)
        }
    reports: list[SourceReport] = []
    failures: dict[str, str] = {}
    for label, fut in futures.items():
        try:
            reports.append(fut.result())
        except Exception as exc:  # per-source isolation
            failures[label] = f"{type(exc).__name__}: {exc}"
    summary = aggregate_benchmark(reports) if reports else None

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        if reports:
            for fmt, name in (
                ("structured-json", "summary.json"),
                ("csv", "summary.csv"),
                ("table-text", "summary.txt"),
            ):
                emit_report(summary, reports, fmt, os.path.join(out_dir, name), header=header)
        if failures:
            write_json(os.path.join(out_dir, "failures.json"), failures, header)

    return PipelineResult(reports=reports, summary=summary, failures=failures)
