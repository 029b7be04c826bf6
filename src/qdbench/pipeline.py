"""End-to-end pipelines: simulate, analyze, fit, classify, report.

``photon_sim`` simulates each source from its own RNG streams, derived
from the global seed and its position in the config, so per-source work
can run on any number of threads with byte-identical results.  Of the
config, the analysis uses only the kind to fit and tau for the decay
trace's span.  Every command writes through this module's writers, and
reads through its readers.  A header is the bare line of
:func:`file_header` (version, seed, config hash, stream layout): text files
start with it behind ``# ``, JSON files hold it as ``_header``, and
``None`` writes neither.  A text file that must be read with a run setting
(a histogram's bin width and period, a click file's period, a decay
trace's IRF width) records it on a ``# key=value`` note line, which
:func:`read_notes` reads back.  Nothing time- or host-dependent is ever
written.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .config import FleetConfig
from .correlation import (
    BIN_WIDTH_PS,
    WINDOW_PS,
    PairCounter,
    brightness_chain,
    corrected_overlap,
    corrected_overlap_err,
    g2_zero,
    hom_visibility,
    integrate_peaks,
)
from .inference import DecayTrace, classify_transition, fit_decay
from .model import SetupParams, SourceParams
from .photon_sim import (STREAM_LAYOUT, TRAINS, check_pulses, detected_chunks,
                         synthesize_phi_scan)
from .report import SUMMARY_FILES, SourceReport, aggregate_benchmark, emit_report

#: Clicks folded at a time by :func:`_fold_decay`.
_FOLD_BLOCK = 1 << 16
_WRITE_BLOCK_ROWS = 1 << 16
#: Sorted int64 times in [_EDGES[i - 1], _EDGES[i]) share one sign and one
#: digit count, _RUN_LAYOUTS[i]; _RUN_WIDTHS[i] is the byte width of their rows.
_EDGES = np.concatenate([1 - 10 ** np.arange(18, 0, -1), [0], 10 ** np.arange(1, 19)])
_RUN_LAYOUTS = [(True, 19 - i) for i in range(19)] + [(False, d) for d in range(1, 20)]
_RUN_WIDTHS = np.array([3 + negative + digits for negative, digits in _RUN_LAYOUTS])
#: Bin width (ps) of the decay trace.
_TRACE_BIN_PS = 4.0


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


#: The run settings that :func:`read_notes` reads.
_NOTES = ("rep_period_ps", "irf_fwhm_ps", "bin_width_ps")


def read_notes(path) -> dict[str, float]:
    """The run settings on a text file's leading ``#`` lines, header excluded.

    Tables hold them on the note line after the header, and click files on
    the line after ``# channel,time_ps``; a hand-made file may hold none.
    Of the ``key=value`` tokens there, those not in ``_NOTES`` are ignored,
    and a setting whose value is not a number raises ``ValueError``.
    """
    notes = {}
    with open(path) as f:
        for line in f:
            if not line.startswith("#"):
                break
            if not line.startswith("# qdbench "):
                notes.update(token.split("=", 1) for token in line[1:].split() if "=" in token)
    settings = {}
    for key in _NOTES:
        if key in notes:
            try:
                settings[key] = float(notes[key])
            except ValueError:
                raise ValueError(f"{path}: note {key}={notes[key]} is not a number") from None
    return settings


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
        f.write("\n".join([*map(",".join, zip(*cells)), ""]))


@functools.lru_cache(maxsize=1)
def _delay_cells(bin_width_ps: float, bins: int) -> tuple[str, ...]:
    """The text of the delay column of a histogram of ``bins`` bins of ``bin_width_ps``.

    Every histogram of a run has the same delays, so they are formatted once.
    """
    return tuple(_cells((np.arange(bins) - bins // 2) * float(bin_width_ps)))


def write_histogram(hist, path, header: str | None):
    """Write a histogram's ``bin_center_ps,counts`` rows under its bin width and period."""
    _write_rows(path, header, ("bin_center_ps", "counts"),
                (_delay_cells(hist.bin_width_ps, hist.counts.size), _cells(hist.counts)),
                f"bin_width_ps={hist.bin_width_ps!r} rep_period_ps={hist.rep_period_ps!r}")


def write_json(path, payload: dict, header: str | None):
    """Write ``payload`` as indented JSON with sorted keys, ``header`` as ``_header``."""
    if header is not None:
        payload = {"_header": header, **payload}
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)


class _ClickWriter:
    """A click file, written one time-ordered block of its train at a time.

    Opening it writes the header, the ``# channel,time_ps`` line and a
    ``rep_period_ps=`` note.  :meth:`write` then appends a block of two
    sorted integer-picosecond click streams as rows sorted by time, then
    channel; clicks from pulse 0 can have negative times.  Blocks must
    follow each other in time with no time shared between two of them, as
    :func:`detected_chunks` yields them: then the rows of a train written
    block by block are the rows of its whole streams written as one block.
    Used as a context manager, the file is removed if the block raises, so
    no partial click file is left behind.
    """

    def __init__(self, path, header: str | None, rep_period_ps: float):
        self.path = path
        self.rows = 0
        self._file = open(path, "wb")
        self._file.write(f"{_comment(header)}# channel,time_ps\n"
                         f"# rep_period_ps={float(rep_period_ps)!r}\n".encode())

    def write(self, t0: np.ndarray, t1: np.ndarray):
        """Append one block's rows, ``_WRITE_BLOCK_ROWS`` formatted as one byte array at a time."""
        # Float times do not cast safely to int64 and raise a TypeError.
        times = np.concatenate([t0, t1], dtype=np.int64, casting="safe")
        # Each channel is sorted, so the stable sort is a linear merge that
        # puts channel 0 first on equal times.
        order = np.argsort(times, kind="stable")
        channel = (order >= t0.size).astype(np.uint8)
        times = times[order]
        del order
        for lo in range(0, times.size, _WRITE_BLOCK_ROWS):
            hi = lo + _WRITE_BLOCK_ROWS
            self._file.write(_format_rows(channel[lo:hi], times[lo:hi]))
        self.rows += times.size

    def __enter__(self) -> "_ClickWriter":
        return self

    def __exit__(self, exc_type, exc, tb):
        self._file.close()
        if exc_type is not None:
            os.remove(self.path)


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
        _put_digits(rows, width - 1, magnitude.astype(_digit_dtype(digits), copy=False), digits)
    return text


def _put_digits(rows: np.ndarray, end: int, values: np.ndarray, n: int):
    """Write ``values`` as ``n`` zero-padded decimal digits to ``rows[:, end - n:end]``.

    The digits are split in halves, and each half is narrowed to the
    narrowest unsigned type that fits before it is split again: narrow
    integer division is much cheaper, and narrow halves take less memory.
    """
    if n == 1:
        rows[:, end - 1] = values + ord("0")
        return
    k = n // 2
    high = values // 10**k
    low = high * 10**k
    np.subtract(values, low, out=low)
    low = low.astype(_digit_dtype(k), copy=False)
    high = high.astype(_digit_dtype(n - k), copy=False)
    _put_digits(rows, end, low, k)
    del low
    _put_digits(rows, end - k, high, n - k)


def _digit_dtype(n: int):
    """The narrowest integer type that holds every ``n``-digit value."""
    return np.uint8 if n <= 2 else np.uint16 if n <= 4 else np.uint32 if n <= 9 else np.int64


def read_rows(path, **loadtxt_args) -> np.ndarray:
    """``np.loadtxt`` of a comma-separated file; a file with no rows raises ``ValueError``."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        rows = np.loadtxt(path, delimiter=",", **loadtxt_args)
    if not rows.size:
        raise ValueError(f"{path} holds no rows")
    return rows


def read_timestamps(path):
    """Read a timestamp file back into per-channel sorted int64 ps arrays.

    A row that is not ``channel,time_ps`` with an integer channel and an
    integer time raises ``ValueError``; a decimal time is such a row, and
    so is a channel other than 0 and 1.  So does a file with no rows.
    """
    rows = read_rows(path, comments="#", ndmin=1,
                     dtype=[("channel", np.int64), ("time_ps", np.int64)])
    chans, times = rows["channel"], rows["time_ps"]
    stray = chans[(chans != 0) & (chans != 1)]
    if stray.size:
        raise ValueError(f"{path}: channel must be 0 or 1, got {stray[0]}")
    return np.sort(times[chans == 0]), np.sort(times[chans == 1])


def _trace_bins(period: float, tau_ps: float) -> int:
    """Bins of a decay trace: 4 ps each from the pulse on, over 12 tau + 400 ps or a period."""
    return int(min(period, 12.0 * tau_ps + 400.0) / _TRACE_BIN_PS)


def _fold_decay(counts: np.ndarray, t: np.ndarray, period: float):
    """Add clicks ``t``, folded onto the pulse period, to the decay-trace ``counts``.

    The bins are [4k, 4k + 4) ps, the last one closed: ``np.histogram``'s
    bins over (0, 4 * counts.size), whose edges are exact multiples of 4.
    Folded ``_FOLD_BLOCK`` clicks at a time; counts add, so the blocks
    change no count.
    """
    top = counts.size * _TRACE_BIN_PS
    for lo in range(0, t.size, _FOLD_BLOCK):
        x = np.mod(t[lo:lo + _FOLD_BLOCK], period)
        x = x[x <= top]
        x /= _TRACE_BIN_PS
        idx = x.astype(np.intp)
        np.minimum(idx, counts.size - 1, out=idx)
        counts += np.bincount(idx, minlength=counts.size)


def _decay_trace(counts: np.ndarray) -> DecayTrace:
    edges = np.linspace(0.0, counts.size * _TRACE_BIN_PS, counts.size + 1)
    return DecayTrace(t_ps=0.5 * (edges[:-1] + edges[1:]), counts=counts.astype(float))


class _TrainFold:
    """A train's accumulators, fed the train's time-ordered blocks (:func:`detected_chunks`).

    Each block is folded into the pair counts, the decay-trace counts (with
    ``trace_bins``) and the click count.
    """

    def __init__(self, period: float, trace_bins: int = 0):
        self.period = period
        self.pairs = PairCounter(BIN_WIDTH_PS, period)
        self.decay = np.zeros(trace_bins, dtype=np.int64)
        self.n_clicks = 0

    def fold(self, blocks, writer: _ClickWriter | None = None) -> "_TrainFold":
        """Fold every (t0, t1) block of a train, in order, and write it to ``writer`` if given."""
        for t0, t1 in blocks:
            self.pairs.add(t0, t1)
            if self.decay.size:
                _fold_decay(self.decay, t0, self.period)
                _fold_decay(self.decay, t1, self.period)
            self.n_clicks += t0.size + t1.size
            if writer is not None:
                writer.write(t0, t1)
            del t0, t1  # free the block before the next one is simulated
        return self


@contextlib.contextmanager
def _click_writers(src_dir: str | None, header: str | None, period: float):
    """A source's click-file writer per train in ``src_dir``, or None each if ``src_dir`` is None.

    The files are written while the source runs.  If it raises, every
    writer removes its file, and ``src_dir`` goes too if this made it and
    it is empty, so a failed source leaves no click file behind.
    """
    if src_dir is None:
        yield dict.fromkeys(TRAINS)
        return
    made = not os.path.isdir(src_dir)
    os.makedirs(src_dir, exist_ok=True)
    try:
        with contextlib.ExitStack() as stack:
            yield {train: stack.enter_context(_ClickWriter(
                os.path.join(src_dir, f"{train}_clicks.csv"), header, period)) for train in TRAINS}
    except BaseException:
        if made:
            with contextlib.suppress(OSError):
                os.rmdir(src_dir)
        raise


def write_train_clicks(path, source: SourceParams, setup: SetupParams, seed: int,
                       source_index: int, n_pulses: int, train: str,
                       header: str | None) -> int:
    """Simulate and detect one train of one source into the click file ``path``.

    The train is written one time-ordered block at a time, so it holds one
    chunk's events and clicks whatever its length.  Returns its click count.
    """
    blocks = detected_chunks(seed, source_index, source, setup, n_pulses, train)
    with _ClickWriter(path, header, setup.rep_period_ps) as writer:
        for t0, t1 in blocks:
            writer.write(t0, t1)
            del t0, t1  # free the block before the next one is simulated
    return writer.rows


def analyze_source(
    source: SourceParams,
    setup: SetupParams,
    seed: int,
    source_index: int,
    n_pulses: int,
    out_dir: str | None = None,
    header: str | None = None,
    save_clicks: bool = False,
) -> SourceReport:
    """Simulate one source and recover all of its figures of merit.

    Each train is simulated, detected and folded one RNG chunk at a time,
    so a source holds one chunk's events and clicks whatever the pulse
    count.  With ``out_dir`` set, the source's artifacts are written to
    ``out_dir/<label>/``, each file starting with ``header``; with
    ``save_clicks``, which needs ``out_dir``, each train's click file is
    written there block by block as the train is folded, and removed if
    the source fails.
    """
    period = setup.rep_period_ps
    save_dir = os.path.join(out_dir, source.label) if save_clicks else None

    with _click_writers(save_dir, header, period) as writers:
        # HBT is analysed before the HOM train is simulated.
        hbt = _TrainFold(period, _trace_bins(period, source.tau_ps)).fold(
            detected_chunks(seed, source_index, source, setup, n_pulses, "hbt"), writers["hbt"])
        hbt_hist = hbt.pairs.histogram()
        g2 = g2_zero(hbt_hist)
        trace = _decay_trace(hbt.decay)
        fit = fit_decay(trace, source.kind, setup.jitter_fwhm_ps)

        hom = _TrainFold(period).fold(
            detected_chunks(seed, source_index, source, setup, n_pulses, "hom"), writers["hom"])
        hom_hist = hom.pairs.histogram()
        vis = hom_visibility(hom_hist)
        overlap = corrected_overlap(vis.value, g2.value)

        phi_points = synthesize_phi_scan(seed, source_index, source)
        classification = classify_transition(phi_points)

        duration_s = n_pulses * period * 1e-12
        detected_rate = hbt.n_clicks / duration_s
        chain = brightness_chain(detected_rate, setup)

        report = SourceReport(
            label=source.label,
            kind=source.kind,
            g2=g2.value,
            g2_err=g2.std_err,
            v_raw=vis.value,
            v_raw_err=vis.std_err,
            overlap_corrected=overlap.value,
            overlap_err=corrected_overlap_err(vis, g2),
            first_lens_brightness=chain.first_lens_brightness,
            fibered_rate_cps=chain.fibered_rate_cps,
            tau_fit_ps=fit.params["tau"],
            tau_fit_err_ps=fit.std_errs["tau"],
            wavelength_nm=source.wavelength_nm,
            delta_fss_fit_uev=fit.params.get("delta_fss"),
            delta_fss_fit_err_uev=fit.std_errs.get("delta_fss"),
        )
        if out_dir is not None:
            _write_source_artifacts(out_dir, header, setup, report, fit, classification,
                                    hbt_hist, hom_hist, trace, phi_points)
    return report


def _write_source_artifacts(out_dir, header, setup, report, fit, classification,
                            hbt_hist, hom_hist, trace, phi_points):
    """Write a source's artifacts other than its click files."""
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


def run_pipeline(
    config: FleetConfig,
    n_pulses: int,
    seed: int,
    out_dir: str | None = None,
    threads: int = 1,
    save_clicks: bool = False,
) -> PipelineResult:
    """Simulate and analyze every source in the config.

    Sources run on a pool of ``threads`` threads (at least 1), and each
    source's artifacts are written by the thread that analysed it.  A source
    whose analysis or artifact writing raises is recorded as a failure, left
    out of the summary, and does not abort the rest of the fleet.
    Rerunning with identical (config, seed, n_pulses) reproduces identical
    analysis outputs regardless of ``threads``.  With ``save_clicks`` each
    source's click files are written to ``out_dir/<label>/`` too.  A run-wide
    setting that cannot work (``threads`` or ``n_pulses`` below 1,
    ``save_clicks`` without ``out_dir``, or a repetition period that does not
    fit the analysis grid) raises ``ValueError`` once, before any source runs.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if save_clicks and out_dir is None:
        raise ValueError("save_clicks needs an out_dir to write the click files to")
    check_pulses(n_pulses)
    # An empty histogram of the run: PairCounter checks the grid, and
    # integrate_peaks the window, against the config's period.
    integrate_peaks(PairCounter(BIN_WIDTH_PS, config.setup.rep_period_ps).histogram(),
                    WINDOW_PS, ())
    header = file_header(seed, config.config_hash)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = {
            src.label: pool.submit(analyze_source, src, config.setup, seed, i, n_pulses, out_dir,
                                   header, save_clicks)
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
            for fmt, name in SUMMARY_FILES.items():
                emit_report(summary, reports, fmt, os.path.join(out_dir, name), header=header)
        if failures:
            write_json(os.path.join(out_dir, "failures.json"), failures, header)

    return PipelineResult(reports=reports, summary=summary, failures=failures)
