"""Command-line front end.

Subcommands:
  simulate   write click-stream timestamp files for every source
  analyze    histogram + estimators from a timestamp file
  fit        decay-model fit of a trace file
  classify   exciton/trion decision from a polarization-scan file
  report     aggregate per-source reports into a fleet summary
  pipeline   simulate -> analyze -> fit -> classify -> report in one go

Exit codes: 0 success, 1 validation/usage error or unreadable input file,
2 per-source partial failure inside a pipeline run.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys

from . import __version__
from .config import load_config
from .correlation import (
    BIN_WIDTH_PS,
    WINDOW_PS,
    build_histogram,
    corrected_overlap,
    g2_zero,
    hom_visibility,
)
from .dynamics import PhiScanPoint
from .inference import DecayTrace, classify_transition, fit_decay
from .model import TransitionKind
from .photon_sim import TRAINS
from .pipeline import (
    file_header,
    read_header,
    read_notes,
    read_rows,
    read_timestamps,
    run_pipeline,
    write_histogram,
    write_json,
    write_train_clicks,
)
from .report import SUMMARY_FILES, aggregate_benchmark, emit_report, parse_reports_json


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error; exit code 2 is kept for a partial pipeline failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_FLAGS = {
    "--seed": dict(type=int, default=1, help="global RNG seed"),
    "--pulses": dict(type=int, default=1_000_000, help="excitation pulses per source"),
    "--out": dict(required=True, help="output directory"),
}


def _add_flags(p: argparse.ArgumentParser, *names: str):
    for name in names:
        p.add_argument(name, **_FLAGS[name])


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    header = file_header(args.seed, config.config_hash)
    for index, source in enumerate(config.sources):
        counts = [
            write_train_clicks(os.path.join(args.out, f"{source.label}_{train}.csv"), source,
                               config.setup, args.seed, index, args.pulses, train, header)
            for train in TRAINS
        ]
        print(f"{source.label}: wrote HBT ({counts[0]} clicks) and "
              f"HOM ({counts[1]} clicks) streams")
    return 0


def _print_file(path):
    with open(path) as f:
        print(f.read())


def _write_result(out: str, name: str, payload: dict, header: str | None):
    """Write a re-analysis result as the JSON file ``out/name`` and print it."""
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, name)
    write_json(path, payload, header)
    _print_file(path)


def _setting(path, note: str, flag: str, given: float | None) -> float:
    """A run setting: the ``note`` that ``path`` records, or ``flag``'s value if it records none."""
    notes = read_notes(path)
    if note in notes and given is not None:
        raise ValueError(f"{path} records {note}; {flag} is only for files without it")
    if note not in notes and given is None:
        raise ValueError(f"{path} records no {note}; pass {flag}")
    return notes.get(note, given)


def _cmd_analyze(args) -> int:
    rate = args.rep_rate_mhz
    if rate is not None and not rate > 0:
        raise ValueError(f"--rep-rate-mhz must be > 0, got {rate}")
    period = _setting(args.timestamps, "rep_period_ps", "--rep-rate-mhz",
                      None if rate is None else 1e6 / rate)
    t0, t1 = read_timestamps(args.timestamps)
    header = read_header(args.timestamps)
    hist = build_histogram(t0, t1, args.bin_width, period)
    # Every estimate is made before anything is written, so a failed one writes nothing.
    result: dict = {"mode": args.mode}
    if args.mode == "hbt":
        g2 = g2_zero(hist, args.window)
        result.update(g2=g2.value, g2_err=g2.std_err, zero_area=g2.zero_area,
                      side_mean=g2.side_mean)
    else:
        vis = hom_visibility(hist, args.window)
        result.update(v_raw=vis.value, v_raw_err=vis.std_err, zero_area=vis.zero_area,
                      side_mean=vis.side_mean)
        if args.g2 is not None:
            m = corrected_overlap(vis.value, args.g2)
            result.update(overlap_corrected=m.value, overlap_clamped=m.clamped)
    stem = os.path.splitext(os.path.basename(args.timestamps))[0]
    _write_result(args.out, f"{stem}_estimates.json", result, header)
    write_histogram(hist, os.path.join(args.out, f"{stem}_histogram.csv"), header)
    return 0


def _columns(path, names: tuple[str, ...], column_line: str):
    """The columns of a table file; a file with another column count raises ``ValueError``."""
    # The column-name line, which starts with ``column_line``, is skipped like a comment.
    rows = read_rows(path, comments=("#", column_line), ndmin=2)
    if rows.shape[1] != len(names):
        raise ValueError(f"{path}: expected {len(names)} columns ({','.join(names)}), "
                         f"found {rows.shape[1]}")
    return rows.T


def _cmd_fit(args) -> int:
    t, counts = _columns(args.trace, ("t_ps", "counts"), "t_ps")
    irf_fwhm = _setting(args.trace, "irf_fwhm_ps", "--irf-fwhm", args.irf_fwhm)
    fit = fit_decay(DecayTrace(t, counts), TransitionKind(args.kind), irf_fwhm)
    _write_result(args.out, "fit.json", fit.to_dict(), read_header(args.trace))
    return 0


def _cmd_classify(args) -> int:
    phi, cavity, qd = _columns(args.phiscan, ("phi_rad", "cavity_light", "qd_light"), "phi")
    points = list(map(PhiScanPoint, phi.tolist(), cavity.tolist(), qd.tolist()))
    _write_result(args.out, "classification.json", classify_transition(points).to_dict(),
                  read_header(args.phiscan))
    return 0


def _cmd_report(args) -> int:
    with open(args.reports) as f:
        reports, header = parse_reports_json(f.read())
    summary = aggregate_benchmark(reports)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, SUMMARY_FILES[args.format])
    # The summary keeps the provenance of the run that wrote its input.
    emit_report(summary, reports, args.format, path, header=header)
    _print_file(path)
    return 0


def _cmd_pipeline(args) -> int:
    config = load_config(args.config)
    result = run_pipeline(config, args.pulses, args.seed, out_dir=args.out, threads=args.threads,
                          save_clicks=args.save_clicks)
    for report in result.reports:
        print(
            f"{report.label}: g2={report.g2:.4f}+-{report.g2_err:.4f} "
            f"V={report.v_raw:.4f} M={report.overlap_corrected:.4f} "
            f"B={report.first_lens_brightness:.4f} tau={report.tau_fit_ps:.1f} ps"
        )
    for label, msg in result.failures.items():
        print(f"{label}: FAILED ({msg})", file=sys.stderr)
    return 2 if result.failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qdbench", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write click-stream timestamp files")
    p.add_argument("--config", required=True)
    _add_flags(p, "--seed", "--pulses", "--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="histogram + estimators from timestamps")
    p.add_argument("--timestamps", required=True)
    p.add_argument("--mode", choices=["hbt", "hom"], required=True)
    p.add_argument("--rep-rate-mhz", type=float,
                   help="repetition rate, for a file without a rep_period_ps note")
    p.add_argument("--g2", type=float, default=None,
                   help="g2 value used to correct the HOM visibility")
    p.add_argument("--bin-width", type=float, default=BIN_WIDTH_PS, help="histogram bin width (ps)")
    p.add_argument("--window", type=float, default=WINDOW_PS,
                   help="peak integration half-window (ps)")
    p.add_argument("--seed", type=int, help="ignored: outputs carry the timestamp file's header")
    _add_flags(p, "--out")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("fit", help="fit a decay trace")
    p.add_argument("--trace", required=True, help="csv file with t_ps,counts")
    p.add_argument("--kind", choices=["exciton", "trion"], required=True)
    p.add_argument("--irf-fwhm", type=float,
                   help="IRF FWHM (ps), for a file without an irf_fwhm_ps note")
    _add_flags(p, "--out")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("classify", help="identify the transition from a phi scan")
    p.add_argument("--phiscan", required=True, help="csv file with phi_rad,cavity_light,qd_light")
    _add_flags(p, "--out")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("report", help="aggregate source reports")
    p.add_argument("--reports", required=True, help="structured-json report file")
    p.add_argument("--format", choices=list(SUMMARY_FILES), default="table-text")
    _add_flags(p, "--out")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("pipeline", help="full simulate/analyze/fit/classify/report run")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--save-clicks", action="store_true")
    _add_flags(p, "--seed", "--pulses", "--out")
    p.set_defaults(func=_cmd_pipeline)
    return parser


#: glibc ``mallopt`` parameters (malloc.h).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_blocks():
    """Let the C allocator keep freed blocks of up to a few MiB for reuse.

    A pipeline run allocates and frees each RNG chunk's events, clicks and
    temporaries in turn.  By default glibc hands such blocks back to the
    kernel once freed, so each chunk faults its pages in again: about 3e4
    minor faults and a tenth of the wall time of a default fleet run on two
    threads.  Without glibc's ``mallopt`` nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 16 << 20)


def main(argv=None) -> int:
    _keep_freed_blocks()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
