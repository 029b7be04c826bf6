"""Command-line front end.

Subcommands:
  simulate   write click-stream timestamp files for every source
  analyze    histogram + estimators from a timestamp file
  fit        decay-model fit of a trace file
  classify   exciton/trion decision from a polarization-scan file
  report     aggregate per-source reports into a fleet summary
  pipeline   simulate -> analyze -> fit -> classify -> report in one go

Exit codes: 0 success, 1 validation/usage error, 2 per-source partial
failure inside a pipeline run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .config import ConfigError, load_config
from .correlation import (
    build_histogram,
    corrected_overlap,
    g2_zero,
    hom_visibility,
    write_histogram,
)
from .dynamics import PhiScanPoint
from .inference import DecayTrace, classify_transition, fit_decay
from .model import TransitionKind
from .photon_sim import hbt_streams, hom_streams, simulate_pulse_train
from .pipeline import (
    HISTOGRAM_PERIODS,
    PipelineOptions,
    file_header,
    read_timestamps,
    run_pipeline,
    source_streams,
    write_timestamps,
)
from .report import aggregate_benchmark, emit_report, parse_reports_json


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=1, help="global RNG seed")
    p.add_argument("--pulses", type=int, default=1_000_000, help="excitation pulses per source")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--bin-width", type=float, default=100.0, help="histogram bin width (ps)")
    p.add_argument("--window", type=float, default=2000.0, help="peak integration half-window (ps)")


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    header = file_header(args.seed, config.config_hash)
    for index, source in enumerate(config.sources):
        streams = source_streams(args.seed, index)
        events = simulate_pulse_train(streams.hbt_events, source, config.setup, args.pulses)
        t0, t1 = hbt_streams(streams.hbt_clicks, events, config.setup)
        write_timestamps(os.path.join(args.out, f"{source.label}_hbt.csv"), t0, t1, header)
        events = simulate_pulse_train(streams.hom_events, source, config.setup, args.pulses)
        h0, h1 = hom_streams(streams.hom_clicks, events, config.setup, source.overlap)
        write_timestamps(os.path.join(args.out, f"{source.label}_hom.csv"), h0, h1, header)
        print(f"{source.label}: wrote HBT ({t0.size + t1.size} clicks) and "
              f"HOM ({h0.size + h1.size} clicks) streams")
    return 0


def _cmd_analyze(args) -> int:
    t0, t1 = read_timestamps(args.timestamps)
    period = 1e6 / args.rep_rate_mhz
    hist = build_histogram(t0, t1, args.bin_width, HISTOGRAM_PERIODS * period, period)
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.timestamps))[0]
    write_histogram(hist, os.path.join(args.out, f"{stem}_histogram.csv"),
                    meta={"seed": args.seed})
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
    out_path = os.path.join(args.out, f"{stem}_estimates.json")
    with open(out_path, "w") as f:
        json.dump(result, f, indent=2, sort_keys=True)
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _cmd_fit(args) -> int:
    # The column-name line is skipped like a comment.
    t, counts = np.loadtxt(args.trace, delimiter=",", comments=("#", "t_ps"), ndmin=2,
                           unpack=True)
    trace = DecayTrace(t, counts, TransitionKind(args.kind))
    fit = fit_decay(trace, irf_fwhm_ps=args.irf_fwhm)
    payload = {
        "params": fit.params,
        "std_errs": fit.std_errs,
        "reduced_chi2": fit.reduced_chi2,
        "converged": fit.converged,
        "n_iter": fit.n_iter,
    }
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "fit.json"), "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_classify(args) -> int:
    phi, cavity, qd = np.loadtxt(args.phiscan, delimiter=",", comments=("#", "phi"), ndmin=2,
                                 unpack=True)
    cls = classify_transition(list(map(PhiScanPoint, phi.tolist(), cavity.tolist(), qd.tolist())))
    payload = {
        "kind": cls.kind.value,
        "theta_est_deg": math.degrees(cls.theta_est_rad) if cls.theta_est_rad is not None else None,
        "modulation_depth": cls.modulation_depth,
        "score_exciton": cls.score_exciton,
        "score_trion": cls.score_trion,
    }
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "classification.json"), "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_report(args) -> int:
    with open(args.reports) as f:
        reports = parse_reports_json(f.read())
    summary = aggregate_benchmark(reports)
    os.makedirs(args.out, exist_ok=True)
    suffix = {"structured-json": "json", "csv": "csv", "table-text": "txt"}[args.format]
    path = os.path.join(args.out, f"summary.{suffix}")
    emit_report(summary, reports, args.format, path)
    with open(path) as f:
        print(f.read())
    return 0


def _cmd_pipeline(args) -> int:
    config = load_config(args.config)
    options = PipelineOptions(
        bin_width_ps=args.bin_width,
        window_ps=args.window,
        save_clicks=args.save_clicks,
    )
    result = run_pipeline(
        config, args.pulses, args.seed, out_dir=args.out, threads=args.threads, options=options
    )
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
    parser = argparse.ArgumentParser(prog="qdbench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write click-stream timestamp files")
    p.add_argument("--config", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="histogram + estimators from timestamps")
    p.add_argument("--timestamps", required=True)
    p.add_argument("--mode", choices=["hbt", "hom"], required=True)
    p.add_argument("--rep-rate-mhz", type=float, default=81.0)
    p.add_argument("--g2", type=float, default=None,
                   help="g2 value used to correct the HOM visibility")
    _add_common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("fit", help="fit a decay trace")
    p.add_argument("--trace", required=True, help="csv file with t_ps,counts")
    p.add_argument("--kind", choices=["exciton", "trion"], required=True)
    p.add_argument("--irf-fwhm", type=float, default=53.0)
    _add_common(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("classify", help="identify the transition from a phi scan")
    p.add_argument("--phiscan", required=True, help="csv file with phi_rad,cavity_light,qd_light")
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("report", help="aggregate source reports")
    p.add_argument("--reports", required=True, help="structured-json report file")
    p.add_argument("--format", choices=["table-text", "structured-json", "csv"],
                   default="table-text")
    _add_common(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("pipeline", help="full simulate/analyze/fit/classify/report run")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--save-clicks", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_pipeline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
