"""Span tracing of qdbench's layers, from outside the package.

``Tracer.install`` replaces the module attributes that ``pipeline.py`` and
``cli.py`` call (``qdbench.pipeline.simulate_pulse_train``,
``qdbench.cli.run_pipeline``, ...) with wrappers that record one span per
call: name, layer, start, end, parent, thread and source label, plus counts
read from the call's arguments and result.  Nothing under ``src/`` changes,
and untraced jobs never import this module.

``layer_metrics`` turns the spans of one job into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict


def _nbytes(obj) -> int:
    return sum(v.nbytes for v in vars(obj).values() if hasattr(v, "nbytes"))


# (module, attribute, counts(bound arguments, result) -> dict or None).
# The layer of a span is the module that defines the wrapped function.
WRAP_POINTS = (
    ("qdbench.cli", "main", None),
    ("qdbench.cli", "load_config", None),
    ("qdbench.cli", "run_pipeline", lambda a, r: {"threads": a["threads"]}),
    ("qdbench.cli", "_cmd_analyze", None),
    ("qdbench.cli", "read_timestamps", lambda a, r: {"rows": sum(t.size for t in r)}),
    ("qdbench.cli", "build_histogram", lambda a, r: {"pairs": int(r.counts.sum())}),
    ("qdbench.cli", "g2_zero", None),
    ("qdbench.cli", "hom_visibility", None),
    ("qdbench.cli", "corrected_overlap", None),
    ("qdbench.pipeline", "analyze_source", None),
    ("qdbench.pipeline", "simulate_pulse_train",
     lambda a, r: {"pulses": a["n_pulses"], "events": len(r), "event_bytes": _nbytes(r)}),
    ("qdbench.pipeline", "hbt_streams", lambda a, r: {"clicks": sum(t.size for t in r)}),
    ("qdbench.pipeline", "hom_streams", lambda a, r: {"clicks": sum(t.size for t in r)}),
    ("qdbench.pipeline", "build_histogram", lambda a, r: {"pairs": int(r.counts.sum())}),
    ("qdbench.pipeline", "g2_zero", None),
    ("qdbench.pipeline", "hom_visibility", None),
    ("qdbench.pipeline", "corrected_overlap", None),
    ("qdbench.pipeline", "brightness_chain", None),
    ("qdbench.pipeline", "decay_trace_from_clicks", None),
    ("qdbench.pipeline", "fit_decay", lambda a, r: {"nonconverged": int(not r.converged)}),
    ("qdbench.pipeline", "synthesize_phi_scan", None),
    ("qdbench.pipeline", "classify_transition", None),
    ("qdbench.pipeline", "_write_source_artifacts", None),
    ("qdbench.pipeline", "write_timestamps", lambda a, r: {"rows": a["t0"].size + a["t1"].size}),
    ("qdbench.pipeline", "aggregate_benchmark", None),
    ("qdbench.pipeline", "emit_report", None),
    ("qdbench.inference", "levenberg_marquardt", lambda a, r: {"lm_iters": r.n_iter}),
)

LAYERS = ("photon_sim", "correlation", "inference", "leastsq", "pipeline", "report", "config",
          "cli")

# (name, unit, better), in the order they are printed.
PER_LAYER = (
    ("photon_sim.simulate_s", "s", "lower"),
    ("photon_sim.simulate_ns_per_pulse", "ns", "lower"),
    ("photon_sim.streams_s", "s", "lower"),
    ("photon_sim.events", "count", "lower"),
    ("photon_sim.clicks", "count", "lower"),
    ("photon_sim.click_yield", "ratio", "higher"),
    ("photon_sim.event_mib", "MiB", "lower"),
    ("correlation.histogram_s", "s", "lower"),
    ("correlation.pairs", "count", "lower"),
    ("correlation.ns_per_pair", "ns", "lower"),
    ("correlation.estimators_s", "s", "lower"),
    ("inference.fit_s", "s", "lower"),
    ("inference.lm_iters", "count", "lower"),
    ("inference.fit_nonconverged", "count", "lower"),
    ("inference.classify_s", "s", "lower"),
    ("pipeline.source_s_p50", "s", "lower"),
    ("pipeline.source_s_max", "s", "lower"),
    ("pipeline.pool_busy_frac", "ratio", "higher"),
    ("pipeline.serial_tail_s", "s", "lower"),
    ("pipeline.decay_trace_s", "s", "lower"),
    ("pipeline.phi_scan_s", "s", "lower"),
    ("pipeline.artifacts_s", "s", "lower"),
    ("pipeline.write_timestamps_s", "s", "lower"),
    ("pipeline.read_timestamps_s", "s", "lower"),
    ("pipeline.rows_written", "count", "lower"),
    ("pipeline.rows_read", "count", "lower"),
    ("pipeline.bytes_written", "B", "lower"),
    ("pipeline.reanalysis_pairs_moved", "count", "lower"),
    ("report.emit_s", "s", "lower"),
    ("config.load_s", "s", "lower"),
    ("cli.analyze_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    *((f"{layer}.self_share", "ratio", "lower") for layer in LAYERS),
)


class Tracer:
    """Records spans in memory; a thread-local stack gives each span its parent.

    A span opened on a pool thread with nothing open on that thread takes
    as parent the innermost span open on the installing thread, which is
    the call that started the pool.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._home = self._stack()

    def _stack(self) -> list[dict]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def install(self):
        """Wrap every entry of WRAP_POINTS; warn about any that is missing."""
        for module_name, attr, counts in WRAP_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                print(f"perfbench: trace point {module_name}.{attr} not found", file=sys.stderr)
                continue
            setattr(module, attr, self._wrap(fn, counts))

    def _wrap(self, fn, counts):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._home[-1] if self._home else None)
            if name == "pipeline.analyze_source":
                label = sig.bind(*args, **kwargs).arguments["source"].label
            else:
                label = parent["label"] if parent else None
            span = {"id": next(self._ids), "name": name, "layer": layer,
                    "parent": parent["id"] if parent else None,
                    "thread": threading.get_ident(), "label": label, "counts": {}}
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if counts is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = counts(bound.arguments, result)
            return result

        return wrapper


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cursor = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"]) - _covered(children[s["id"]], s["start"], s["end"])
            for s in spans}


def _under_busy_time(intervals, threads: int) -> float:
    """Time between the first start and the last end with fewer than ``threads`` running."""
    edges = sorted([(a, 1) for a, _ in intervals] + [(b, -1) for _, b in intervals])
    idle, running = 0.0, 0
    for (t, step), (t_next, _) in zip(edges, edges[1:]):
        running += step
        if running < threads:
            idle += t_next - t
    return idle


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced job (the program-side ones only)."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def busy(*names):
        return sum(s["end"] - s["start"] for n in names for s in by_name[n])

    def count(name, key):
        return sum(s["counts"].get(key, 0) for s in by_name[name])

    selfs = self_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer_self[s["layer"]] = layer_self.get(s["layer"], 0.0) + selfs[s["id"]]
    all_self = sum(layer_self.values())

    pulses = count("photon_sim.simulate_pulse_train", "pulses")
    events = count("photon_sim.simulate_pulse_train", "events")
    clicks = count("photon_sim.hbt_streams", "clicks") + count("photon_sim.hom_streams", "clicks")
    pairs = count("correlation.build_histogram", "pairs")
    simulate_s = busy("photon_sim.simulate_pulse_train")
    histogram_s = busy("correlation.build_histogram")

    sources = [(s["start"], s["end"]) for s in by_name["pipeline.analyze_source"]]
    source_s = [b - a for a, b in sources]
    runs = by_name["pipeline.run_pipeline"]
    threads = runs[0]["counts"].get("threads", 1) if runs else 1
    analysis_wall = (max(b for _, b in sources) - min(a for a, _ in sources)) if sources else 0.0

    m = {
        "photon_sim.simulate_s": simulate_s,
        "photon_sim.simulate_ns_per_pulse": simulate_s / pulses * 1e9 if pulses else 0.0,
        "photon_sim.streams_s": busy("photon_sim.hbt_streams", "photon_sim.hom_streams"),
        "photon_sim.events": events,
        "photon_sim.clicks": clicks,
        "photon_sim.click_yield": clicks / events if events else 0.0,
        "photon_sim.event_mib": count("photon_sim.simulate_pulse_train", "event_bytes") / 2**20,
        "correlation.histogram_s": histogram_s,
        "correlation.pairs": pairs,
        "correlation.ns_per_pair": histogram_s / pairs * 1e9 if pairs else 0.0,
        "correlation.estimators_s": busy("correlation.g2_zero", "correlation.hom_visibility",
                                         "correlation.corrected_overlap",
                                         "correlation.brightness_chain"),
        "inference.fit_s": busy("inference.fit_decay"),
        "inference.lm_iters": count("leastsq.levenberg_marquardt", "lm_iters"),
        "inference.fit_nonconverged": count("inference.fit_decay", "nonconverged"),
        "inference.classify_s": busy("inference.classify_transition"),
        "pipeline.source_s_p50": statistics.median(source_s) if source_s else 0.0,
        "pipeline.source_s_max": max(source_s, default=0.0),
        "pipeline.pool_busy_frac": (sum(source_s) / (threads * analysis_wall)
                                    if analysis_wall else 0.0),
        "pipeline.serial_tail_s": _under_busy_time(sources, threads),
        "pipeline.decay_trace_s": busy("pipeline.decay_trace_from_clicks"),
        "pipeline.phi_scan_s": busy("pipeline.synthesize_phi_scan"),
        "pipeline.artifacts_s": sum(selfs[s["id"]]
                                    for s in by_name["pipeline._write_source_artifacts"]),
        "pipeline.write_timestamps_s": busy("pipeline.write_timestamps"),
        "pipeline.read_timestamps_s": busy("pipeline.read_timestamps"),
        "pipeline.rows_written": count("pipeline.write_timestamps", "rows"),
        "pipeline.rows_read": count("pipeline.read_timestamps", "rows"),
        "report.emit_s": busy("report.emit_report"),
        "config.load_s": busy("config.load_config"),
        "cli.analyze_s": busy("cli._cmd_analyze"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
        m[f"{layer}.self_share"] = layer_self[layer] / all_self if all_self else 0.0
    return m
