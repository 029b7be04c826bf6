"""The experiment scripts run end to end at a small size."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import qdbench

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
SRC = pathlib.Path(qdbench.__file__).resolve().parent.parent
PERFBENCH = SCRIPTS.parent / "perfbench"
#: script -> (JSON output, {key: rows that key must hold}).
ROWS = {
    "peak_memory.py": ("peak_memory.json", {
        "tracemalloc_peak_mib": {"default_1e7", "default_1e8", "lossless_4e6", "lossless_1e8",
                                 "save_clicks_default_1.6e7", "save_clicks_lossless_2e6"},
        "simulate_tracemalloc_peak_mib": {"simulate_default_2e6", "simulate_default_1.6e7"},
        "ru_maxrss": {"fleet_default", "fleet_lossless", "clicks_save"},
    }),
    "thread_scaling.py": ("thread_scaling.json", {"runs": {"1", "2"}, "median": {"1", "2"},
                                                  "process_median": {"wall_s", "cpu_s"}}),
}


@pytest.mark.parametrize("script, args, outputs", [
    ("s7_characterization.py", ["--pulses", "200000"],
     ["S7/fit.json", "S7/report.json", "summary.json"]),
    ("fleet_benchmark.py", ["--pulses", "200000", "--threads", "2"],
     ["fleet.cfg", "summary.csv", "X01/report.json", "T01/report.json"]),
    ("phi_scan_identification.py", [], ["S5-like_scan.csv", "S13-like_scan.csv"]),
    ("peak_memory.py", ["--scale", "0.01", "--repeats", "1"], ["peak_memory.json"]),
    ("thread_scaling.py", ["--pulses", "200000", "--repeats", "1"], ["thread_scaling.json"]),
])
def test_script_runs(tmp_path, script, args, outputs):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args, "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        assert (tmp_path / name).exists(), name
    if script in ROWS:
        name, rows = ROWS[script]
        result = json.loads((tmp_path / name).read_text())
        for key, names in rows.items():
            assert set(result[key]) == names, key
        if script == "thread_scaling.py":
            assert result["speedup"] > 0 and result["process_speedup"] > 0


def _load_perfbench_run():
    """perfbench's ``run`` module, loaded by path; sys.path is restored after its imports."""
    path = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


PERFBENCH_RUN = _load_perfbench_run()


@pytest.mark.parametrize("workload", sorted(PERFBENCH_RUN.WORKLOADS))
def test_benchmark_job_passes_its_checks(tmp_path, workload):
    # One job of each benchmark workload, run and checked as the benchmark
    # does.  At 5e4 pulses fleet_default's X01 has no decay signal, so the
    # jobs run 2e5.  clicks_roundtrip is traced, and it passes
    # `qdbench analyze --seed`.
    _, check = PERFBENCH_RUN.run_job(workload, 1, PERFBENCH_RUN.FLEET_SEED, 200_000,
                                     str(tmp_path / "job"), trace=workload == "clicks_roundtrip")
    assert check.attempted > 0
    assert check.failed == 0, check.problems


#: The wrap points of perfbench's tracer that name no attribute of the package,
#: so their spans, and the per-layer metrics read from them, are never recorded.
#: ROADMAP Y empties this set.
BLIND_WRAP_POINTS = {("qdbench.pipeline", name) for name in (
    "simulate_pulse_train", "hbt_streams", "hom_streams", "build_histogram",
    "decay_trace_from_clicks", "write_timestamps")}


def test_perfbench_tracer_is_blind_only_where_known():
    # The tracer skips a wrap point it cannot resolve with a warning, so a
    # rename in the package blinds a per-layer metric without failing a run.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    blind = {(module, attr) for module, attr, _ in tracing.WRAP_POINTS
             if not hasattr(importlib.import_module(module), attr)}
    assert blind == BLIND_WRAP_POINTS
