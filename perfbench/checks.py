"""Output checks of one batch job, from the files it wrote.

One operation is one source analysed by the pipeline, plus one click file
re-analysed by ``qdbench analyze`` in a round-trip workload.  A source
fails on a ``failures.json`` entry, a missing or non-finite estimate,
``converged = false`` in ``fit.json``, or a classified kind other than the
configured one.  A re-analysed file fails when its g2 (HBT) or raw
visibility V (HOM) is not exactly the pipeline's value.  A saved click file,
when checked, is one operation too: it fails unless it holds the provenance
header and then ``channel,time_ps`` rows of integers, with both channels
present and the rows sorted by time, then channel.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np


@dataclass
class JobCheck:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    bytes_written: int = 0
    pairs_moved: float = 0.0

    def fail(self, problem: str):
        self.failed += 1
        self.problems.append(problem)


def _load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def _finite_numbers(d: dict) -> bool:
    return all(math.isfinite(v) for v in d.values()
               if isinstance(v, (int, float)) and not isinstance(v, bool))


def _histogram(path) -> dict[str, int]:
    """bin_center_ps -> counts of a histogram csv."""
    out = {}
    with open(path) as f:
        for line in f:
            if line.startswith("#") or line.startswith("bin_center_ps"):
                continue
            center, counts = line.strip().split(",")
            out[center] = int(counts)
    return out


def _pairs_moved(a: dict[str, int], b: dict[str, int]) -> float:
    """Pairs binned differently by two histograms: half their L1 distance."""
    return 0.5 * sum(abs(a.get(k, 0) - b.get(k, 0)) for k in a.keys() | b.keys())


def _click_file_problem(path) -> str | None:
    """Why a saved click file is malformed, or None."""
    try:
        with open(path) as f:
            header = [f.readline(), f.readline()]
        rows = np.loadtxt(path, dtype=np.int64, delimiter=",", comments="#", ndmin=2)
    except (OSError, ValueError) as exc:
        return f"unreadable ({exc})"
    if not header[0].startswith("# qdbench ") or header[1] != "# channel,time_ps\n":
        return "missing header"
    if rows.shape[1] != 2:
        return f"{rows.shape[1]} columns"
    channel, time = rows[:, 0], rows[:, 1]
    if not (np.any(channel == 0) and np.any(channel == 1)) or np.any((channel != 0) & (channel != 1)):
        return "channels are not exactly {0, 1}"
    dt, dch = np.diff(time), np.diff(channel)
    if np.any((dt < 0) | ((dt == 0) & (dch < 0))):
        return "rows not sorted by time, then channel"
    return None


def digest(*roots: str) -> tuple[str, int]:
    """SHA-256 over every file under ``roots`` (relative path and bytes), and the byte total."""
    h = hashlib.sha256()
    total = 0
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, os.path.dirname(root)).encode() + b"\0")
                with open(path, "rb") as f:
                    data = f.read()
                h.update(len(data).to_bytes(8, "little") + data)
                total += len(data)
    return h.hexdigest(), total


def check_job(out: str, analysis: str | None, sources: list[tuple[str, str]],
              clicks: bool = False) -> JobCheck:
    """Check the artifacts of one job; ``analysis`` is None without re-analysis.

    With ``clicks`` the saved click files are checked as well.
    """
    check = JobCheck()
    failures = _load(os.path.join(out, "failures.json")) or {}
    for label, kind in sources:
        check.attempted += 1
        src = os.path.join(out, label)
        report = _load(os.path.join(src, "report.json"))
        fit = _load(os.path.join(src, "fit.json"))
        cls = _load(os.path.join(src, "classification.json"))
        if label in failures:
            check.fail(f"{label}: pipeline failure {failures[label]}")
        elif report is None or fit is None or cls is None:
            check.fail(f"{label}: missing report, fit or classification")
        elif not _finite_numbers(report):
            check.fail(f"{label}: non-finite estimate in report.json")
        elif fit.get("converged") is not True:
            check.fail(f"{label}: decay fit did not converge")
        elif cls.get("kind") != kind:
            check.fail(f"{label}: classified {cls.get('kind')}, configured {kind}")
    if clicks:
        for label, _ in sources:
            for mode in ("hbt", "hom"):
                check.attempted += 1
                problem = _click_file_problem(os.path.join(out, label, f"{mode}_clicks.csv"))
                if problem is not None:
                    check.fail(f"{label}: saved {mode} clicks: {problem}")
    if analysis is not None:
        for label, _ in sources:
            report = _load(os.path.join(out, label, "report.json")) or {}
            for mode, key in (("hbt", "g2"), ("hom", "v_raw")):
                check.attempted += 1
                name = f"{mode}_clicks"
                est = _load(os.path.join(analysis, label, f"{name}_estimates.json")) or {}
                if est.get(key) is None or est.get(key) != report.get(key):
                    check.fail(f"{label}: re-analysed {mode} {key} {est.get(key)!r} "
                               f"!= pipeline {report.get(key)!r}")
                try:
                    check.pairs_moved += _pairs_moved(
                        _histogram(os.path.join(out, label, f"{mode}_histogram.csv")),
                        _histogram(os.path.join(analysis, label, f"{name}_histogram.csv")))
                except (OSError, ValueError):
                    pass  # already counted as a failed re-analysis above
    roots = [out] + ([analysis] if analysis is not None else [])
    check.digest, check.bytes_written = digest(*roots)
    return check
