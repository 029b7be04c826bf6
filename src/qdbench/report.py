"""Per-source reports and fleet-level benchmark summaries.

Aggregation uses the population standard-deviation convention (divide by
n); every emitted file states it in the header.  Output ordering is
always by source label so reruns are byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields

from .model import TransitionKind

STD_CONVENTION = "population (divide by n)"
#: The summary file of each report format.
SUMMARY_FILES = {"table-text": "summary.txt", "structured-json": "summary.json",
                 "csv": "summary.csv"}

#: Summarized per kind and overall; a trion's None splitting is left out of its statistics.
_METRICS = ("g2", "overlap_corrected", "first_lens_brightness", "wavelength_nm", "tau_fit_ps",
            "delta_fss_fit_uev")


@dataclass(frozen=True)
class SourceReport:
    """Figures of merit for one source, each with a symmetric error bar."""

    label: str
    kind: TransitionKind
    g2: float
    g2_err: float
    v_raw: float
    v_raw_err: float
    overlap_corrected: float
    overlap_err: float
    first_lens_brightness: float
    fibered_rate_cps: float
    tau_fit_ps: float
    tau_fit_err_ps: float
    wavelength_nm: float
    delta_fss_fit_uev: float | None = None
    delta_fss_fit_err_uev: float | None = None

    def __post_init__(self):
        for name in ("g2_err", "v_raw_err", "overlap_err", "tau_fit_err_ps",
                     "delta_fss_fit_err_uev"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.kind is TransitionKind.EXCITON and self.delta_fss_fit_uev is None:
            raise ValueError("exciton reports must carry delta_fss_fit_uev")
        if self.kind is TransitionKind.TRION and self.delta_fss_fit_uev is not None:
            raise ValueError("trion reports must not carry delta_fss_fit_uev")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["kind"] = self.kind.value
        return d

    @staticmethod
    def from_dict(d: dict) -> "SourceReport":
        """The inverse of :meth:`to_dict`.

        A missing or unknown field, or one of the wrong type, raises ``ValueError``.
        """
        if not isinstance(d, dict):
            raise ValueError(f"a source report must be a JSON object, got {d!r}")
        missing = [f.name for f in fields(SourceReport)
                   if f.default is MISSING and f.name not in d]
        unknown = sorted(d.keys() - {f.name for f in fields(SourceReport)})
        if missing or unknown:
            raise ValueError(f"source report {d.get('label')!r}: missing fields {missing}, "
                             f"unknown fields {unknown}")
        label = d["label"]
        if not isinstance(label, str):
            raise ValueError(f"a source report's label must be a string, got {label!r}")
        for f in fields(SourceReport):
            value = d.get(f.name)
            if f.name in ("label", "kind") or (value is None and f.default is None):
                continue  # TransitionKind checks the kind
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"source report {label!r}: {f.name} must be a number, "
                                 f"got {value!r}")
        d = dict(d)
        d["kind"] = TransitionKind(d["kind"])
        return SourceReport(**d)


@dataclass(frozen=True)
class MetricStats:
    mean: float
    std: float
    n: int


@dataclass(frozen=True)
class BenchmarkSummary:
    """Mean/std of each metric per source kind and over the whole fleet."""

    stats: dict
    counts: dict


def _population_stats(values) -> MetricStats:
    # Sorting makes the reduction order, and therefore the float result,
    # independent of the order reports were supplied in.
    vals = sorted(v for v in values if v is not None)
    n = len(vals)
    if n == 0:
        return MetricStats(mean=math.nan, std=math.nan, n=0)
    mean = sum(vals) / n
    var = sum((v - mean) ** 2 for v in vals) / n
    return MetricStats(mean=mean, std=math.sqrt(var), n=n)


def aggregate_benchmark(reports: list[SourceReport]) -> BenchmarkSummary:
    """Fleet statistics per kind and overall, for every reported metric."""
    if not reports:
        raise ValueError("cannot aggregate an empty report list")
    groups = {
        "exciton": [r for r in reports if r.kind is TransitionKind.EXCITON],
        "trion": [r for r in reports if r.kind is TransitionKind.TRION],
        "all": list(reports),
    }
    stats = {name: {metric: _population_stats(getattr(r, metric) for r in members)
                    for metric in _METRICS}
             for name, members in groups.items()}
    counts = {name: len(members) for name, members in groups.items()}
    return BenchmarkSummary(stats=stats, counts=counts)


def _sorted_reports(reports):
    return sorted(reports, key=lambda r: r.label)


_CSV_FIELDS = tuple(f.name for f in fields(SourceReport))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def render_report(
    summary: BenchmarkSummary,
    reports: list[SourceReport],
    fmt: str,
    header: str | None = None,
) -> str:
    """Render the fleet report in one of: table-text, structured-json, csv.

    ``header`` is the bare provenance line (``pipeline.file_header``).  Text
    formats start with it behind ``# ``, and JSON holds it as ``_header``;
    ``None`` writes neither.
    """
    reports = _sorted_reports(reports)
    if fmt == "structured-json":
        payload = {
            "std_convention": STD_CONVENTION,
            "counts": summary.counts,
            "stats": {
                g: {m: asdict(s) for m, s in metrics.items()}
                for g, metrics in summary.stats.items()
            },
            "sources": [r.to_dict() for r in reports],
        }
        if header is not None:
            payload["_header"] = header
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = [] if header is None else [f"# {header}"]
    if fmt == "csv":
        lines.append(",".join(_CSV_FIELDS))
        for r in reports:
            d = r.to_dict()
            lines.append(",".join(_csv_cell(d[field]) for field in _CSV_FIELDS))
        return "\n".join(lines) + "\n"
    if fmt == "table-text":
        lines.append(f"std convention: {STD_CONVENTION}")
        columns = (
            f"{'label':<10}{'kind':<9}{'g2':>9}{'V_raw':>9}{'M':>9}"
            f"{'B_lens':>9}{'tau_ps':>9}{'lambda_nm':>11}"
        )
        lines.append(columns)
        lines.append("-" * len(columns))
        for r in reports:
            lines.append(
                f"{r.label:<10}{r.kind.value:<9}{r.g2:>9.4f}{r.v_raw:>9.4f}"
                f"{r.overlap_corrected:>9.4f}{r.first_lens_brightness:>9.4f}"
                f"{r.tau_fit_ps:>9.1f}{r.wavelength_nm:>11.2f}"
            )
        lines.append("-" * len(columns))
        for group in ("exciton", "trion", "all"):
            st = summary.stats[group]
            lines.append(
                f"{group:<10}{'n=' + str(summary.counts[group]):<9}"
                f"{st['g2'].mean:>9.4f}{'':>9}{st['overlap_corrected'].mean:>9.4f}"
                f"{st['first_lens_brightness'].mean:>9.4f}{st['tau_fit_ps'].mean:>9.1f}"
                f"{st['wavelength_nm'].mean:>11.2f}"
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}; use table-text, structured-json or csv")


def emit_report(
    summary: BenchmarkSummary,
    reports: list[SourceReport],
    fmt: str,
    path,
    header: str | None = None,
):
    with open(path, "w") as f:
        f.write(render_report(summary, reports, fmt, header=header))


def parse_reports_json(text: str) -> tuple[list[SourceReport], str | None]:
    """The source reports of a structured-json report, and its header (None without one)."""
    payload = json.loads(text)
    if not isinstance(payload, dict) or not isinstance(payload.get("sources"), list):
        raise ValueError('a report file must be a JSON object with a "sources" list')
    return [SourceReport.from_dict(d) for d in payload["sources"]], payload.get("_header")
