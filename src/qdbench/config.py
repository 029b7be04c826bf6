"""Fleet configuration files: flat key-value text with per-source sections.

Format example::

    [setup]
    rep_rate_mhz = 81
    eta_setup = 0.40
    eta_det = 0.30

    [source:S7]
    kind = exciton
    tau_ps = 252.0
    delta_fss_uev = 8.58
    theta_deg = 45.0
    brightness_first_lens = 0.136
    p_two_photon = 0.0002

The ``[setup]`` keys are the fields of :class:`SetupParams` and default
to its field defaults.  A source needs ``kind`` and ``tau_ps``, and an
exciton also ``delta_fss_uev`` and ``theta_deg``; its other keys are the
remaining fields of :class:`SourceParams` and default to theirs.  Unknown
keys are rejected with their line number; all validation problems across
the whole file are aggregated into one error.

The records check their own values and the parser collects their errors;
:class:`FleetConfig` holds the fleet rules, at least one source and every
label a unique plain name, for a parsed config and one built in memory.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, fields

from .model import SetupParams, SourceParams, SourceValidationError, TransitionKind

_LABEL = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")
_SETUP_KEYS = tuple(f.name for f in fields(SetupParams))
_EXCITON_KEYS = ("delta_fss_uev", "theta_deg")
#: Every SourceParams field but the label, which names the section.
_SOURCE_KEYS = tuple(f.name for f in fields(SourceParams) if f.name != "label")


class ConfigError(ValueError):
    """All parse and validation problems of one config, line-tagged."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


def _fleet_violations(labels) -> list[str]:
    """The fleet rules over ``(where, label)`` pairs: a source at all, each label a unique plain name.

    A label names the source's artifact directory and its ``[source:...]``
    header, so it holds no path separator, comment or bracket.
    """
    if not labels:
        return ["config defines no [source:...] sections"]
    errs, seen = [], set()
    for where, label in labels:
        if not label:
            errs.append(f"{where}: source section needs a label, e.g. [source:S1]")
        elif not _LABEL.fullmatch(label):
            errs.append(f"{where}: source label {label!r} must match {_LABEL.pattern}")
        elif label in seen:
            errs.append(f"{where}: duplicate source label {label!r}")
        seen.add(label)
    return errs


@dataclass(frozen=True)
class FleetConfig:
    """A fleet's sources and setup; building one with a broken fleet rule raises ``ConfigError``."""

    sources: tuple[SourceParams, ...]
    setup: SetupParams
    config_hash: str

    def __post_init__(self):
        errs = _fleet_violations([(f"source {i}", s.label)
                                  for i, s in enumerate(self.sources, start=1)])
        if errs:
            raise ConfigError(errs)

    @staticmethod
    def from_parts(sources, setup: SetupParams) -> "FleetConfig":
        src = tuple(sources)
        return FleetConfig(src, setup, _hash_canonical(src, setup))


def _hash_canonical(sources, setup: SetupParams) -> str:
    """Hash a canonical text dump so files and in-memory configs agree."""
    return hashlib.sha256(dump_config(sources, setup).encode()).hexdigest()[:16]


def dump_config(sources, setup: SetupParams) -> str:
    lines = ["[setup]"]
    for key in _SETUP_KEYS:
        lines.append(f"{key} = {getattr(setup, key)!r}")
    for s in sources:
        lines.append("")
        lines.append(f"[source:{s.label}]")
        lines.append(f"kind = {s.kind.value}")
        for key in _SOURCE_KEYS[1:]:
            value = getattr(s, key)
            if value is not None:  # a trion's exciton keys
                lines.append(f"{key} = {value!r}")
    return "\n".join(lines) + "\n"


def _parse_sections(text: str, errors: list[str]):
    sections: list[tuple[str, int, dict[str, tuple[str, int]]]] = []
    current: dict[str, tuple[str, int]] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                errors.append(f"line {lineno}: unterminated section header {raw.strip()!r}")
                current = None
                continue
            name = line[1:-1].strip()
            current = {}
            sections.append((name, lineno, current))
            continue
        if "=" not in line:
            col = len(raw) - len(raw.lstrip()) + 1
            errors.append(f"line {lineno}, col {col}: expected 'key = value', got {raw.strip()!r}")
            continue
        if current is None:
            errors.append(f"line {lineno}: key outside of any [section]")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key in current:
            errors.append(f"line {lineno}: duplicate key {key!r}")
        current[key] = (value, lineno)
    return sections


def _number(key, value, lineno, errors):
    try:
        return float(value)
    except ValueError:
        errors.append(f"line {lineno}: {key} must be a number, got {value!r}")
        return None


def _build_setup(entries, errors) -> SetupParams | None:
    kwargs = {}
    for key, (value, lineno) in entries.items():
        if key not in _SETUP_KEYS:
            errors.append(f"line {lineno}: unknown setup key {key!r}")
            continue
        v = _number(key, value, lineno, errors)
        if v is not None:
            kwargs[key] = v
    try:
        return SetupParams(**kwargs)
    except SourceValidationError as exc:
        errors.extend(exc.errors)
        return None


def _build_source(label, header_line, entries, errors) -> SourceParams | None:
    values = {}
    for key, (value, lineno) in entries.items():
        if key not in _SOURCE_KEYS:
            errors.append(f"line {lineno}: unknown source key {key!r}")
            continue
        v = value if key == "kind" else _number(key, value, lineno, errors)
        if v is not None:
            values[key] = v
    kind_text = values.get("kind", "").lower()
    required = ["kind", "tau_ps", *(_EXCITON_KEYS if kind_text == "exciton" else ())]
    missing = [k for k in required if k not in values]
    if missing:
        errors.append(f"line {header_line}: source {label!r} missing required keys {missing}")
        return None
    if kind_text not in ("exciton", "trion"):
        errors.append(f"line {entries['kind'][1]}: kind must be 'exciton' or 'trion', "
                      f"got {values['kind']!r}")
        return None
    kind = TransitionKind(kind_text)
    del values["kind"]
    if kind is TransitionKind.TRION:
        for key in _EXCITON_KEYS:
            if key in entries:
                errors.append(f"line {entries[key][1]}: {key} is not valid for a trion source")
                values.pop(key, None)
    try:
        return SourceParams(kind, label=label, **values)
    except SourceValidationError as exc:
        errors.extend(exc.errors)
        return None


def parse_config(text: str) -> FleetConfig:
    errors: list[str] = []
    sections = _parse_sections(text, errors)

    setup_entries: dict = {}
    source_sections = []
    for name, lineno, entries in sections:
        if name == "setup":
            setup_entries.update(entries)
        elif name.startswith("source:"):
            source_sections.append((name.split(":", 1)[1].strip(), lineno, entries))
        else:
            errors.append(f"line {lineno}: unknown section [{name}]")

    setup = _build_setup(setup_entries, errors)
    sources = [_build_source(label, lineno, entries, errors)
               for label, lineno, entries in source_sections]
    # FleetConfig's rules, over every section's label, its source valid or
    # not, so that one broken source does not hide a duplicate label.
    errors.extend(_fleet_violations([(f"line {lineno}", label)
                                     for label, lineno, _ in source_sections]))
    if errors:
        raise ConfigError(errors)
    return FleetConfig.from_parts(sources, setup)


def load_config(path) -> FleetConfig:
    """Parse and fully validate a fleet configuration file."""
    with open(path) as f:
        return parse_config(f.read())


def write_config(config: FleetConfig, path):
    with open(path, "w") as f:
        f.write(dump_config(config.sources, config.setup))
