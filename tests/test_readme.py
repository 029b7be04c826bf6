"""The README's code examples run against the current package."""

import argparse
import pathlib
import re

from qdbench.cli import build_parser
from qdbench.config import _SETUP_KEYS, _SOURCE_KEYS, parse_config
from qdbench.model import SetupParams
from qdbench.photon_sim import CHUNK_PULSES, CHUNK_ROWS, STREAM_LAYOUT

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _block(section: str, language: str) -> str:
    text = README.read_text()
    body = text.split(f"## {section}\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(rf"```{language}\n(.*?)```", body, flags=re.DOTALL)
    assert len(blocks) == 1, f"expected one {language} block under '{section}'"
    return blocks[0]


def test_library_use_example_runs(capsys):
    exec(compile(_block("Library use", "python"), str(README), "exec"), {})
    assert "PeakEstimate(" in capsys.readouterr().out


def test_stream_layout_is_the_current_one():
    text = README.read_text()
    layouts = re.findall(r"`photon_sim\.STREAM_LAYOUT`, now (\d+)", text)
    assert layouts == [str(STREAM_LAYOUT)]
    assert f"Stream layout {STREAM_LAYOUT} fixes the draws" in text
    # The chunk sizes that the layout fixes.
    assert re.findall(r"(\d+)\s+\(`photon_sim\.CHUNK_PULSES`\)", text) == [str(CHUNK_PULSES)]
    assert re.findall(r"(\d+)\s+\(`photon_sim\.CHUNK_ROWS`\)", text) == [str(CHUNK_ROWS)]


def test_config_example_parses_and_names_every_key():
    text = _block("Config format", "ini")
    config = parse_config(text)
    assert config.setup == SetupParams()  # its [setup] says it lists the defaults
    keys = re.findall(r"^(\w+) =", text, flags=re.MULTILINE)
    assert sorted(keys) == sorted(_SETUP_KEYS + _SOURCE_KEYS)


def test_each_command_bullet_names_its_flags():
    # Every command takes --out, as the text before the bullets says.
    body = README.read_text().split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    bullets = dict(re.findall(r"^- `(\w+)`: (.*?)(?=^- |^$)", body, flags=re.M | re.S))
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(bullets) == sorted(sub.choices)
    for command, parser in sub.choices.items():
        flags = {flag for action in parser._actions for flag in action.option_strings
                 if flag.startswith("--")} - {"--out", "--help"}
        assert set(re.findall(r"`(--[a-z0-9-]+)`", bullets[command])) == flags, command
