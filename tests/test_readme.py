"""The README's code examples run against the current package."""

import pathlib
import re

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
