"""The README's code examples run against the current package."""

import pathlib
import re

from qdbench.photon_sim import STREAM_LAYOUT

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _python_block(section: str) -> str:
    text = README.read_text()
    body = text.split(f"## {section}\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", body, flags=re.DOTALL)
    assert len(blocks) == 1, f"expected one python block under '{section}'"
    return blocks[0]


def test_library_use_example_runs(capsys):
    exec(compile(_python_block("Library use"), str(README), "exec"), {})
    assert "G2Result(" in capsys.readouterr().out


def test_stream_layout_is_the_current_one():
    layouts = re.findall(r"`photon_sim\.STREAM_LAYOUT`, now (\d+)", README.read_text())
    assert layouts == [str(STREAM_LAYOUT)]
