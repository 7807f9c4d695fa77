"""README's library example and CLI transcripts, run as written."""

import io
import pathlib
import re

import pytest

from drinheights import cli

README = (pathlib.Path(__file__).parent.parent / "README.md").read_text()

# a ```sh block holding `$ echo '<job>' | drinheights <cmd> -` and its output
TRANSCRIPT = re.compile(
    r"```sh\n\$ echo '(?P<job>.*?)' \| drinheights (?P<cmd>[\w-]+) -\n"
    r"(?P<out>.*?)```", re.S)
TRANSCRIPTS = {m.group("cmd"): m for m in TRANSCRIPT.finditer(README)}


def test_readme_python_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


@pytest.mark.parametrize("cmd", ["height", "torsion"])
def test_readme_cli_transcript(cmd, capsys, monkeypatch):
    m = TRANSCRIPTS[cmd]
    monkeypatch.setattr("sys.stdin", io.StringIO(m.group("job")))
    assert cli.main([cmd, "-"]) == 0
    assert capsys.readouterr().out == m.group("out")
