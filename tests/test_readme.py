"""The README's examples run as written: every `specmt` line of the
"Command line" session in order, with the "Config file" example as
`sweep.cfg`, and the "Library use" block."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from specmt.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(heading: str, fence: str = "```") -> str:
    """The first fenced block after `heading`."""
    section = README[README.index(f"\n{heading}\n"):]
    return re.search(rf"^{re.escape(fence)}\n(.*?)^```$", section, re.M | re.S).group(1)


def test_command_line_session_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.cfg").write_text(fenced_block("### Config file"), encoding="utf-8")
    commands = [shlex.split(line) for line in fenced_block("## Command line").replace("\\\n", " ").splitlines()
                if line.strip() and not line.startswith("#")]
    assert len(commands) == 7 and all(argv[0] == "specmt" for argv in commands)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    assert "CHECK FAILED" not in capsys.readouterr().err


def test_library_use_runs():
    exec(compile(fenced_block("## Library use", "```python"), "README.md", "exec"), {})
