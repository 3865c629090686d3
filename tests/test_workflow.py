"""The CI workflow's own code, checked without running CI.

``.github/workflows/tests.yml`` is read as text (CI installs only the
``test`` extras, so there is no YAML parser).  Its commands and their
expectations live in the command table (``tools/commands.py``), which
one step runs with ``tools/bounds.py``: so no heredoc script remains, the
one ``python -c`` program must compile, and every literal ``srlab``
command line, and every row of the table, must parse with the CLI's own
parser.
"""

import re
import shlex
from pathlib import Path

import pytest

from commands import COMMANDS
from srlab.cli import build_parser

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
TEXT = WORKFLOW.read_text()


def srlab_command_lines():
    """The arguments of every literal ``srlab ...`` line, up to a redirect."""
    for line in TEXT.splitlines():
        match = re.search(r"(?:^|\s)srlab\s(.*)$", line)
        if match:
            args = shlex.split(match.group(1))
            yield args[: args.index(">")] if ">" in args else args


def test_no_heredoc_remains():
    assert "<<" not in TEXT
    assert "python tools/bounds.py" in TEXT


def test_python_c_programs_compile():
    programs = re.findall(r"python -c '([^']*)'", TEXT)
    assert len(programs) == 1
    for source in programs:
        compile(source, "<python -c>", "exec")


def test_srlab_command_lines_parse(capsys):
    commands = list(srlab_command_lines())
    assert commands == [["--help"], ["check", "heisenberg"]]
    parser = build_parser()
    with pytest.raises(SystemExit) as exit:
        parser.parse_args(commands[0])
    assert exit.value.code == 0
    parser.parse_args(commands[1])
    assert capsys.readouterr().err == ""


def test_command_table_rows_parse(capsys):
    parser = build_parser()
    for row in COMMANDS:
        parser.parse_args(list(row.argv))
    assert capsys.readouterr().err == ""
