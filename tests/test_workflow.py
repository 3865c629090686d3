"""The CI workflow's own code, checked without running CI.

``.github/workflows/tests.yml`` is read as text (CI installs only the
``test`` extras, so there is no YAML parser): its heredoc Python scripts
and ``python -c`` programs must compile, and every literal ``srlab``
command line must parse with the CLI's own parser.
"""

import re
import shlex
import textwrap
from pathlib import Path

import pytest

from srlab.cli import build_parser

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
LINES = WORKFLOW.read_text().splitlines()


def heredoc_scripts():
    """{file name: source} of every ``cat > ".../NAME" <<'EOF'`` script."""
    scripts = {}
    for i, line in enumerate(LINES):
        head = re.search(r"""cat > "\$RUNNER_TEMP/([\w.]+)" <<'EOF'$""", line)
        if head:
            end = next(j for j in range(i + 1, len(LINES)) if LINES[j].strip() == "EOF")
            scripts[head.group(1)] = textwrap.dedent("\n".join(LINES[i + 1 : end]))
    return scripts


def srlab_command_lines():
    """The arguments of every literal ``srlab ...`` line, up to a redirect;
    lines the shell builds (``$cmd``) are left out."""
    for line in LINES:
        match = re.search(r"(?:^|\s)srlab\s(.*)$", line)
        if match and "$cmd" not in line:
            args = shlex.split(match.group(1))
            yield args[: args.index(">")] if ">" in args else args


def test_heredoc_scripts_compile():
    scripts = heredoc_scripts()
    assert sorted(scripts) == ["csv_rows.py", "maxrss.py", "probe.py"]
    for name, source in scripts.items():
        compile(source, name, "exec")


def test_python_c_programs_compile():
    programs = re.findall(r"python -c '([^']*)'", WORKFLOW.read_text())
    assert len(programs) == 7
    for source in programs:
        compile(source, "<python -c>", "exec")


def test_srlab_command_lines_parse(capsys):
    commands = list(srlab_command_lines())
    assert {args[0] for args in commands} == {"--help", "check", "spectrum", "verify"}
    parser = build_parser()
    for args in commands:
        if args == ["--help"]:
            with pytest.raises(SystemExit) as exit:
                parser.parse_args(args)
            assert exit.value.code == 0
        else:
            parser.parse_args(args)
    assert capsys.readouterr().err == ""
