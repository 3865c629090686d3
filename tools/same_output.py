"""Compare the CLI output of two srlab checkouts, command by command.

    python tools/same_output.py BASE [HEAD]

BASE and HEAD are checkout roots, each holding ``src/srlab``; HEAD
defaults to the checkout that holds this script.  Every row of the
command table (``tools/commands.py``) runs as ``python -m srlab`` in one
temporary directory, with ``SRLAB_THREADS=1`` and
``PYTHONPATH=<tree>/src``, once per tree.  That directory holds the
table's scratch configs, built from HEAD's bundled fixtures.
One line is printed per command whose stdout, stderr or exit code
differs, and the exit code is 1 if any command differs.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

from commands import COMMANDS, write_configs


def run(tree, command, cwd):
    """(stdout, stderr, exit code) of ``python -m srlab *command`` on ``tree``."""
    env = dict(os.environ, SRLAB_THREADS="1", PYTHONPATH=str(Path(tree) / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "srlab", *command],
        cwd=cwd,
        env=env,
        capture_output=True,
    )
    return done.stdout, done.stderr, done.returncode


def differences(base, head, commands=tuple(row.argv for row in COMMANDS)):
    """One line per command whose output differs between the two trees."""
    lines = []
    with tempfile.TemporaryDirectory() as cwd:
        write_configs(cwd, Path(head) / "src" / "srlab" / "fixtures")
        for command in commands:
            a, b = run(base, command, cwd), run(head, command, cwd)
            parts = [
                part
                for part, x, y in zip(("stdout", "stderr", "exit code"), a, b)
                if x != y
            ]
            if parts:
                lines.append("%s: %s differs" % (" ".join(command), ", ".join(parts)))
    return lines


def main(argv):
    if not 1 <= len(argv) <= 2:
        sys.stderr.write("usage: same_output.py BASE [HEAD]\n")
        return 2
    base = argv[0]
    head = argv[1] if len(argv) == 2 else Path(__file__).resolve().parents[1]
    lines = differences(base, head)
    for line in lines:
        print(line)
    print("%d of %d commands differ" % (len(lines), len(COMMANDS)))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
