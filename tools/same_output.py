"""Compare the CLI output of two srlab checkouts, command by command.

    python tools/same_output.py BASE [HEAD]

BASE and HEAD are checkout roots, each holding ``src/srlab``; HEAD
defaults to the checkout that holds this script.  Every command of
``COMMANDS`` runs as ``python -m srlab`` in one temporary directory, with
``SRLAB_THREADS=1`` and ``PYTHONPATH=<tree>/src``, once per tree.  That
directory holds ``d1.json`` and ``d2.json``: HEAD's contact3torus fixture
with the density ``2 + cos(x0)`` and with ``3 + cos(x0) + cos(x1)``;
``singular.json``, a frame singular at a lattice point (``SINGULAR``);
and ``notfat.json`` and ``notfat37.json``, two step-2 frames that are
not fat (``NOTFAT``, ``NOTFAT37``).
One line is printed per command whose stdout, stderr or exit code
differs, and the exit code is 1 if any command differs.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FIXTURES = [
    "heisenberg",
    "carnot-step2",
    "contact3torus",
    "engel",
    "martinet",
    "trivial",
    "integrable",
]

DENSITIES = {"d1.json": "2 + cos(x0)", "d2.json": "3 + cos(x0) + cos(x1)"}

# det F = cos(x0): singular on x0 = pi / 2, a point of the 4-point lattice
SINGULAR = {
    "name": "singular",
    "dim": 3,
    "periods": [6.283185307179586] * 3,
    "horizontal": [["1", "0", "0"], ["0", "cos(x0)", "sin(x0)"]],
    "complement": [["0", "0", "1"]],
}


def _step2(name, a, b):
    """A step-2 frame on the unit 6-torus with [X0, X1] = T0 + a T1 and
    [X2, X3] = T0 - b T1: M(lambda) is singular at lambda ~ (a, -1) and
    (b, 1), at neither basis covector."""
    return {
        "name": name,
        "dim": 6,
        "periods": [1.0] * 6,
        "horizontal": [
            ["1", "0", "0", "0", "-x1/2", "-%s*x1/2" % a],
            ["0", "1", "0", "0", "x0/2", "%s*x0/2" % a],
            ["0", "0", "1", "0", "-x3/2", "%s*x3/2" % b],
            ["0", "0", "0", "1", "x2/2", "-%s*x2/2" % b],
        ],
        "complement": [
            ["0", "0", "0", "0", "1", "0"],
            ["0", "0", "0", "0", "0", "1"],
        ],
    }


NOTFAT = _step2("notfat", "1", "1")
# a root where the rows of M(lambda) that vanish are rounding noise
NOTFAT37 = _step2("notfat37", "3.7", "1.3")

COMMANDS = (
    [("check", name) for name in FIXTURES]
    + [
        ("check", "carnot-step2", "--lattice", "4"),
        ("check", "engel", "--lattice", "3", "--samples", "7", "--seed", "3"),
        ("check", "martinet", "--samples", "5", "--seed", "9"),
        # the lattice on the read axes across block edges, and the parity answer
        ("check", "carnot-step2", "--lattice", "6"),
        ("check", "carnot-step2", "--lattice", "5", "--samples", "40", "--seed", "7"),
        ("check", "engel", "--lattice", "6"),
        ("check", "singular.json", "--lattice", "4"),
        ("check", "notfat.json"),
        ("check", "notfat37.json"),
    ]
    + [("canonicalize", name) for name in FIXTURES]
    + [("verify", name) for name in ("heisenberg", "carnot-step2", "engel", "martinet")]
    + [
        ("verify", "trivial", "-n", "4"),
        ("verify", "integrable", "-n", "4"),
        ("verify", "contact3torus", "-n", "8"),
        ("verify", "contact3torus", "-n", "4", "--samples", "11", "--seed", "5"),
        # a seed past 2^64: three 32-bit words of entropy
        ("verify", "contact3torus", "-n", "4", "--samples", "3", "--seed", "18446744073709551621"),
        ("verify", "d1.json", "-n", "8"),
        ("verify", "d2.json", "-n", "4"),
        ("spectrum", "contact3torus", "-n", "12", "--count", "6", "--eps", "2,4,8,16,32"),
        (
            "spectrum", "contact3torus", "-n", "12", "--count", "6", "--eps", "2,8",
            "--format", "json",
        ),
        ("spectrum", "trivial", "-n", "12", "--count", "30"),
        ("spectrum", "integrable", "-n", "10", "--count", "24", "--eps", "2,4"),
        ("spectrum", "d1.json", "-n", "8", "--count", "6", "--eps", "2,4"),
        ("spectrum", "d2.json", "-n", "12", "--count", "6", "--eps", "2,8", "--format", "json"),
        ("spectrum", "d2.json", "-n", "4", "--count", "4", "--eps", "2,4"),
        ("spectrum", "heisenberg", "-n", "4"),
        ("check", "trivial", "--seed", "-1"),
        ("spectrum", "contact3torus", "-n", "5"),
        ("verify", "contact3torus", "-n", "100"),
    ]
)


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


def differences(base, head, commands=COMMANDS):
    """One line per command whose output differs between the two trees."""
    fixture = Path(head) / "src" / "srlab" / "fixtures" / "contact3torus.json"
    lines = []
    with tempfile.TemporaryDirectory() as cwd:
        for name, density in DENSITIES.items():
            cfg = dict(json.loads(fixture.read_text()), density=density)
            (Path(cwd) / name).write_text(json.dumps(cfg))
        for cfg in (SINGULAR, NOTFAT, NOTFAT37):
            (Path(cwd) / (cfg["name"] + ".json")).write_text(json.dumps(cfg))
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
