"""Every srlab command run with an expectation, and the scratch configs
they read: one table for ``tools/same_output.py``, ``tools/bounds.py``
and ``tests/conftest.py``.

A row is a ``Command``: its argv after ``python -m srlab`` and the
expectations it is checked against, none of which are required.
``same_output.py`` compares the output of every row across two
checkouts; ``bounds.py`` runs every row that has an expectation and
checks it.  The rows run in one directory holding the scratch configs
that ``write_configs`` writes there.
"""

import json
from dataclasses import dataclass, field
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

# {file name: (fixture, density)}: configs whose density varies.  They
# leave the weak form of contact3torus invariant along x1 only or along
# no axis, and that of integrable along x1 and x2.
DENSITIES = {
    "d1.json": ("contact3torus", "2 + cos(x0)"),
    "d2.json": ("contact3torus", "3 + cos(x0) + cos(x1)"),
    "d3.json": ("integrable", "2 + cos(6.283185307179586*x0)"),
}

TWO_PI = 6.283185307179586

# det F = cos(x0): singular on x0 = pi / 2, a point of the 4-point
# lattice, and on x0 = 3 pi / 2, but at no point of the default lattice of
# 5 per axis (the ROADMAP's "singular-off-lattice")
SINGULAR = {
    "name": "singular",
    "dim": 3,
    "periods": [TWO_PI] * 3,
    "horizontal": [["1", "0", "0"], ["0", "cos(x0)", "sin(x0)"]],
    "complement": [["0", "0", "1"]],
}

# [X1, X2] = cos(x0) d2 vanishes on x0 = pi / 2 and 3 pi / 2, so the frame
# is neither fat nor regular there, though it is both at the origin
FAT_AT_ORIGIN = {
    "name": "fat-at-origin",
    "dim": 3,
    "periods": [TWO_PI] * 3,
    "horizontal": [["1", "0", "0"], ["0", "1", "sin(x0)"]],
    "complement": [["0", "0", "1"]],
}

# contact3torus's complement tilted to T + sin(x0) X1, whose canonical
# complement is contact3torus's own T
TILTED_COMPLEMENT = [
    [
        "(cos(x2)) + sin(x0)*(sin(x2))",
        "(sin(x2)) + sin(x0)*(-cos(x2))",
        "(0) + sin(x0)*(0)",
    ]
]


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


def write_configs(directory, fixtures):
    """Write every scratch config into ``directory``; the density configs
    and ``tilted.json`` are built from the bundled configs in ``fixtures``."""
    directory, fixtures = Path(directory), Path(fixtures)

    def bundled(name):
        return json.loads((fixtures / (name + ".json")).read_text())

    configs = {
        name: dict(bundled(fixture), density=density)
        for name, (fixture, density) in DENSITIES.items()
    }
    for cfg in (SINGULAR, NOTFAT, NOTFAT37, FAT_AT_ORIGIN):
        configs[cfg["name"] + ".json"] = cfg
    configs["tilted.json"] = dict(
        bundled("contact3torus"), name="tilted", complement=TILTED_COMPLEMENT
    )
    for name, cfg in configs.items():
        (directory / name).write_text(json.dumps(cfg))


@dataclass(frozen=True)
class Command:
    """One srlab command and what its run must show.

    exit       the exit code
    rows       the spectrum's row count, CSV or JSON, every residual <= 1e-9
    last_line  the last line of stdout
    fields     {key: value} the JSON on stdout must hold
    rss_mb     a bound the peak resident set size must stay under
    forbidden  prefixes of the module names that must not load
    werror     run under ``-W error``: exit <= 1 with an empty stderr, or
               exit 2 with one stderr line, starting ``error: ``
    """

    argv: tuple
    exit: int | None = None
    rows: int | None = None
    last_line: str | None = None
    fields: dict = field(default_factory=dict)
    rss_mb: float | None = None
    forbidden: tuple = ()
    werror: bool = False

    def expects(self):
        return self != Command(self.argv)


def _row(command, **expect):
    return Command(tuple(command.split()), **expect)


PASSED = "all items passed"
SWEEP = "--count 6 --eps 2,4,8,16,32"
NO_SCIPY = ("scipy",)
NO_RANDOM = ("numpy.random",)

COMMANDS = [
    # every bundled fixture: no warning, and an error in one line.
    # carnot-step2 has a singular basis covector at the origin, and
    # heisenberg's one vertical direction is its only covector, so the
    # fatness test draws no random covector and numpy.random stays unloaded
    _row("check heisenberg", exit=0, werror=True, forbidden=NO_RANDOM),
    _row("check carnot-step2", exit=0, werror=True, forbidden=NO_RANDOM),
    *(_row("check " + name, werror=True) for name in FIXTURES[2:]),
    *(_row("canonicalize " + name, werror=True) for name in FIXTURES),
    *(_row("verify %s -n 4" % name, werror=True) for name in FIXTURES),
    *(_row("spectrum %s -n 4 --count 4 --eps 2,4" % name, werror=True) for name in FIXTURES),
    _row("spectrum d2.json -n 4 --count 4 --eps 2,4", werror=True),
    # flag values that must be refused in one error line
    _row("check trivial --seed -1", exit=2, werror=True),
    _row("spectrum contact3torus -n 100000000000", exit=2, werror=True),
    _row("check trivial --out missing/x.json", exit=2, werror=True),
    _row("spectrum contact3torus -n 5"),
    _row("verify contact3torus -n 100"),
    # check: the lattice on the read axes across block edges, the parity
    # answer, uniform samples drawn without numpy.random, and 8^6 and
    # 10^6 lattice points
    _row("check carnot-step2 --lattice 4"),
    _row("check engel --lattice 3 --samples 7 --seed 3"),
    _row("check martinet --samples 5 --seed 9"),
    _row("check carnot-step2 --lattice 6"),
    _row("check carnot-step2 --lattice 5 --samples 40 --seed 7"),
    _row("check engel --lattice 6"),
    _row("check carnot-step2 --samples 2", exit=0, forbidden=NO_RANDOM),
    _row("check carnot-step2 --lattice 8", exit=0, rss_mb=45),
    _row(
        "check carnot-step2 --lattice 10",
        exit=0,
        rss_mb=45,
        fields={"points_checked": 1000000, "regular": True, "bracket_generating": True},
    ),
    # scratch frames: singular off the default lattice, and not fat
    _row("check singular.json --lattice 4"),
    _row("check notfat.json"),
    _row("check notfat37.json"),
    # verify
    *(_row("verify " + name) for name in FIXTURES[:2] + FIXTURES[3:5]),
    _row("verify contact3torus -n 8", exit=0, last_line=PASSED, forbidden=NO_SCIPY + NO_RANDOM),
    _row("verify contact3torus -n 4 --samples 11 --seed 5"),
    # a seed past 2^64: three 32-bit words of entropy
    _row("verify contact3torus -n 4 --samples 3 --seed 18446744073709551621"),
    # the kernel check past the dense limit, and the largest grids
    _row("verify contact3torus -n 18", exit=0, last_line=PASSED),
    _row("verify contact3torus -n 36", exit=0, last_line=PASSED, rss_mb=170),
    _row("verify contact3torus -n 48", exit=0, last_line=PASSED, rss_mb=330),
    _row("verify d1.json -n 8"),
    _row("verify d2.json -n 4"),
    _row("verify d3.json -n 4"),
    _row("verify d2.json -n 8", exit=0, last_line=PASSED),
    # no invariant axis, so the certificates' tables cover every node; the
    # assembly budget does not count them, this bound does
    _row("verify d2.json -n 16", exit=0, last_line=PASSED, rss_mb=125),
    # spectrum: the penalty sweep on the Fourier path, which loads no scipy
    _row("spectrum contact3torus -n 12 " + SWEEP, exit=0, rows=36, forbidden=NO_SCIPY),
    _row("spectrum contact3torus -n 12 --count 6 --eps 2,8 --format json"),
    _row("spectrum contact3torus -n 24 " + SWEEP, exit=0, rows=36),
    _row("spectrum contact3torus -n 48 " + SWEEP, exit=0, rows=36, rss_mb=120),
    _row("spectrum contact3torus -n 64 " + SWEEP, exit=0, rows=36, rss_mb=140),
    _row("spectrum contact3torus -n 96 --count 9", exit=0, rows=9, rss_mb=410),
    _row("spectrum trivial -n 12 --count 30"),
    _row("spectrum integrable -n 10 --count 24 --eps 2,4"),
    _row("spectrum heisenberg -n 4"),
    _row("spectrum d1.json -n 8 --count 6 --eps 2,4"),
    # the Lanczos path end to end
    _row(
        "spectrum d2.json -n 12 --count 6 --eps 2,8 --format json",
        exit=0,
        rows=18,
        fields={"solver": "lanczos"},
    ),
    # scratch configs on which srlab gives a wrong answer (see the ROADMAP):
    # no expectation, so a fix shows which bytes of output it changes
    *(
        _row(command % name)
        for name in ("fat-at-origin.json", "tilted.json")
        for command in ("check %s", "canonicalize %s", "verify %s", "spectrum %s -n 4 --count 4")
    ),
]
