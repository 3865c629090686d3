"""The command table (tools/commands.py) and its checker (tools/bounds.py).

The cheap rows run here as ``bounds.py`` runs them in its uncompiled
mode, through the same row check; the heavy rows run in ``bounds.py``
alone.  Synthetic results that each break one kind of expectation must
each fail the check.
"""

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

import bounds
from commands import COMMANDS, Command, write_configs

ROOT = bounds.ROOT

# module probes, the n = 12 sweep, 8^6 and 10^6 lattice points, and the
# three usage errors
CHEAP = [
    "check heisenberg",
    "check carnot-step2",
    "check carnot-step2 --samples 2",
    "spectrum contact3torus -n 12 --count 6 --eps 2,4,8,16,32",
    "verify contact3torus -n 8",
    "check carnot-step2 --lattice 8",
    "check carnot-step2 --lattice 10",
    "check trivial --seed -1",
    "spectrum contact3torus -n 100000000000",
    "check trivial --out missing/x.json",
]
ROWS = {" ".join(row.argv): row for row in COMMANDS}


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """{command: result} of every cheap row, run in the uncompiled mode,
    two at a time."""
    root = tmp_path_factory.mktemp("bounds")
    env = bounds.prepare(root / "uncompiled", "uncompiled")
    cwd = root / "cwd"
    cwd.mkdir()
    write_configs(cwd, ROOT / "src" / "srlab" / "fixtures")
    with ThreadPoolExecutor(2) as pool:
        done = pool.map(lambda command: bounds.run(ROWS[command], env, cwd), CHEAP)
        return dict(zip(CHEAP, done))


def test_the_table_has_one_row_per_command():
    assert len(ROWS) == len(COMMANDS)


@pytest.mark.parametrize("command", CHEAP)
def test_cheap_row_meets_its_expectations(results, command):
    row = ROWS[command]
    assert row.expects()
    assert bounds.check(row, results[command]) == []


ARGV = ("spectrum", "x")
CSV = "eps,i,lambda,residual,multiplicity_cluster\ninf,0,0.0,1e-12,0\ninf,1,1.0,1e-12,1\n"
SPECTRUM_JSON = json.dumps({"solver": "lanczos", "rows": [{"residual": 1e-12}]})
REPORT = "PASS symmetric\nall items passed\n"
GOOD = bounds.Result(
    code=0, stdout=CSV, stderr="", rss_mb=30.0, wall_s=0.1, modules=["numpy", "srlab"]
)

# (row, a result that meets its one expectation, one that breaks it)
BREAKS = {
    "exit code": (Command(ARGV, exit=0), GOOD, replace(GOOD, code=1)),
    "CSV rows": (Command(ARGV, rows=2), GOOD, replace(GOOD, stdout=CSV + "inf,2,2.0,1e-12,2\n")),
    "JSON rows": (
        Command(ARGV, rows=1),
        replace(GOOD, stdout=SPECTRUM_JSON),
        replace(GOOD, stdout=json.dumps({"rows": [{"residual": 1e-12}] * 2})),
    ),
    "residual": (
        Command(ARGV, rows=2), GOOD, replace(GOOD, stdout=CSV.replace("1e-12,1", "2e-9,1"))
    ),
    "unreadable spectrum": (Command(ARGV, rows=2), GOOD, replace(GOOD, stdout="error\n")),
    "last line": (
        Command(ARGV, last_line="all items passed"),
        replace(GOOD, stdout=REPORT),
        replace(GOOD, stdout=REPORT.replace("all items passed", "1 item(s) failed")),
    ),
    "solver": (
        Command(ARGV, fields={"solver": "lanczos"}),
        replace(GOOD, stdout=SPECTRUM_JSON),
        replace(GOOD, stdout=SPECTRUM_JSON.replace("lanczos", "dense")),
    ),
    "a true field": (
        Command(ARGV, fields={"regular": True}),
        replace(GOOD, stdout='{"regular": true}'),
        replace(GOOD, stdout='{"regular": 1}'),
    ),
    "peak RSS": (Command(ARGV, rss_mb=45), GOOD, replace(GOOD, rss_mb=45.0)),
    "forbidden module": (
        Command(ARGV, forbidden=("scipy",)),
        GOOD,
        replace(GOOD, modules=["numpy", "scipy.sparse"]),
    ),
    "no module record": (Command(ARGV, forbidden=("scipy",)), GOOD, replace(GOOD, modules=None)),
    "stderr under exit 1": (
        Command(ARGV, werror=True),
        replace(GOOD, code=1),
        replace(GOOD, code=1, stderr="RuntimeWarning: overflow\n"),
    ),
    "killed by a signal": (Command(ARGV, werror=True), GOOD, replace(GOOD, code=-9)),
    "two error lines": (
        Command(ARGV, werror=True),
        replace(GOOD, code=2, stderr="error: bad -n\n"),
        replace(GOOD, code=2, stderr="error: bad -n\nerror: again\n"),
    ),
    "error line without its prefix": (
        Command(ARGV, werror=True),
        replace(GOOD, code=2, stderr="error: bad -n\n"),
        replace(GOOD, code=2, stderr="Traceback (most recent call last):\n"),
    ),
    "exit past 2": (
        Command(ARGV, werror=True),
        replace(GOOD, code=2, stderr="error: bad -n\n"),
        replace(GOOD, code=3, stderr="error: bad -n\n"),
    ),
}


@pytest.mark.parametrize("kind", BREAKS)
def test_each_broken_expectation_fails_the_check(kind):
    row, good, broken = BREAKS[kind]
    assert bounds.check(row, good) == []
    assert len(bounds.check(row, broken)) == 1


def test_a_row_without_expectations_is_not_run():
    assert not Command(ARGV).expects()
    assert Command(ARGV, werror=True).expects()
