"""Run every row of the command table that has an expectation, and check it.

    python tools/bounds.py

Every row of ``tools/commands.py`` with an expectation runs twice: from a
copy of ``src`` compiled with ``compileall``, as an installed package
is, and from an uncompiled copy with ``PYTHONDONTWRITEBYTECODE=1``, so
that each process compiles srlab from source.  A row runs as ``python -m
srlab`` does, with ``SRLAB_THREADS=1``, in one directory holding the
table's scratch configs; a wrapper records the modules it loaded, and a
small launcher process its peak RSS (``os.wait4``) and wall time.  One
line per run gives the exit code, the peak RSS beside the bound and the
wall time, followed by a line for each expectation missed.  The exit
code is 1 if any run misses one.
"""

import compileall
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from commands import COMMANDS, write_configs

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from checks import parse_spectrum_csv  # noqa: E402

MODES = ("compiled", "uncompiled")
RESIDUAL_TOL = 1e-9

# runs srlab as ``python -m srlab`` does, then writes the names in
# sys.modules to the record file
PROBE = """
import json, runpy, sys
record, sys.argv = sys.argv[1], ["srlab"] + sys.argv[2:]
try:
    runpy.run_module("srlab", run_name="__main__", alter_sys=True)
finally:
    with open(record, "w") as fh:
        json.dump(sorted(sys.modules), fh)
"""

# runs a command and writes its exit code, peak RSS in kilobytes (Linux's
# ru_maxrss) and wall time to the record file.  The peak counts the memory
# of the process that starts the command, so a row is started from this
# small process, never from the caller, which may be large (pytest).
LAUNCH = """
import os, sys, time
started = time.monotonic()
_, status, usage = os.wait4(os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ), 0)
with open(sys.argv[1], "w") as fh:
    code, wall_s = os.waitstatus_to_exitcode(status), time.monotonic() - started
    fh.write("%d %d %r" % (code, usage.ru_maxrss, wall_s))
"""


@dataclass
class Result:
    """What one run of a row showed; ``modules`` is None if the run
    left no record of them."""

    code: int
    stdout: str
    stderr: str
    rss_mb: float
    wall_s: float
    modules: list | None


def prepare(dest, mode):
    """Copy ``src`` to ``dest`` without its bytecode cache, compile it in
    the ``compiled`` mode, and return the environment the rows run in."""
    src = Path(dest) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, SRLAB_THREADS="1", PYTHONPATH=str(src))
    if mode == "compiled":
        compileall.compile_dir(src, quiet=1)
    else:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run(row, env, cwd):
    """Run ``row`` in ``cwd`` and return its ``Result``."""
    with tempfile.TemporaryDirectory() as records:
        modules, usage = Path(records) / "modules.json", Path(records) / "usage.txt"
        flags = ["-W", "error"] if row.werror else []
        probe = [sys.executable, *flags, "-c", PROBE, str(modules), *row.argv]
        done = subprocess.run(
            [sys.executable, "-c", LAUNCH, str(usage), *probe],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
        )
        code, rss_kb, wall_s = usage.read_text().split()
        return Result(
            int(code),
            done.stdout,
            done.stderr,
            int(rss_kb) / 1024,
            float(wall_s),
            json.loads(modules.read_text()) if modules.exists() else None,
        )


def residuals(stdout):
    """The residual of every row of a spectrum, CSV or JSON."""
    if stdout.lstrip().startswith("{"):
        return [row["residual"] for row in json.loads(stdout)["rows"]]
    return [row[3] for row in parse_spectrum_csv(stdout)]


def check(row, result):
    """One line for each expectation of ``row`` that ``result`` misses."""
    misses = []
    if row.exit is not None and result.code != row.exit:
        misses.append("exit code %d, expected %d" % (result.code, row.exit))
    if row.werror:
        lines = result.stderr.splitlines()
        # a process killed by signal k has the exit code -k
        quiet = 0 <= result.code <= 1 and not lines
        one_error = result.code == 2 and len(lines) == 1 and lines[0].startswith("error: ")
        if not (quiet or one_error):
            misses.append(
                "exit code %d with %d stderr lines: %r" % (result.code, len(lines), lines[:3])
            )
    if row.rows is not None:
        try:
            found = residuals(result.stdout)
        except (ValueError, KeyError, TypeError) as err:
            misses.append("unreadable spectrum: %r" % err)
        else:
            if len(found) != row.rows:
                misses.append("%d rows, expected %d" % (len(found), row.rows))
            worst = max(found, default=float("inf"))
            if not worst <= RESIDUAL_TOL:
                misses.append("worst residual %.3e, above %g" % (worst, RESIDUAL_TOL))
    if row.last_line is not None:
        last = (result.stdout.splitlines() or [None])[-1]
        if last != row.last_line:
            misses.append("last line %r, expected %r" % (last, row.last_line))
    if row.fields:
        try:
            shown = json.loads(result.stdout)
            values = {key: shown.get(key) for key in row.fields}
        except (ValueError, AttributeError) as err:
            misses.append("unreadable JSON: %r" % err)
        else:
            for key, value in row.fields.items():
                shown, value = json.dumps(values[key]), json.dumps(value)
                if shown != value:
                    misses.append("%s is %s, expected %s" % (key, shown, value))
    if row.rss_mb is not None and not result.rss_mb < row.rss_mb:
        misses.append("peak RSS %.1f MB, not under %g" % (result.rss_mb, row.rss_mb))
    if row.forbidden:
        if result.modules is None:
            misses.append("no record of the modules loaded")
        else:
            loaded = [m for m in result.modules if m.startswith(row.forbidden)]
            if loaded:
                misses.append("loaded %s" % ", ".join(loaded))
    return misses


def main():
    runs = missed = 0
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp) / "cwd"
        cwd.mkdir()
        write_configs(cwd, ROOT / "src" / "srlab" / "fixtures")
        for mode in MODES:
            env = prepare(Path(tmp) / mode, mode)
            for row in COMMANDS:
                if not row.expects():
                    continue
                result = run(row, env, cwd)
                misses = check(row, result)
                runs += 1
                missed += bool(misses)
                bound = "< %-4g" % row.rss_mb if row.rss_mb is not None else ""
                print(
                    "%-4s %-10s exit %d  %6.1f MB %-6s %6.2f s  srlab %s"
                    % ("MISS" if misses else "ok", mode, result.code, result.rss_mb,
                       bound, result.wall_s, " ".join(row.argv)),
                    flush=True,
                )
                for miss in misses:
                    print("       " + miss, flush=True)
    print("%d of %d runs miss an expectation" % (missed, runs))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
