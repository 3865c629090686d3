"""srlab benchmark: the CLI timed end to end, one fresh process at a time.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each workload is one srlab command, run as a new ``python -m srlab``
process (through ``child.py``) with ``SRLAB_THREADS=1`` and ``src`` on
``PYTHONPATH``, one process at a time: a closed loop with one client.
Processes are started while the next one is expected to end within
``--seconds`` (at least two, so that repeated runs with the same seed can
be compared byte for byte), each after an import-only process that gives
the set-up time.  Every output is checked against ``reference.json``.

With ``--trace 0`` the result holds the end-to-end metrics (medians over
the run's processes).  With ``--trace 1`` untraced and traced processes
alternate, and the result holds the per-layer metrics of the traced ones.
The last line of stdout is the JSON result; the lines before it are a
readable summary and a record of the environment and of every sample.
See README.md in this directory.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import CHECKS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "check-carnot": ["check", "carnot-step2", "--lattice", "4"],
    "sweep-contact": [
        "spectrum", "contact3torus", "-n", "12", "--count", "6", "--eps", "2,4,8,16,32",
    ],
    "verify-contact": ["verify", "contact3torus", "-n", "8"],
}
THREADS = "1"
DEADLINE_S = 170.0  # the whole run ends well inside three minutes

CERTIFICATES = (
    "discrete.exact_symmetry_defect",
    "discrete.exact_constant_image",
    "discrete.exact_green_defect",
)


@dataclass
class Sample:
    mode: str  # "setup", "run" or "trace"
    wall: float
    setup: object  # seconds from spawn to ``import srlab.cli`` done, or None
    rss_mb: float
    code: int
    stdout: bytes
    stderr: str
    trace: object  # the tracer report of a traced process, or None
    problems: list = field(default_factory=list)


def launch(tmp, mode, cli_args, timeout):
    """Run child.py once; time it from spawn to exit and read its rusage."""
    record = tmp / "record.json"
    if record.exists():
        record.unlink()
    env = dict(os.environ)
    env["SRLAB_THREADS"] = THREADS
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    argv = [sys.executable, str(HERE / "child.py"), str(record), mode] + cli_args
    with open(tmp / "stdout", "wb") as out, open(tmp / "stderr", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        _pid, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    data = json.loads(record.read_text()) if record.exists() else {}
    return Sample(
        mode=mode,
        wall=end - start,
        setup=data["imported"] - start if "imported" in data else None,
        rss_mb=usage.ru_maxrss / 1024.0,
        code=proc.returncode,
        stdout=(tmp / "stdout").read_bytes(),
        stderr=(tmp / "stderr").read_text(errors="replace"),
        trace=data.get("trace"),
    )


def judge(samples, workload):
    """Fill each sample's problems: exit code, output check, byte identity."""
    check = CHECKS[workload]
    first = None
    for s in samples:
        if s.code != 0:
            s.problems.append("exit code %s: %s" % (s.code, s.stderr.strip()[-300:]))
        if s.setup is None:
            s.problems.append("no record written")
        if s.mode == "setup":
            continue
        s.problems.extend(check(s.stdout.decode(errors="replace")))
        if first is None:
            first = s.stdout
        elif s.stdout != first:
            s.problems.append("stdout differs from the first run with the same seed")
        if s.mode == "trace" and s.trace is None:
            s.problems.append("no trace written")


def measure(tmp, cli_args, seconds, trace, started):
    """Launch processes for ``seconds``; return the samples.

    A step is an import-only process and an untraced run; with ``trace``
    it is an untraced and a traced run instead.  Spreading the import-only
    processes over the whole run lets the set-up median average the host's
    drift as the run medians do.  A step starts only if a step as long as
    the last one still ends within ``seconds``, after a minimum of two
    untraced steps or one traced step.
    """
    samples = []

    def run(mode, args):
        remaining = DEADLINE_S - (time.monotonic() - started)
        samples.append(launch(tmp, mode, args, max(remaining, 1.0)))

    t0 = time.monotonic()
    modes = ("run", "trace") if trace else ("setup", "run")
    minimum = 1 if trace else 2
    steps = 0
    step_s = 0.0
    while True:
        now = time.monotonic()
        if steps and now - started + step_s > DEADLINE_S:
            break
        if steps >= minimum and now - t0 + step_s > seconds:
            break
        for mode in modes:
            run(mode, [] if mode == "setup" else cli_args)
        steps += 1
        step_s = time.monotonic() - now
    return samples


def end_to_end(samples):
    runs = [s for s in samples if s.mode == "run"]
    setups = [s.setup for s in samples if s.setup is not None]
    if not runs or not setups:
        return {}
    return {
        "wall_s": statistics.median(s.wall for s in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(s.rss_mb for s in runs),
    }


def layer_metrics(trace):
    """Per-layer metrics of one traced process, from its tracer report."""
    fns = trace["functions"]
    counters = trace["counters"]

    def get(name, key):
        return fns.get(name, {}).get(key, 0)

    main = fns["cli.main"]
    out = {}
    for name in ("expr.evaluate", "geometry.hormander_flag", "geometry.structure_constants",
                 "discrete.assemble_weak_laplacian", "spectrum.lanczos_smallest",
                 "spectrum.dense_spectrum"):
        out[name + ".calls"] = get(name, "calls")
        out[name + ".self_s"] = get(name, "self_s")
    for name in ("geometry.is_regular", "geometry.is_fat", "complement.canonical_complement",
                 "discrete.assemble_strong"):
        out[name + ".s"] = get(name, "s")
    out["complement.solve_canonical_complement.calls"] = get(
        "complement.solve_canonical_complement", "calls"
    )
    out["discrete.certificates.calls"] = sum(get(n, "calls") for n in CERTIFICATES)
    out["discrete.certificates.s"] = sum(get(n, "s") for n in CERTIFICATES)
    out["operators.s"] = trace["layers"].get("operators", 0.0)
    for name in ("discrete.nodes", "discrete.nnz", "discrete.exact_entries",
                 "spectrum.lanczos.basis_cols", "spectrum.dense.n",
                 "spectrum.max_residual", "complement.max_condition_number"):
        out[name] = counters.get(name, 0)
    out["cli.self_s"] = main["self_s"]
    out["trace.coverage"] = (main["s"] - main["self_s"]) / main["s"] if main["s"] else 0.0
    return out


def per_layer(samples, units):
    traced = [layer_metrics(s.trace) for s in samples if s.trace is not None]
    if not traced:
        return {}
    out = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
    out["trace.overhead_s"] = statistics.median(
        s.wall for s in samples if s.mode == "trace"
    ) - statistics.median(s.wall for s in samples if s.mode == "run")
    return {name: out[name] for name in units}


def git_commit(root):
    """The checked-out commit, or None outside a git repository."""
    if not (root / ".git").exists():  # not a repository of its own
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas["name"], blas["version"])
    except (TypeError, KeyError):
        blas = None
    return {
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "SRLAB_THREADS": THREADS,
        "seed": seed,
    }


def metric_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "srlab" / "__init__.py").is_file():
        sys.stderr.write("error: %s holds no src/srlab to benchmark\n" % ROOT)
        return 2
    e2e_units, layer_units = metric_units()
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        warm = launch(tmp, "setup", [], DEADLINE_S)  # compiles .pyc, warms file cache
        if warm.code != 0 or warm.setup is None:
            sys.stderr.write("error: cannot import srlab.cli: %s\n" % warm.stderr.strip())
            return 1
        cli_args = WORKLOADS[args.workload] + ["--seed", str(args.seed)]
        samples = measure(tmp, cli_args, args.seconds, args.trace, started)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    judge(samples, args.workload)
    failed = sum(1 for s in samples if s.problems)
    for s in samples:
        for problem in s.problems:
            sys.stderr.write("%s %s: %s\n" % (args.workload, s.mode, problem))
    if args.trace:
        values = per_layer(samples, layer_units)
        units = layer_units
    else:
        values = end_to_end(samples)
        units = e2e_units
    error_rate = failed / len(samples)

    print("%s seed=%d processes=%d error_rate=%.4f (%d/%d)" % (
        args.workload, args.seed, len(samples), error_rate, failed, len(samples)))
    for name, value in values.items():
        print("  %-44s %.6g %s" % (name, value, units[name]))
    print(json.dumps({
        "record": {
            "workload": args.workload,
            "argv": ["python", "-m", "srlab"] + cli_args,
            "environment": environment(args.seed),
            "samples": [
                {"mode": s.mode, "wall_s": s.wall, "setup_s": s.setup,
                 "peak_rss_mb": s.rss_mb, "exit": s.code, "problems": s.problems}
                for s in samples
            ],
        }
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
