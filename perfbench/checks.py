"""Output checks for the benchmark workloads.

Each check compares one CLI stdout with ``reference.json`` and returns a
list of problems (empty when the output is correct).  The references do
not depend on ``--seed``: the seed only moves the randomized start
vectors and samples, never a verdict, a name or an eigenvalue beyond
round-off.  Eigenvalues are compared with a tolerance, not byte for
byte, because a different eigensolver legitimately changes their last
digits.
"""

import json
from pathlib import Path

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

# the spectrum command's default --tol, which the sweep workload uses
SPECTRUM_TOL = 1e-9
EIGENVALUE_RTOL = 1e-8

CHECK_KEYS = (
    "regular",
    "fat",
    "bracket_generating",
    "flag_dims",
    "degree",
    "Q",
    "points_checked",
)


def check_carnot(stdout, ref=REFERENCE["check-carnot"]):
    try:
        got = json.loads(stdout)
    except json.JSONDecodeError as err:
        return ["stdout is not JSON: %s" % err]
    if not isinstance(got, dict):
        return ["stdout is not a JSON object"]
    return [
        "%s is %r, expected %r" % (key, got.get(key), ref[key])
        for key in CHECK_KEYS
        if got.get(key) != ref[key]
    ]


def parse_spectrum_csv(stdout):
    """Rows of (eps, i, lambda, residual, cluster) from the spectrum CSV."""
    lines = stdout.splitlines()
    if not lines or lines[0] != "eps,i,lambda,residual,multiplicity_cluster":
        raise ValueError("missing spectrum CSV header")
    rows = []
    for line in lines[1:]:
        eps, i, lam, res, cluster = line.split(",")
        rows.append((eps, int(i), float(lam), float(res), int(cluster)))
    return rows


def check_sweep(stdout, ref=REFERENCE["sweep-contact"]):
    try:
        rows = parse_spectrum_csv(stdout)
    except ValueError as err:
        return ["unreadable spectrum CSV: %s" % err]
    keys = [(eps, i) for eps, i, _lam, _res, _c in rows]
    want = [(eps, i) for eps, i, _lam, _c in ref]
    if keys != want:
        return ["rows (eps, i) are %r, expected %r" % (keys, want)]
    problems = []
    for (eps, i, lam, res, cluster), (_e, _i, ref_lam, ref_cluster) in zip(rows, ref):
        if cluster != ref_cluster:
            problems.append("eps=%s i=%d: cluster %d, expected %d" % (eps, i, cluster, ref_cluster))
        if not abs(lam - ref_lam) <= EIGENVALUE_RTOL * max(1.0, abs(ref_lam)):
            problems.append("eps=%s i=%d: lambda %r, expected %r" % (eps, i, lam, ref_lam))
        if not res <= SPECTRUM_TOL:
            problems.append("eps=%s i=%d: residual %r above %g" % (eps, i, res, SPECTRUM_TOL))
    return problems


def check_verify(stdout, ref=REFERENCE["verify-contact"]):
    lines = stdout.splitlines()
    if not lines or lines[-1] != "all items passed":
        return ["output does not end with 'all items passed'"]
    items = [line.split(" ", 2)[:2] for line in lines[:-1]]
    if items != ref:
        return ["items are %r, expected %r" % (items, ref)]
    return []


CHECKS = {
    "check-carnot": check_carnot,
    "sweep-contact": check_sweep,
    "verify-contact": check_verify,
}
