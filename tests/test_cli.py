"""Command-line interface tests: exit codes, schemas, determinism."""

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import srlab
from srlab.cli import build_structure, load_config, main
from srlab.complement import canonical_complement, verify_flat_complement
from srlab.discrete import Grid, assemble_weak_laplacian
from srlab.geometry import SubRiemannianStructure, is_regular
from srlab.spectrum import dense_spectrum

from commands import NOTFAT
from conftest import (
    D2,
    DENSITY_CONFIGS,
    FIXTURE_NAMES,
    GRID_NAMES,
    oracle_green,
    oracle_tables,
    write_config,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def bumped_config(tmp_path, name, density):
    """Path of fixture ``name``'s config with ``density`` set."""
    cfg = load_config(name)
    cfg["density"] = density
    return write_config(tmp_path / ("%s-bumped.json" % name), cfg)


def heisenberg_config(**overrides):
    cfg = {
        "dim": 3,
        "periods": [1.0, 1.0, 1.0],
        "horizontal": [["1", "0", "-x1/2"], ["0", "1", "x0/2"]],
        "complement": [["0", "0", "1"]],
        "name": "tilted",
    }
    cfg.update(overrides)
    return cfg


# ---------------------------------------------------------------------------
# check


def test_check_bundled_fixture_passes(capsys):
    code, out, _ = run(capsys, "check", "heisenberg")
    assert code == 0
    record = json.loads(out)
    assert record["flag_dims"] == [2, 3]
    assert record["degree"] == 2
    assert record["Q"] == 4
    assert record["regular"] is True
    assert record["fat"] is True
    assert record["bracket_generating"] is True
    assert record["witness"] is None


def test_check_reports_failure_exit_code(capsys):
    code, out, _ = run(capsys, "check", "trivial")
    assert code == 1
    record = json.loads(out)
    assert record["bracket_generating"] is False
    assert record["degree"] is None


def test_check_unknown_config_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "no-such-fixture")
    assert code == 2
    assert "error:" in err


def test_check_malformed_config_is_usage_error(capsys, tmp_path):
    path = write_config(tmp_path / "bad.json", {"dim": 3})
    code, _, err = run(capsys, "check", path)
    assert code == 2
    assert "missing" in err


@pytest.mark.parametrize(
    "command",
    [["check"], ["canonicalize"], ["spectrum", "-n", "4"], ["verify", "-n", "4"]],
    ids=lambda c: c[0],
)
@pytest.mark.parametrize(
    "period", [float("inf"), True, 10**400], ids=["inf", "bool", "huge-int"]
)
def test_nonfinite_or_boolean_period_is_usage_error(
    capsys, tmp_path, command, period
):
    path = write_config(
        tmp_path / "periods.json", heisenberg_config(periods=[period, 1.0, 1.0])
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, command[0], path, *command[1:])
    assert code == 2
    assert out == ""
    assert err == "error: periods must list 3 finite positive numbers\n"


def test_check_boolean_dim_is_usage_error(capsys, tmp_path):
    cfg = {"dim": True, "periods": [1.0], "horizontal": [["1"]], "complement": []}
    code, out, err = run(capsys, "check", write_config(tmp_path / "dim.json", cfg))
    assert (code, out, err) == (2, "", "error: dim must be a positive integer\n")


def test_check_bad_expression_is_usage_error(capsys, tmp_path):
    cfg = heisenberg_config(horizontal=[["1", "0", "x9"], ["0", "1", "x0/2"]])
    path = write_config(tmp_path / "badexpr.json", cfg)
    code, _, err = run(capsys, "check", path)
    assert code == 2
    assert "error:" in err


def test_check_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "verdict.json"
    code, out, _ = run(capsys, "check", "engel", "--out", str(target))
    assert code == 0
    record = json.loads(target.read_text())
    assert record["fat"] is False
    assert record["Q"] == 7
    # the witness is a horizontal covector, one entry per horizontal field
    assert len(record["witness"]) == 2


def test_out_flag_keeps_old_file_when_replace_fails(
    capsys, tmp_path, monkeypatch
):
    target = tmp_path / "verdict.json"
    target.write_bytes(b"old verdict\n")

    def fail(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(os, "replace", fail)
    code, out, err = run(capsys, "check", "heisenberg", "--out", str(target))
    assert (code, out) == (2, "")
    assert err == "error: cannot write %s: simulated rename failure\n" % target
    assert target.read_bytes() == b"old verdict\n"
    assert [p.name for p in tmp_path.iterdir()] == ["verdict.json"]


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "heisenberg"),
        ("canonicalize", "heisenberg"),
        ("spectrum", "trivial", "-n", "4"),
        ("verify", "heisenberg"),
    ],
)
@pytest.mark.parametrize("where", ["missing-directory", "onto-directory"])
def test_out_flag_unwritable_target_is_usage_error(capsys, tmp_path, argv, where):
    # the write fails in one error line and leaves no temporary file
    target = tmp_path / "missing" / "out.txt"
    if where == "onto-directory":
        target = tmp_path / "taken"
        target.mkdir()
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write %s: " % target)
    assert len(err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.rglob("*")) == (
        [] if where == "missing-directory" else ["taken"]
    )


def test_verify_out_flag_writes_the_report(capsys, tmp_path):
    target = tmp_path / "report.txt"
    code, out, err = run(capsys, "verify", "heisenberg", "--out", str(target))
    assert (code, out, err) == (0, "", "")
    _, streamed, _ = run(capsys, "verify", "heisenberg")
    assert target.read_text() == streamed


def test_verify_out_flag_writes_nothing_when_the_suite_stops(
    capsys, tmp_path, monkeypatch
):
    # the budget admits the n = 4 weak form but not the n = 8 one of the
    # two-grid item, so the suite stops before its first item
    import srlab.discrete as disc

    monkeypatch.setattr(disc, "_PAIR_BUDGET", 64 * 2 + 4 * 98)
    target = tmp_path / "report.txt"
    code, out, err = run(
        capsys, "verify", "contact3torus", "-n", "4", "--out", str(target)
    )
    assert (code, out) == (2, "")
    assert "budget" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "contact3torus", "-n", str(2**21)),
        ("spectrum", "contact3torus", "-n", str(10**11)),
        ("spectrum", "contact3torus", "-n", str(10**11), "--eps", "2"),
        ("verify", "contact3torus", "-n", str(2**21)),
        ("verify", "contact3torus", "-n", str(10**11)),
    ],
)
def test_oversized_grid_is_usage_error(capsys, argv):
    # numpy refuses arrays this large outright; srlab must refuse first,
    # with the exact node count past the int64 range at 2^21 per axis,
    # and verify refuses before its first item
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: weak assembly size ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "flags",
    [("--lattice", "100"), ("--samples", "1048576"), ("--samples", str(10**30))],
)
def test_check_beyond_point_limit_is_usage_error(capsys, monkeypatch, flags):
    # 100^6 lattice points, or 3^6 + 2^20 with the default lattice, exceed
    # CHECK_POINT_LIMIT; refuse before any point is sampled
    def unreachable(*_):
        raise AssertionError("points sampled before the size check")

    for name in ("sample_lattice", "sample_points"):
        monkeypatch.setattr(SubRiemannianStructure, name, unreachable)
    code, out, err = run(capsys, "check", "carnot-step2", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --lattice ")


def test_check_point_limit_counts_lattice_and_samples(capsys, monkeypatch):
    import srlab.cli as cli

    monkeypatch.setattr(cli, "CHECK_POINT_LIMIT", 3**6 + 5)
    code, out, _ = run(capsys, "check", "carnot-step2", "--samples", "5")
    assert code == 0
    assert json.loads(out)["points_checked"] == 3**6 + 5
    code, out, err = run(capsys, "check", "carnot-step2", "--samples", "6")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --lattice 3 and --samples 6 give 735 points")


def test_check_reports_a_witness_between_the_basis_covectors(capsys, tmp_path):
    # [X0, X1] = T0 + T1 and [X2, X3] = T0 - T1: M(lambda) is singular at
    # lambda ~ (1, -1), though at neither basis covector
    code, out, _ = run(capsys, "check", write_config(tmp_path / "notfat.json", NOTFAT))
    record = json.loads(out)
    assert code == 0 and record["bracket_generating"] is True
    assert record["fat"] is False
    assert record["witness"] == [1 / math.sqrt(2), -1 / math.sqrt(2)]
    assert record["points_checked"] == 3**6


def test_check_sweeps_the_lattice_on_the_read_axes(capsys, monkeypatch):
    # carnot-step2's frame reads x0..x2: --lattice 10 sweeps 10^3 lattice
    # points and still counts 10^6
    import srlab.cli as cli

    swept = []

    def recording(s, points):
        swept.append(len(points))
        return is_regular(s, points)

    monkeypatch.setattr(cli, "is_regular", recording)
    code, out, _ = run(capsys, "check", "carnot-step2", "--lattice", "10", "--samples", "3")
    assert code == 0
    assert json.loads(out)["points_checked"] == 10**6 + 3
    assert swept == [10**3 + 3]


def test_check_martinet_irregular(capsys):
    code, out, _ = run(capsys, "check", "martinet")
    assert code == 0  # bracket-generating even though not regular
    record = json.loads(out)
    assert record["regular"] is False


# ---------------------------------------------------------------------------
# canonicalize


def test_canonicalize_is_identity_on_canonical_input(capsys):
    code, out, _ = run(capsys, "canonicalize", "heisenberg")
    assert code == 0
    cfg = json.loads(out)
    assert cfg["complement"] == [["0", "0", "1"]]
    meta = cfg["canonicalization"]
    assert meta["mode"] == "exact-symbolic"
    assert meta["solvability"] == ["unique"]
    assert meta["max_residual"] < 1e-12
    assert meta["warnings"] == []


def test_canonicalize_removes_constant_tilt(capsys, tmp_path):
    cfg = heisenberg_config(complement=[["1/4", "0", "7/8"]])
    path = write_config(tmp_path / "tilted.json", cfg)
    code, out, _ = run(capsys, "canonicalize", path)
    assert code == 0
    fixed = json.loads(out)
    # the result is a valid config whose complement has zero curvature
    from srlab.cli import build_structure

    s2, _ = build_structure(fixed)
    ac = canonical_complement(s2)
    assert verify_flat_complement(s2, ac) < 1e-10


def test_canonicalize_round_trip_feeds_check(capsys, tmp_path):
    cfg = heisenberg_config(complement=[["1/4", "0", "7/8"]])
    path = write_config(tmp_path / "tilted.json", cfg)
    out_path = tmp_path / "canonical.json"
    code, _, _ = run(capsys, "canonicalize", path, "--out", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "check", str(out_path))
    assert code == 0
    assert json.loads(out)["Q"] == 4


def test_canonicalize_pointwise_tilt_fails(capsys, tmp_path):
    cfg = heisenberg_config(
        complement=[["sin(6.283185307179586*x0)/4", "0", "1"]]
    )
    path = write_config(tmp_path / "pointwise.json", cfg)
    code, _, err = run(capsys, "canonicalize", path)
    assert code == 1
    assert "varies over the torus" in err


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_csv_schema(capsys):
    code, out, _ = run(
        capsys, "spectrum", "contact3torus", "-n", "6", "--count", "4"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0]) == [
        "eps",
        "i",
        "lambda",
        "residual",
        "multiplicity_cluster",
    ]
    assert len(rows) == 4
    assert all(r["eps"] == "inf" for r in rows)
    assert abs(float(rows[0]["lambda"])) < 1e-8
    assert float(rows[1]["lambda"]) > 0.1


def test_spectrum_eps_sweep_rows(capsys):
    code, out, _ = run(
        capsys,
        "spectrum",
        "contact3torus",
        "-n",
        "6",
        "--count",
        "2",
        "--eps",
        "2,4",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["eps"] for r in rows] == ["inf", "inf", "2.0", "2.0", "4.0", "4.0"]


def test_spectrum_json_format(capsys):
    code, out, _ = run(
        capsys,
        "spectrum",
        "contact3torus",
        "-n",
        "6",
        "--count",
        "3",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["grid"] == [6, 6, 6]
    assert payload["count"] == 3
    assert payload["sweep"] is None
    assert set(payload["rows"][0]) == {
        "eps",
        "i",
        "lambda",
        "residual",
        "multiplicity_cluster",
    }


def test_spectrum_seeded_runs_are_byte_identical(capsys, tmp_path):
    # 512 nodes, 4 pairs and a density varying along x0 and x1: no axis is
    # invariant, so the seeded Lanczos path solves every form
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = (
        "spectrum",
        str(bumped_config(tmp_path, "contact3torus", D2)),
        "-n",
        "8",
        "--count",
        "4",
        "--eps",
        "2,4",
        "--seed",
        "42",
    )
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_spectrum_rejects_nonperiodic_fixture(capsys):
    code, _, err = run(capsys, "spectrum", "heisenberg", "-n", "6")
    assert code == 2
    assert "periodic" in err


BAD_EPS_LISTS = [
    ("", "finite and positive"),  # an empty flag is not an omitted one
    ("2,-4", "finite and positive"),
    ("-4,2", "finite and positive"),  # increasing: only positivity fails
    ("nan", "finite and positive"),
    ("2,inf", "finite and positive"),
    ("2,2", "strictly increasing"),
    ("4,2", "strictly increasing"),
]


@pytest.mark.parametrize(
    "eps, rule", BAD_EPS_LISTS, ids=[eps for eps, _ in BAD_EPS_LISTS]
)
def test_spectrum_rejects_bad_eps_list(capsys, monkeypatch, eps, rule):
    def no_work(spec_arg):
        raise AssertionError("config loaded before --eps was checked")

    monkeypatch.setattr("srlab.cli.load_config", no_work)
    code, out, err = run(
        capsys, "spectrum", "contact3torus", "-n", "6", "--eps=" + eps
    )
    assert code == 2
    assert out == ""
    assert err == "error: --eps values must be %s\n" % rule


def test_spectrum_eps_out_of_float_range_is_one_error_line(capsys):
    # the exact products overflow; the range check reports it, and numpy
    # raises no overflow warnings, which would reach stderr before it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(
            capsys, "spectrum", "contact3torus", "-n", "4", "--count", "2",
            "--eps", "1e-300",
        )
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code == 2
    assert out == ""
    assert err == "error: values out of the range of exact float products\n"


def test_spectrum_rejects_odd_grid(capsys):
    code, out, err = run(capsys, "spectrum", "contact3torus", "-n", "7")
    assert code == 2
    assert out == ""
    assert "even" in err


def test_spectrum_dense_beyond_dense_limit_is_usage_error(
    capsys, tmp_path, monkeypatch
):
    # 500 pairs of 18^3 nodes are too many for Lanczos (12 * 500 >= 5832)
    # and the nodes too many for the dense solve.  The invariant form is
    # solved in Fourier space all the same; the bumped form, invariant
    # along no axis, is refused once it is assembled
    import srlab.spectrum as spectrum

    code, out, err = run(
        capsys, "spectrum", "contact3torus", "-n", "18", "--count", "500"
    )
    assert code == 0, err
    assert len(out.splitlines()) == 1 + 500

    assembled = []

    def assemble(*args, **kwargs):
        assembled.append(args[1].shape)
        return assemble_weak_laplacian(*args, **kwargs)

    monkeypatch.setattr(spectrum, "assemble_weak_laplacian", assemble)
    config = bumped_config(tmp_path, "contact3torus", D2)
    code, out, err = run(capsys, "spectrum", config, "-n", "18", "--count", "500")
    assert (code, out) == (2, "")
    assert assembled == [(18, 18, 18)]
    assert err.startswith("error: no solver takes 500 pairs of 5832 grid nodes")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "density",
    [None, "3 + cos(6.283185307179586*x0) + cos(6.283185307179586*x1)"],
    ids=["fourier", "lanczos"],
)
def test_spectrum_many_pairs_beyond_dense_limit(capsys, tmp_path, density):
    # 40 pairs of 66^2 = 4356 nodes: the invariant form takes the Fourier
    # path, the bumped one Lanczos, which has no cap on the pair count
    config = "trivial"
    if density is not None:
        config = str(bumped_config(tmp_path, "trivial", density))
    code, out, err = run(
        capsys, "spectrum", config, "-n", "66", "--count", "40", "--format", "json"
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload["solver"] == ("fourier" if density is None else "lanczos")
    assert len(payload["rows"]) == 40
    assert max(row["residual"] for row in payload["rows"]) <= 1e-9


def test_spectrum_dense_accepts_count_above_lanczos_limit(capsys):
    # 64 nodes lie below the Lanczos cutoff max(360, 12 count), so any
    # count is dense
    code, out, _ = run(
        capsys, "spectrum", "contact3torus", "-n", "4", "--count", "63"
    )
    assert code == 0
    assert len(out.splitlines()) == 64


@pytest.mark.parametrize(
    "n, count, solver",
    [("4", "3", "dense"), ("8", "4", "lanczos"), ("8", "43", "dense")],
)
def test_spectrum_json_names_the_chosen_solver(capsys, tmp_path, n, count, solver):
    # contact3torus is invariant along x0 and x1 and takes the Fourier path;
    # a density varying along both leaves it to the size rule's ``solver``
    bumped = bumped_config(tmp_path, "contact3torus", D2)
    for config, want in [("contact3torus", "fourier"), (bumped, solver)]:
        code, out, _ = run(
            capsys, "spectrum", config, "-n", n, "--count", count,
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["solver"] == want


def test_spectrum_json_joins_the_paths_taken(capsys, monkeypatch):
    # the horizontal form, kept off the Fourier path, goes by the size rule
    # and is solved first
    import srlab.spectrum as spec

    fourier = spec.fourier_smallest
    monkeypatch.setattr(
        spec,
        "fourier_smallest",
        lambda wf, count: None if wf.eps is None else fourier(wf, count),
    )
    code, out, _ = run(
        capsys, "spectrum", "contact3torus", "-n", "8", "--count", "4",
        "--eps", "2,4", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["solver"] == "lanczos,fourier"


@pytest.mark.parametrize(
    "argv, code, limit",
    [
        (("contact3torus", "--count", "100"), 2, "64"),
        (("trivial", "--count", "17"), 2, "16"),
        (("trivial", "--count", "16"), 0, None),
    ],
)
def test_spectrum_count_against_grid_size(capsys, monkeypatch, argv, code, limit):
    # count <= N; a count beyond that is rejected before the complement
    # solve (patched to fail here)
    import srlab.complement as comp

    if limit is not None:
        def unreachable(*_):
            raise AssertionError("complement solved before the count check")

        monkeypatch.setattr(comp, "canonical_complement", unreachable)
    got, out, err = run(capsys, "spectrum", argv[0], "-n", "4", *argv[1:])
    assert got == code
    if limit is None:
        assert len(out.splitlines()) == 17
    else:
        assert out == ""
        assert err.startswith("error: --count must be at most %s " % limit)


@pytest.mark.parametrize(
    "argv",
    [
        ("trivial", "-n", "6", "--count", "3", "--eps", "2,8"),
        ("trivial", "-n", "4", "--count", "6"),
        ("trivial", "-n", "8", "--count", "6", "--eps", "2"),
    ],
)
def test_spectrum_lanczos_at_full_basis_solves_densely(capsys, tmp_path, argv):
    # N is at most the Lanczos cutoff max(360, 12 count) here; a density
    # varying along both axes keeps these off the Fourier path, and the
    # size rule solves them densely
    density = "3 + cos(6.283185307179586*x0) + cos(6.283185307179586*x1)"
    config = bumped_config(tmp_path, argv[0], density)
    code, out, err = run(capsys, "spectrum", config, *argv[1:])
    assert code == 0, err
    n, count = int(argv[2]), int(argv[4])
    eps_values = [float(e) for e in argv[6].split(",")] if len(argv) > 5 else []
    s, density = build_structure(load_config(config))
    adapted = canonical_complement(s).as_structure()
    grid = Grid(shape=(n,) * s.dim, periods=s.periods)
    ref_rows = []
    for eps in [None] + eps_values:
        wf = assemble_weak_laplacian(adapted, grid, eps=eps, density=density)
        rep = dense_spectrum(wf.operator, wf.mass, count=count)
        ref_rows += rep.rows("inf" if eps is None else eps)
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == len(ref_rows) > 0
    for row, want in zip(rows, ref_rows):
        assert row["eps"] == str(want["eps"])
        assert int(row["i"]) == want["i"]
        assert int(row["multiplicity_cluster"]) == want["multiplicity_cluster"]
        assert float(row["lambda"]) == want["lambda"]
        assert float(row["residual"]) == want["residual"] <= 1e-8


# ---------------------------------------------------------------------------
# verify


def test_verify_all_fixtures_pass(capsys):
    for name in ("heisenberg", "carnot-step2", "contact3torus", "engel", "martinet"):
        code, out, _ = run(capsys, "verify", name)
        assert code == 0, (name, out)
        assert "FAIL" not in out
        assert "all items passed" in out


def test_verify_prints_one_line_per_item(capsys):
    code, out, _ = run(capsys, "verify", "heisenberg")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "SKIP"))]
    assert len(lines) >= 12
    assert all(" " in l for l in lines)


def test_verify_with_grid_items(capsys):
    code, out, _ = run(capsys, "verify", "contact3torus", "-n", "6")
    assert code == 0
    assert "weak-exact-symmetry" in out
    assert "kernel-dimension" in out
    assert "FAIL" not in out


def test_verify_grid_on_nonperiodic_coefficients_is_usage_error(capsys):
    # heisenberg coefficients cannot be sampled on the torus, so a grid
    # request is unusable: same exit class as the spectrum command, and the
    # pointwise identity results already printed must stay visible
    code, out, err = run(capsys, "verify", "heisenberg", "-n", "6")
    assert code == 2
    assert "periodic" in err
    assert "PASS frame-invertible" in out
    assert "FAIL" not in out


def test_verify_odd_grid_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "contact3torus", "-n", "5")
    assert code == 2
    assert out == ""
    assert "even" in err


def test_verify_kernel_check_needs_no_dense_solve(capsys, monkeypatch):
    # the kernel check takes the shared solver rule, so a grid larger than
    # the dense solve allows still passes on the Fourier path
    import srlab.spectrum as spec

    monkeypatch.setattr(spec, "DENSE_LIMIT", 64)
    code, out, err = run(capsys, "verify", "contact3torus", "-n", "6")
    assert code == 0, err
    assert "PASS kernel-dimension" in out


def test_verify_grid_past_assembly_budget_is_usage_error(capsys, monkeypatch):
    # the budget admits the n = 4 form (64 nodes of 2 entries, 4 slab rows
    # of 2 * 3 + 1 + 19 + 4 * 2 * 9 entries for two fields in 3-D, 19
    # offsets of at most 9 terms) but not the n = 8 one of the two-grid
    # order item (512 nodes and 8 slab rows), which is refused before the
    # first item runs, also when its nodes alone fit
    import srlab.discrete as disc

    for budget in (64 * 2 + 4 * 98, 512 * 2 + 8 * 98 - 1):
        monkeypatch.setattr(disc, "_PAIR_BUDGET", budget)
        code, out, err = run(capsys, "verify", "contact3torus", "-n", "4")
        assert (code, out) == (2, "")
        assert err == (
            "error: weak assembly size 1808 exceeds the supported budget; "
            "use a smaller grid\n"
        )


def test_verify_two_grid_item_builds_no_quadrature_on_the_fine_grid(
    capsys, monkeypatch
):
    # the n grid's Green certificate reads its quadrature rows; the 2n
    # grid's form is only applied, mass.solve(operator.matvec(u))
    import srlab.discrete as disc

    forms = []

    def assemble(*args, **kwargs):
        forms.append(assemble_weak_laplacian(*args, **kwargs))
        return forms[-1]

    monkeypatch.setattr(disc, "assemble_weak_laplacian", assemble)
    code, out, _ = run(capsys, "verify", "contact3torus", "-n", "4")
    assert code == 0 and "PASS weak-two-grid-order" in out
    assert [f.grid.shape[0] for f in forms] == [4, 8]
    assert not callable(forms[0]._quadrature)
    assert callable(forms[1]._quadrature)


def _verify_with_changed_green_form(capsys, monkeypatch, change):
    # change(wf, exact, factors) alters the n = 4 grid's form and the
    # full-grid oracle tables alike; returns verify's exit code, its output
    # and the oracle's max |D_ij| of the changed form
    import srlab.discrete as disc

    expected = []

    def assemble(*args, **kwargs):
        wf = assemble_weak_laplacian(*args, **kwargs)
        if wf.grid.shape[0] == 4:
            exact, factors, weights = oracle_tables(wf, args[0], kwargs["density"])
            change(wf, exact, factors)
            expected.append(oracle_green(wf.grid, exact, factors, weights)[1])
        return wf

    monkeypatch.setattr(disc, "assemble_weak_laplacian", assemble)
    code, out, _ = run(capsys, "verify", "contact3torus", "-n", "4")
    return code, out, expected[0]


def test_verify_fails_the_green_item_on_one_changed_part(capsys, monkeypatch):
    # one exact part of the n grid's form one ulp off: the Green item
    # prints the full-grid oracle's max |D_ij| and verify exits 1
    def change(wf, exact, factors):
        offset = sorted(exact)[0]
        parts = wf.operator.exact[offset]
        r, j = np.argwhere(parts != 0)[0]
        parts[r, j] = np.nextafter(parts[r, j], np.inf)
        exact[offset][1][wf.operator.pos == r, j] = parts[r, j]

    code, out, expected = _verify_with_changed_green_form(capsys, monkeypatch, change)
    assert code == 1 and expected > 0.0
    assert "FAIL weak-exact-green (max defect = %r)" % expected in out.splitlines()


def test_verify_fails_the_green_item_on_one_doubled_coefficient(
    capsys, monkeypatch
):
    # one quadrature coefficient of the n grid's form doubled: the entry
    # parts, and so the symmetry and constant items, are unchanged, and
    # only the Green item fails, with the full-grid oracle's max |D_ij|
    def change(wf, exact, factors):
        values = wf.factors[0].values
        i, j = np.argwhere(values != 0)[0]
        values[i, j] *= 2.0
        # row i is corner i // S of the slab cell at slab row i % S
        pos = wf.operator.pos
        corner, r = divmod(i, wf.operator.slab.size)
        factors[0].values[corner * pos.size + np.flatnonzero(pos == r), j] *= 2.0

    code, out, expected = _verify_with_changed_green_form(capsys, monkeypatch, change)
    assert code == 1 and expected > 0.0
    lines = out.splitlines()
    assert "FAIL weak-exact-green (max defect = %r)" % expected in lines
    assert not [l for l in lines if l.startswith("FAIL") and "green" not in l]


def test_verify_detects_tilted_complement(capsys, tmp_path):
    cfg = heisenberg_config(complement=[["3/10", "0", "1"]])
    path = write_config(tmp_path / "tilt.json", cfg)
    code, out, _ = run(capsys, "verify", path)
    # the non-canonical complement shows up in the curvature item
    assert "detects-tilted-complement" in out
    assert code == 0


VERIFY_ITEMS = (
    "frame-invertible",
    "jacobi-identity",
    "flag-monotone",
    "canonical-complement-flat",
    "connection-compatible",
    "connection-torsion",
    "laplacian-divgrad",
    "product-rule",
    "divergence-density-vs-frame",
    "cartan-formula",
    "potential-constant",
    "penalty-coefficient-decay",
    "density-scaling",
    "detects-tilted-complement",
)
VERIFY_GRID_ITEMS = (
    "weak-exact-symmetry",
    "weak-exact-constants",
    "weak-exact-green",
    "weak-two-grid-order",
    "strong-consistency",
    "kernel-dimension",
)


def verify_lines(out):
    """(status, name) per item line, and the summary line."""
    lines = out.splitlines()
    return [tuple(line.split()[:2]) for line in lines[:-1]], lines[-1]


@pytest.mark.parametrize(
    "argv",
    [(name,) for name in FIXTURE_NAMES]
    + [(name, "-n", "4") for name in GRID_NAMES],
)
def test_verify_item_sequence_is_frozen(capsys, argv):
    # names and statuses only, so the numbers in the details may differ
    # across platforms; trivial and integrable have no vertical brackets
    code, out, _ = run(capsys, "verify", *argv)
    names = VERIFY_ITEMS + (VERIFY_GRID_ITEMS if "-n" in argv else ())
    flat = argv[0] in ("trivial", "integrable")
    expected = [
        ("SKIP" if flat and name == "detects-tilted-complement" else "PASS", name)
        for name in names
    ]
    assert verify_lines(out) == (expected, "all items passed")
    assert code == 0


@pytest.mark.parametrize("name, density", DENSITY_CONFIGS)
def test_verify_grid_items_use_the_density_weighted_sublaplacian(
    capsys, tmp_path, name, density
):
    """The weak form carries the config density, so the grid items compare
    it with the sublaplacian of the weighted volume; against the
    density-free one the two-grid error ratio tends to 1."""
    path = bumped_config(tmp_path, name, density)
    code, out, err = run(capsys, "verify", path, "-n", "8")
    assert err == ""
    items, summary = verify_lines(out)
    assert summary == "all items passed" and code == 0
    assert ("PASS", "weak-two-grid-order") in items
    assert ("PASS", "strong-consistency") in items


TWO_PI = 2 * math.pi
# X2 = (2 + sin x0) d1 makes the connection sums vary, so the
# constant-coefficient sublaplacian does not exist
VARYING_SUMS = {
    "dim": 3,
    "periods": [TWO_PI] * 3,
    "horizontal": [["1", "0", "0"], ["0", "2+sin(x0)", "0"]],
    "complement": [["0", "0", "1"]],
}
# k = m: the horizontal fields span everything and the complement is empty
EMPTY_COMPLEMENT = {
    "plane": {
        "dim": 2,
        "periods": [TWO_PI] * 2,
        "horizontal": [["2+sin(x1)", "0"], ["0", "1"]],
        "complement": [],
    },
    "line": {"dim": 1, "periods": [1.0], "horizontal": [["1"]], "complement": []},
}


def test_verify_grid_items_skip_without_sublaplacian(capsys, tmp_path):
    path = write_config(tmp_path / "varying.json", VARYING_SUMS)
    code, out, err = run(capsys, "verify", path, "-n", "4")
    assert (code, err) == (0, "")
    items, summary = verify_lines(out)
    assert summary == "all items passed"
    assert [name for _, name in items] == list(VERIFY_ITEMS + VERIFY_GRID_ITEMS)
    skipped = {name for status, name in items if status == "SKIP"}
    assert skipped == {
        "laplacian-divgrad",
        "product-rule",
        "penalty-coefficient-decay",
        "detects-tilted-complement",
        "weak-two-grid-order",
        "strong-consistency",
    }
    details = {
        line.split()[1]: line.split(" ", 2)[2] for line in out.splitlines()[:-1]
    }
    reason = details["laplacian-divgrad"]
    assert "connection sums vary" in reason
    assert details["weak-two-grid-order"] == reason
    assert details["strong-consistency"] == reason


@pytest.mark.parametrize("name", sorted(EMPTY_COMPLEMENT))
def test_empty_complement_commands_succeed(capsys, tmp_path, name):
    path = write_config(tmp_path / ("%s.json" % name), EMPTY_COMPLEMENT[name])
    code, out, err = run(capsys, "canonicalize", path)
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert record["complement"] == []
    assert record["canonicalization"]["mode"] == "exact-symbolic"
    assert record["canonicalization"]["max_residual"] == 0.0
    code, out, err = run(capsys, "spectrum", path, "-n", "4", "--count", "2")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 3
    code, out, err = run(capsys, "verify", path)
    assert (code, err) == (0, "")
    assert out.endswith("all items passed\n")


@pytest.mark.parametrize("flags", [(), ("-n", "4")])
def test_verify_one_dimensional_line(capsys, tmp_path, flags):
    path = write_config(tmp_path / "line.json", EMPTY_COMPLEMENT["line"])
    code, out, err = run(capsys, "verify", path, *flags)
    assert (code, err) == (0, "")
    items, summary = verify_lines(out)
    assert summary == "all items passed"
    names = VERIFY_ITEMS + (VERIFY_GRID_ITEMS if flags else ())
    assert [name for _, name in items] == list(names)
    assert ("PASS", "cartan-formula") in items


# ---------------------------------------------------------------------------
# numeric flags


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "heisenberg", "--lattice", "-1"),
        ("check", "heisenberg", "--lattice", "0"),
        ("check", "heisenberg", "--samples", "-1"),
        ("verify", "heisenberg", "--samples", "0"),
        ("verify", "heisenberg", "--samples", "-3"),
        ("verify", "contact3torus", "-n", "-2"),
        ("spectrum", "contact3torus", "-n", "6", "--count", "0"),
        ("spectrum", "contact3torus", "-n", "6", "--tol", "0"),
        ("spectrum", "contact3torus", "-n", "6", "--tol", "-0.5"),
        ("spectrum", "contact3torus", "-n", "6", "--tol", "nan"),
        ("spectrum", "contact3torus", "-n", "6", "--tol", "inf"),
        ("verify", "heisenberg", "--samples", str(10**20)),
        ("check", "heisenberg", "--seed", "-1"),
        ("canonicalize", "heisenberg", "--seed", "-1"),
        ("verify", "heisenberg", "--seed", "-1"),
        ("spectrum", "contact3torus", "-n", "6", "--seed", "-1"),
    ],
)
def test_bad_numeric_flag_is_usage_error(capsys, monkeypatch, argv):
    def no_work(spec_arg):
        raise AssertionError("config loaded before the flags were checked")

    monkeypatch.setattr("srlab.cli.load_config", no_work)
    flag = argv[-2]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: %s " % flag)


# ---------------------------------------------------------------------------
# the CLI contract under fuzzed flags
#
# Every run either refuses in one error line with nothing on stdout, or
# exits 0 or 1 without an exception and with well-formed output.  A verify
# run stopped midway by a usage error keeps the item lines it already
# wrote, so its stdout may hold a partial report.  Success-side grids stay
# at n <= 6.

_ITEM = re.compile(r"(PASS|FAIL|SKIP) [a-z-]+ \(.*\)")
_N = (["4", "6"], ["5", "2", str(10**11)])  # even; odd, below 4, huge
# (flag, good values, bad values, required); N is the grid's node count and
# MISSING a path into a directory that does not exist
_COMMON = [
    ("--seed", ["0", "7", str(2**64), str(10**30)], ["-1", str(-(2**63))], False),
    ("--out", [], ["MISSING"], False),
]
_FLAGS = {
    "check": [("--samples", ["0", "3"], [str(10**20)], False)],
    "canonicalize": [],
    "spectrum": [
        ("-n", *_N, True),
        ("--count", ["1", "N"], ["0", "N+1"], False),
        ("--eps", ["2,8"], ["", "abc", "8,2", "nan", "0", "-1", "1e400"], False),
        ("--tol", ["1e-9"], ["abc", "", "0", "-1", "nan", "inf"], False),
        ("--format", ["csv", "json"], [], False),
    ],
    "verify": [("-n", *_N, False), ("--samples", ["5"], ["0", str(10**20)], False)],
}
_CONFIGS = FIXTURE_NAMES + ["density-%d" % i for i in range(len(DENSITY_CONFIGS))]


@st.composite
def cli_cases(draw):
    """argv of one run: good flag values, with one bad value in half the runs."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command, draw(st.sampled_from(_CONFIGS))]
    specs = _COMMON + _FLAGS[command]
    faulty = [name for name, _, bad, _ in specs if bad]
    fault = draw(st.sampled_from(faulty + [None] * len(faulty)))
    for name, good, bad, required in specs:
        values = bad if name == fault else good + ([] if required else [None])
        value = draw(st.sampled_from(values))
        if value is not None:
            argv += [name, value]
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A temporary directory holding the density configs."""
    root = tmp_path_factory.mktemp("fuzz")
    for i, (name, density) in enumerate(DENSITY_CONFIGS):
        cfg = load_config(name)
        cfg["density"] = density
        write_config(root / ("density-%d.json" % i), cfg)
    return root


def _well_formed(command, argv, code, out):
    if command == "check":
        assert {"flag_dims", "points_checked"} <= set(json.loads(out))
    elif command == "canonicalize":
        assert "canonicalization" in json.loads(out)
    elif command == "spectrum":
        flags = dict(zip(argv[2::2], argv[3::2]))
        eps = flags.get("--eps")
        rows = int(flags.get("--count", 6)) * (1 + (len(eps.split(",")) if eps else 0))
        if flags.get("--format") == "json":
            assert len(json.loads(out)["rows"]) == rows
        else:
            lines = out.splitlines()
            assert lines[0] == "eps,i,lambda,residual,multiplicity_cluster"
            assert len(lines) == 1 + rows
    else:
        *items, last = out.splitlines()
        assert all(_ITEM.fullmatch(line) for line in items)
        failed = sum(line.startswith("FAIL") for line in items)
        assert last == ("%d item(s) failed" % failed if code else "all items passed")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(argv=cli_cases())
@example(argv=["check", "trivial", "--seed", "-1"])
@example(argv=["check", "trivial", "--out", "MISSING"])
@example(argv=["verify", "contact3torus", "-n", str(10**11)])
@example(argv=["verify", "heisenberg", "--samples", str(10**20)])
@example(argv=["spectrum", "contact3torus", "-n", str(10**11)])
def test_cli_contract_under_fuzzed_flags(fuzz_dir, argv):
    command, config = argv[:2]
    if config.startswith("density-"):
        config = str(fuzz_dir / (config + ".json"))
    s, _ = build_structure(load_config(config))
    nodes = int(dict(zip(argv[2::2], argv[3::2])).get("-n", 0)) ** s.dim
    missing = str(fuzz_dir / "no" / "out.txt")
    argv = [command, config] + [
        {"N": str(nodes), "N+1": str(nodes + 1), "MISSING": missing}.get(v, v)
        for v in argv[2:]
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse refuses a value it cannot convert: its usage lines,
            # then one "srlab <command>: error: ..." line
            assert exc.code == 2 and out.getvalue() == "", argv
            last = err.getvalue().splitlines()[-1]
            assert last.startswith("srlab %s: error: " % command), argv
            return
    out, err = out.getvalue(), err.getvalue()
    if code == 2 or err:
        assert code in (1, 2), argv
        assert len(err.splitlines()) == 1 and err.startswith("error: "), argv
        if command == "verify":
            assert all(_ITEM.fullmatch(line) for line in out.splitlines()), argv
        else:
            assert out == "", argv
    else:
        assert code in (0, 1), argv
        _well_formed(command, argv, code, out)
    assert not (fuzz_dir / "no").exists()


# ---------------------------------------------------------------------------
# entry points


def _subprocess_env(bin_dir=None):
    """Environment for a child process that imports the same ``srlab``
    package as this test process, wherever it is run from."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(srlab.__file__).resolve().parents[1])
    if bin_dir is not None:
        env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    return env


def test_console_script_help(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "srlab", "--help"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_subprocess_env(),
    )
    assert proc.returncode == 0
    assert "srlab" in proc.stdout


def test_installed_script_runs(tmp_path):
    """The ``srlab`` console script declared in ``pyproject.toml`` runs.

    The suite runs from a checkout with ``src`` on ``PYTHONPATH`` and no
    install, so no ``srlab`` wrapper is on ``PATH``.  The test writes the
    wrapper from ``[project.scripts]`` the way pip does, then runs it by
    name from an unrelated directory.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert "srlab" in scripts
    module, attr = scripts["srlab"].split(":")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "srlab"
    script.write_text(
        "#!%s\n"
        "import sys\n"
        "from %s import %s\n"
        "sys.exit(%s())\n" % (sys.executable, module, attr, attr)
    )
    script.chmod(0o755)
    proc = subprocess.run(
        ["srlab", "check", "heisenberg"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_subprocess_env(bin_dir),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["fat"] is True


# Runs one CLI invocation (or imports one module) the way ``python -m
# srlab`` does, then writes the names in sys.modules to the record file.
_MODULES_PROBE = """
import json, runpy, sys

record, args = sys.argv[1], sys.argv[2:]
code = 0
try:
    if args[0] == "import":
        __import__(args[1])
    else:
        sys.argv = ["srlab"] + args
        runpy.run_module("srlab", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
with open(record, "w") as fh:
    json.dump(sorted(sys.modules), fh)
sys.exit(code)
"""


def loaded_modules(tmp_path, argv):
    """The modules a fresh process has loaded after one CLI run (this
    process has scipy loaded already)."""
    record = tmp_path / "modules.json"
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_PROBE, str(record), *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=_subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(record.read_text())


@pytest.mark.parametrize(
    "argv, sparse",
    [
        (("import", "srlab"), False),
        (("import", "srlab.cli"), False),
        (("check", "carnot-step2", "--lattice", "2"), False),
        (("canonicalize", "heisenberg"), False),
        (("verify", "heisenberg"), False),
        (("spectrum", "contact3torus", "-n", "4", "--count", "2"), False),
        (("verify", "contact3torus", "-n", "4"), False),
    ],
)
def test_scipy_loads_only_for_a_sparse_build(tmp_path, argv, sparse):
    """Start-up, a spectrum whose solves take the Fourier path, and
    ``verify -n``, whose strong operator is a stencil and whose kernel
    check takes the Fourier path, build no CSR matrix and import no
    scipy; ``test_lanczos_path_loads_the_sparse_solvers`` covers a run
    that does."""
    scipy = [m for m in loaded_modules(tmp_path, argv) if m.startswith("scipy")]
    assert bool(scipy) == sparse, scipy


LIBRARY = ["complement", "discrete", "expr", "geometry", "operators", "spectrum"]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (("import", "srlab"), []),
        (("import", "srlab.cli"), ["expr", "geometry"]),
        (("check", "heisenberg"), ["expr", "geometry"]),
        (("check", "carnot-step2", "--lattice", "2"), ["expr", "geometry"]),
        (("canonicalize", "heisenberg"), ["complement", "expr", "geometry"]),
        (("verify", "heisenberg"), LIBRARY),
    ],
)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, loaded):
    modules = loaded_modules(tmp_path, argv)
    assert [m for m in LIBRARY if "srlab." + m in modules] == loaded


def test_every_public_name_resolves_to_its_defining_module():
    import importlib

    namespace = {}
    exec("from srlab import *", namespace)
    for name in srlab.__all__:
        value = getattr(srlab, name)
        assert namespace[name] is value
        if name in LIBRARY:
            assert value is importlib.import_module("srlab." + name)
        else:
            assert getattr(importlib.import_module(value.__module__), name) is value
    assert set(srlab.__all__) <= set(dir(srlab))
    with pytest.raises(AttributeError, match="no_such_name"):
        srlab.no_such_name


@pytest.mark.parametrize(
    "argv", [("verify", "contact3torus", "-n", "4"), ("canonicalize", "engel")]
)
def test_seeded_uniform_points_load_no_random(tmp_path, argv):
    """verify's sample points, the operators' promotion points and the
    seeded 125-point residual set of a 4-D canonicalize are uniform draws,
    made without numpy.random."""
    assert "numpy.random" not in loaded_modules(tmp_path, argv)


def test_check_of_a_fat_frame_with_three_vertical_directions_loads_random(tmp_path):
    """Left multiplication by i, j and k on the quaternions: q = 3 and no
    basis covector is singular, so ``is_fat`` draws its 32 Gaussian
    covectors from numpy.random."""
    cfg = {
        "name": "quat3",
        "dim": 7,
        "periods": [1.0] * 7,
        "horizontal": [
            ["1", "0", "0", "0", "x1/2", "x2/2", "x3/2"],
            ["0", "1", "0", "0", "-x0/2", "-x3/2", "x2/2"],
            ["0", "0", "1", "0", "x3/2", "-x0/2", "-x1/2"],
            ["0", "0", "0", "1", "-x2/2", "x1/2", "-x0/2"],
        ],
        "complement": [[str(int(i == b)) for i in range(7)] for b in (4, 5, 6)],
    }
    argv = ("check", write_config(tmp_path / "quat3.json", cfg))
    assert "numpy.random" in loaded_modules(tmp_path, argv)


def test_lanczos_path_loads_the_sparse_solvers(tmp_path):
    # x0 and x1 in the density, x2 in the frame: no invariant axis, and
    # N = 512 > 360 nodes for two pairs takes Lanczos
    cfg = load_config("contact3torus")
    cfg["density"] = D2
    path = write_config(tmp_path / "bumped.json", cfg)
    argv = ("spectrum", path, "-n", "8", "--count", "2")
    assert "scipy.sparse.linalg" in loaded_modules(tmp_path, argv)


def test_output_is_identical_across_thread_counts(tmp_path):
    """SRLAB_THREADS sets the BLAS thread count; stdout must not depend on it."""
    for argv in (
        ("check", "carnot-step2", "--lattice", "3"),
        ("verify", "contact3torus"),
    ):
        outs = []
        for threads in ("1", "2"):
            env = _subprocess_env()
            env["SRLAB_THREADS"] = threads
            # srlab only fills in the BLAS variables that are unset
            for var in (
                "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS",
            ):
                env.pop(var, None)
            proc = subprocess.run(
                [sys.executable, "-m", "srlab", *argv],
                capture_output=True,
                text=True,
                cwd=tmp_path,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1], argv
