"""Command-line interface tests: exit codes, schemas, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import srlab
from srlab.cli import main
from srlab.complement import canonical_complement, verify_flat_complement

from conftest import write_config


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    with pytest.raises(OSError, match="simulated"):
        main(["check", "heisenberg", "--out", str(target)])
    assert target.read_bytes() == b"old verdict\n"
    assert [p.name for p in tmp_path.iterdir()] == ["verdict.json"]


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
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = (
        "spectrum",
        "contact3torus",
        "-n",
        "6",
        "--count",
        "4",
        "--eps",
        "2,4",
        "--solver",
        "lanczos",
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


def test_spectrum_rejects_bad_eps_list(capsys):
    code, _, err = run(
        capsys, "spectrum", "contact3torus", "-n", "6", "--eps", "2,-4"
    )
    assert code == 2
    assert "positive" in err


def test_spectrum_rejects_odd_grid(capsys):
    code, out, err = run(capsys, "spectrum", "contact3torus", "-n", "7")
    assert code == 2
    assert out == ""
    assert "even" in err


def test_spectrum_dense_accepts_count_above_lanczos_limit(capsys):
    code, out, _ = run(
        capsys,
        "spectrum",
        "contact3torus",
        "-n",
        "4",
        "--solver",
        "dense",
        "--count",
        "40",
    )
    assert code == 0
    assert len(out.splitlines()) == 41


@pytest.mark.parametrize(
    "argv, code, limit",
    [
        (("contact3torus", "--solver", "dense", "--count", "100"), 2, "64"),
        (("trivial", "--count", "20"), 2, "15"),
        (("trivial", "--count", "16", "--solver", "dense"), 0, None),
    ],
)
def test_spectrum_count_against_grid_size(capsys, monkeypatch, argv, code, limit):
    # lanczos needs count <= N - 1 and dense count <= N; a count beyond that
    # is rejected before the complement solve (patched to fail here)
    import srlab.cli as cli

    if limit is not None:
        def unreachable(*_):
            raise AssertionError("complement solved before the count check")

        monkeypatch.setattr(cli, "canonical_complement", unreachable)
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
def test_spectrum_lanczos_at_full_basis_solves_densely(capsys, argv):
    # the basis cap min(N, max(360, 12 count)) reaches N here, and the
    # trivial kernel's multiplicity exceeds the block size, so block
    # Lanczos cannot converge; the whole space is small enough to solve
    # densely instead
    code, out, err = run(capsys, "spectrum", *argv)
    assert code == 0, err
    code, ref, _ = run(capsys, "spectrum", *argv, "--solver", "dense")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    ref_rows = list(csv.DictReader(io.StringIO(ref)))
    assert len(rows) == len(ref_rows) > 0
    for row, want in zip(rows, ref_rows):
        for key in ("eps", "i", "multiplicity_cluster"):
            assert row[key] == want[key]
        lam, lam_ref = float(row["lambda"]), float(want["lambda"])
        assert abs(lam - lam_ref) <= 1e-9 * max(1.0, abs(lam_ref))
        assert float(row["residual"]) <= 1e-8


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


def test_verify_grid_beyond_dense_limit_is_usage_error(capsys, monkeypatch):
    # 18^3 nodes exceed the dense kernel check; refuse before any item runs
    # (the complement solve that the items start with is patched to fail)
    import srlab.cli as cli

    def unreachable(*_):
        raise AssertionError("an item ran before the grid size check")

    monkeypatch.setattr(cli, "canonical_complement", unreachable)
    code, out, err = run(capsys, "verify", "contact3torus", "-n", "18")
    assert code == 2
    assert out == ""
    assert err.startswith("error: -n 18 gives 5832 grid nodes")


def test_verify_detects_tilted_complement(capsys, tmp_path):
    cfg = heisenberg_config(complement=[["3/10", "0", "1"]])
    path = write_config(tmp_path / "tilt.json", cfg)
    code, out, _ = run(capsys, "verify", path)
    # the non-canonical complement shows up in the curvature item
    assert "detects-tilted-complement" in out
    assert code == 0


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
        ("spectrum", "contact3torus", "-n", "6", "--count", "40"),
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
