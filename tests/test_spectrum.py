"""Eigensolver tests.

The library's dense path is one LAPACK call (scipy.linalg.eigh); here
numpy.linalg.eigvalsh of the scaled matrix serves only as an independent
reference for it.  Closed-form flat-torus eigenvalues pin down the whole
weak-form-to-spectrum chain, and the block Lanczos is checked against
the dense path, multiplicities included.
"""

import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from srlab.discrete import Grid, assemble_weak_laplacian
from srlab.spectrum import (
    LANCZOS_MAX_COUNT,
    KernelReport,
    SpectrumError,
    cluster_eigenvalues,
    dense_spectrum,
    epsilon_sweep,
    kernel_check,
    lanczos_smallest,
    rayleigh,
    scaled_standard_form,
    solve_weak_form,
)


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return 0.5 * (A + A.T)


@st.composite
def psd_problems(draw):
    """(A, mass) with A = P (I_r kron G G^T) P^T and a matching mass.

    The Kronecker block repeats every generalized eigenvalue exactly r
    times, and the symmetric permutation P hides the blocks.  A
    rank-deficient G adds a repeated zero eigenvalue.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(1, 8))
    rank = draw(st.integers(1, size))
    repeats = draw(st.sampled_from([1, 2, 3]))
    G = rng.standard_normal((size, rank))
    A = np.kron(np.eye(repeats), G @ G.T)
    mass = np.tile(rng.uniform(0.5, 2.0, size), repeats)
    perm = rng.permutation(A.shape[0])
    return A[np.ix_(perm, perm)], mass[perm]


# ---------------------------------------------------------------------------
# dense path against the external reference


@settings(max_examples=60, deadline=None)
@given(problem=psd_problems(), data=st.data())
def test_dense_spectrum_property_against_reference(problem, data):
    A, mass = problem
    count = data.draw(st.integers(1, A.shape[0]))
    _check_dense_against_reference(A, mass, count)


def test_dense_spectrum_survives_mrrr_failure():
    # a hidden 3-fold zero cluster on which LAPACK ?syevr (and ?syevx) can
    # fail outright for the lowest 7 pairs; psd_problems drew it as well
    rng = np.random.default_rng(80)
    G = rng.standard_normal((3, 2))
    A = np.kron(np.eye(3), G @ G.T)
    mass = np.tile(rng.uniform(0.5, 2.0, 3), 3)
    perm = rng.permutation(9)
    _check_dense_against_reference(A[np.ix_(perm, perm)], mass[perm], 7)


def _check_dense_against_reference(A, mass, count):
    rep = dense_spectrum(sp.csr_matrix(A), mass, count=count)
    s = 1.0 / np.sqrt(mass)
    ref = np.linalg.eigvalsh((s[:, None] * A) * s[None, :])  # reference only
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(rep.eigenvalues - ref[:count])) < 1e-10 * scale
    assert np.max(rep.residuals) < 1e-10
    # M-orthonormal vectors keep singular values >= sqrt(min/max mass) = 0.5
    for members in cluster_eigenvalues(ref[:count]):
        sv = np.linalg.svd(rep.vectors[:, members], compute_uv=False)
        assert sv[-1] > 0.1


def test_dense_spectrum_matches_reference_generalized():
    n = 18
    A = random_symmetric(n, seed=3)
    A = A @ A.T  # positive semidefinite
    diag = np.linspace(0.5, 2.0, n)
    rep = dense_spectrum(sp.csr_matrix(A), diag, count=6)
    # reference: eigh on the symmetric scaling (reference only)
    s = 1.0 / np.sqrt(diag)
    ref = np.linalg.eigvalsh((s[:, None] * A) * s[None, :])
    assert np.max(np.abs(rep.eigenvalues - ref[:6])) < 1e-9
    assert np.max(rep.residuals) < 1e-9
    assert rep.method == "dense"


def test_dense_spectrum_rejects_large_problems(monkeypatch):
    import srlab.spectrum as spec

    A = sp.identity(16, format="csr")
    monkeypatch.setattr(spec, "DENSE_LIMIT", 8)
    with pytest.raises(SpectrumError, match="dense solve limited"):
        spec.dense_spectrum(A, np.ones(16))


def test_dense_spectrum_validates_count():
    A = sp.identity(8, format="csr")
    with pytest.raises(SpectrumError):
        dense_spectrum(A, np.ones(8), count=0)
    with pytest.raises(SpectrumError):
        dense_spectrum(A, np.ones(8), count=9)


def test_scaled_standard_form_bitwise_symmetric(contact):
    g = Grid(shape=(6, 6, 6), periods=contact.periods)
    wf = assemble_weak_laplacian(contact, g)
    scaled, s = scaled_standard_form(wf.operator, wf.mass)
    assert (scaled != scaled.T).nnz == 0
    assert np.allclose(s, 1.0 / np.sqrt(wf.mass.diagonal))


def test_mass_diagonal_rejects_nondiagonal_sparse():
    A = sp.identity(4, format="csr")
    M = sp.csr_matrix(np.array([[1.0, 0.1], [0.1, 1.0]]))
    with pytest.raises(SpectrumError, match="diagonal"):
        dense_spectrum(sp.identity(2, format="csr"), M)
    with pytest.raises(SpectrumError, match="positive"):
        dense_spectrum(A, np.zeros(4))


def test_rayleigh_quotient_of_eigenvector():
    A = random_symmetric(12, seed=4)
    A = A @ A.T
    diag = np.full(12, 2.0)
    rep = dense_spectrum(sp.csr_matrix(A), diag, count=3)
    v = rep.vectors[:, 1]
    assert abs(rayleigh(sp.csr_matrix(A), diag, v) - rep.eigenvalues[1]) < 1e-9


# ---------------------------------------------------------------------------
# closed-form flat-torus chain


def test_flat_torus_spectrum_closed_form(trivial):
    n = 8
    h = 1.0 / n
    g = Grid(shape=(n, n), periods=trivial.periods)
    wf = assemble_weak_laplacian(trivial, g)
    rep = dense_spectrum(wf.operator, wf.mass, count=8)
    # lambda_k = (2/h)^2 sin^2(pi k / n), each n-fold; smallest are
    # 0 (x8 ... only modes constant in x0), then (2/h)^2 sin^2(pi/n)
    assert np.allclose(rep.eigenvalues[:8], 0.0, atol=1e-9)
    full = dense_spectrum(wf.operator, wf.mass, count=9)
    pred = (2.0 / h) ** 2 * math.sin(math.pi / n) ** 2
    assert abs(full.eigenvalues[8] - pred) < 1e-8


# ---------------------------------------------------------------------------
# Lanczos against dense, multiplicities included


def test_lanczos_matches_dense_on_curved_frame(contact):
    g = Grid(shape=(6, 6, 6), periods=contact.periods)
    wf = assemble_weak_laplacian(contact, g, eps=4)
    dense = dense_spectrum(wf.operator, wf.mass, count=8)
    lan = lanczos_smallest(wf.operator, wf.mass, 8, tol=1e-10, seed=0)
    assert np.max(np.abs(lan.eigenvalues - dense.eigenvalues[:8])) < 1e-8
    assert np.max(lan.residuals) < 1e-8
    assert lan.method == "lanczos"


def test_lanczos_resolves_kernel_multiplicity(integrable):
    # horizontal fields span two of three axes: the kernel consists of
    # functions of the remaining coordinate -> dimension n on an n-grid
    n = 4
    g = Grid(shape=(n, n, n), periods=integrable.periods)
    wf = assemble_weak_laplacian(integrable, g)
    lan = lanczos_smallest(wf.operator, wf.mass, 6, tol=1e-10, seed=1)
    assert np.max(np.abs(lan.eigenvalues[:4])) < 1e-8
    assert lan.eigenvalues[4] > 1e-3
    dense = dense_spectrum(wf.operator, wf.mass, count=6)
    assert np.max(np.abs(lan.eigenvalues - dense.eigenvalues)) < 1e-8


def test_lanczos_validates_inputs():
    A = sp.identity(16, format="csr")
    M = np.ones(16)
    with pytest.raises(SpectrumError, match="at most"):
        lanczos_smallest(A, M, LANCZOS_MAX_COUNT + 1)
    with pytest.raises(SpectrumError):
        lanczos_smallest(A, M, 16)  # count must stay below N
    with pytest.raises(SpectrumError, match="sigma"):
        lanczos_smallest(A, M, 2, sigma=0.0)


def test_lanczos_deterministic_for_fixed_seed(contact):
    g = Grid(shape=(6, 6, 6), periods=contact.periods)
    wf = assemble_weak_laplacian(contact, g)
    a = lanczos_smallest(wf.operator, wf.mass, 4, seed=7)
    b = lanczos_smallest(wf.operator, wf.mass, 4, seed=7)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.vectors, b.vectors)


def test_lanczos_failure_reports_best_bound_and_lu_fill(contact):
    from scipy.sparse.linalg import splu

    g = Grid(shape=(8, 8, 8), periods=contact.periods)
    wf = assemble_weak_laplacian(contact, g)
    with pytest.raises(SpectrumError) as info:
        lanczos_smallest(wf.operator, wf.mass, 6, tol=1e-300, seed=0)
    found = re.search(
        r"within 360 basis vectors \(best Ritz residual bound (\S+), "
        r"LU fill (\d+)\)$",
        str(info.value),
    )
    assert found, str(info.value)
    assert 1e-300 < float(found.group(1)) < 1.0
    scaled, _ = scaled_standard_form(wf.operator, wf.mass)
    lu = splu((scaled + 0.1 * sp.identity(g.size, format="csr")).tocsc())
    assert int(found.group(2)) == lu.L.nnz + lu.U.nnz


def test_solve_weak_form_at_full_lanczos_basis_solves_densely(trivial):
    # N = 16 caps the basis at N; the 4-fold kernel exceeds the block size
    g = Grid(shape=(4, 4), periods=trivial.periods)
    wf = assemble_weak_laplacian(trivial, g)
    with pytest.raises(SpectrumError, match="within 16 basis vectors"):
        lanczos_smallest(wf.operator, wf.mass, 6, tol=1e-9, seed=42)
    rep = solve_weak_form(wf, 6, "lanczos", 1e-9, 42)
    assert rep.method == "dense"
    dense = dense_spectrum(wf.operator, wf.mass, count=6)
    assert np.array_equal(rep.eigenvalues, dense.eigenvalues)


# ---------------------------------------------------------------------------
# clustering


def test_cluster_eigenvalues_groups_close_values():
    vals = [0.0, 1e-13, 2e-13, 1.0, 1.0 + 1e-8, 2.0]
    assert cluster_eigenvalues(vals) == [[0, 1, 2], [3, 4], [5]]


def test_cluster_eigenvalues_relative_threshold():
    vals = [100.0, 100.0 + 1e-5, 200.0]
    # 1e-5 <= 1e-6 * 100: same cluster; gap to 200 is not
    assert cluster_eigenvalues(vals) == [[0, 1], [2]]


# ---------------------------------------------------------------------------
# penalty sweep


def test_epsilon_sweep_monotone_with_quadratic_order(trivial):
    g = Grid(shape=(8, 8), periods=trivial.periods)
    sweep = epsilon_sweep(trivial, g, [2, 4, 8], count=4, solver="dense")
    assert sweep.monotone
    # recompute monotonicity independently: each gap either shrinks or
    # has already converged below the floor
    later, earlier = sweep.gaps[1:], sweep.gaps[:-1]
    assert np.all((later <= earlier) | (later <= sweep.floor))
    # flat penalty directions converge at second order in eps
    fitted = sweep.orders[np.isfinite(sweep.orders)]
    assert fitted.size > 0
    assert np.all(np.abs(fitted - 2.0) < 0.3)


def test_epsilon_sweep_row_schema(trivial):
    g = Grid(shape=(8, 8), periods=trivial.periods)
    sweep = epsilon_sweep(trivial, g, [2, 4], count=2, solver="dense")
    rows = sweep.rows()
    assert len(rows) == 2 + 2 * 2
    assert rows[0]["eps"] == "inf"
    assert rows[0]["i"] == 0
    assert set(rows[0]) == {"eps", "i", "lambda", "residual", "multiplicity_cluster"}
    assert rows[2]["eps"] == 2.0
    assert all(r["residual"] < 1e-8 for r in rows)


def test_epsilon_sweep_requires_ascending_eps(trivial):
    g = Grid(shape=(8, 8), periods=trivial.periods)
    with pytest.raises(SpectrumError, match="increasing"):
        epsilon_sweep(trivial, g, [8, 4, 2], count=2)


# ---------------------------------------------------------------------------
# kernel checks


def test_kernel_check_connected_structure(contact):
    g = Grid(shape=(6, 6, 6), periods=contact.periods)
    wf = assemble_weak_laplacian(contact, g)
    report = kernel_check(wf.operator, wf.mass, count=6)
    assert isinstance(report, KernelReport)
    assert report.kernel_dim == 1
    assert report.flat_defect < 1e-6
    assert report.gap > 0.1


def test_kernel_check_degenerate_structure(integrable):
    n = 4
    g = Grid(shape=(n, n, n), periods=integrable.periods)
    wf = assemble_weak_laplacian(integrable, g)
    report = kernel_check(wf.operator, wf.mass, count=8)
    assert report.kernel_dim == n
    assert report.gap > 1e-3


def test_kernel_check_penalized_operator_has_trivial_kernel(trivial):
    g = Grid(shape=(8, 8), periods=trivial.periods)
    wf = assemble_weak_laplacian(trivial, g, eps=1)
    report = kernel_check(wf.operator, wf.mass, count=4)
    assert report.kernel_dim == 1
    assert report.flat_defect < 1e-8
