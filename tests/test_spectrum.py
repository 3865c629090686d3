"""Eigensolver tests.

The library's dense path is one LAPACK call (scipy.linalg.eigh); here
numpy.linalg.eigvalsh of the scaled matrix serves only as an independent
reference for it.  Closed-form flat-torus eigenvalues and contact3torus's
Mathieu characteristic values pin down the whole weak-form-to-spectrum
chain, and the Fourier path and shift-invert Lanczos are checked against
the dense path, multiplicities included.
"""

import dataclasses
import itertools
import math
import re
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    GRID_NAMES,
    STENCIL_CASES,
    _invariant_axes,
    cached_structure,
    density_form,
)
from srlab.discrete import DiagonalMass, Grid, SparseOperator, assemble_weak_laplacian
from srlab.spectrum import (
    DENSE_LIMIT,
    GAP_FLOOR,
    KernelReport,
    SpectrumError,
    choose_solver,
    cluster_eigenvalues,
    dense_spectrum,
    epsilon_sweep,
    fourier_smallest,
    kernel_check,
    lanczos_smallest,
    rayleigh,
    scaled_standard_form,
    solve_weak_form,
)


def assert_matches_dense(rep, wf, count, rel):
    """Clusters as dense's, lambda within rel * max(1, |lambda|)."""
    want = dense_spectrum(wf.operator, wf.mass, count=count).eigenvalues
    assert rep.clusters == cluster_eigenvalues(want)
    assert np.all(np.abs(rep.eigenvalues - want) <= rel * np.maximum(1.0, np.abs(want)))


def gram_defect(rep, wf):
    """Largest entry of V^T M V - I, V^T M V normalized to a unit diagonal."""
    gram = rep.vectors.T @ (wf.mass.diagonal[:, None] * rep.vectors)
    norm = 1.0 / np.sqrt(np.diag(gram))
    return float(np.max(np.abs(norm[:, None] * gram * norm - np.eye(len(norm)))))


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mass_diagonal_rejects_a_nonfinite_entry(bad):
    with pytest.raises(
        SpectrumError, match="^mass diagonal must be finite and positive$"
    ):
        dense_spectrum(sp.identity(3, format="csr"), np.array([bad, 1.0, 1.0]))


def test_rayleigh_quotient_of_eigenvector():
    A = random_symmetric(12, seed=4)
    A = A @ A.T
    diag = np.full(12, 2.0)
    rep = dense_spectrum(sp.csr_matrix(A), diag, count=3)
    v = rep.vectors[:, 1]
    assert abs(rayleigh(sp.csr_matrix(A), diag, v) - rep.eigenvalues[1]) < 1e-9
    # a weak form's quotient comes from its stencil, without the CSR matrix
    wf = density_form("contact3torus", "2 + cos(x0)", 4)
    v = np.random.default_rng(3).standard_normal(wf.grid.size)
    q = rayleigh(wf.operator, wf.mass, v)
    assert wf.operator._matrix is None
    assert q == rayleigh(wf.operator.matrix, wf.mass, v)


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


def test_lanczos_agrees_with_dense_on_grid_fixtures():
    # every case: GRID_NAMES x n in {4, 6, 8} x eps in {None, 2} x count 1-8;
    # each form is shift-invariant along some axis, so solve_weak_form takes
    # the Fourier path; the path choose_solver names is run directly as well
    for name, n, eps in itertools.product(GRID_NAMES, [4, 6, 8], [None, 2.0]):
        s = cached_structure(name)
        grid = Grid(shape=(n,) * s.dim, periods=s.periods)
        wf = assemble_weak_laplacian(s, grid, eps=eps)
        dense = dense_spectrum(wf.operator, wf.mass, count=8)
        scale = np.maximum(1.0, np.abs(dense.eigenvalues))
        for count in range(1, 9):
            want = dense.eigenvalues[:count]
            rep = solve_weak_form(wf, count, 1e-10, 0)
            assert rep.method == "fourier"
            assert rep.clusters == cluster_eigenvalues(want)
            assert np.all(np.abs(rep.eigenvalues - want) <= 1e-10 * scale[:count])
            assert gram_defect(rep, wf) <= 1e-12
            if choose_solver(grid.size, count) == "lanczos":
                by_size = lanczos_smallest(wf.operator, wf.mass, count, tol=1e-10, seed=0)
            else:
                by_size = dense_spectrum(wf.operator, wf.mass, count=count)
            assert by_size.clusters == cluster_eigenvalues(want)
            assert np.all(np.abs(by_size.eigenvalues - want) <= 1e-8 * scale[:count])


@pytest.mark.parametrize(
    "N, count, solver",
    [
        (360, 1, "dense"),
        (361, 1, "lanczos"),
        (361, 30, "lanczos"),  # cutoff 360
        (384, 32, "dense"),  # cutoff 12 * 32 = 384
        (385, 32, "lanczos"),
        (10**6, 32, "lanczos"),
        (DENSE_LIMIT, 342, "dense"),  # cutoff 4104
        (DENSE_LIMIT + 1, 342, None),
        (DENSE_LIMIT + 1, 341, "lanczos"),  # cutoff 4092
        (10, 10, "dense"),
    ],
)
def test_choose_solver_by_size(N, count, solver):
    assert choose_solver(N, count) == solver


def test_lanczos_matches_dense_on_curved_frame(contact):
    g = Grid(shape=(8, 8, 8), periods=contact.periods)
    wf = assemble_weak_laplacian(contact, g, eps=4)
    dense = dense_spectrum(wf.operator, wf.mass, count=8)
    lan = lanczos_smallest(wf.operator, wf.mass, 8, tol=1e-10, seed=0)
    assert np.max(np.abs(lan.eigenvalues - dense.eigenvalues[:8])) < 1e-8
    assert np.max(lan.residuals) < 1e-8
    assert lan.method == "lanczos"


def test_lanczos_resolves_kernel_multiplicity(integrable):
    # horizontal fields span two of three axes: the kernel consists of
    # functions of the remaining coordinate -> dimension n on an n-grid,
    # here 8, more copies than one ARPACK run (a single-vector Krylov
    # space) is sure to find
    n = 8
    g = Grid(shape=(n, n, n), periods=integrable.periods)
    wf = assemble_weak_laplacian(integrable, g)
    lan = lanczos_smallest(wf.operator, wf.mass, 10, tol=1e-10, seed=1)
    assert np.max(np.abs(lan.eigenvalues[:8])) < 1e-8
    assert lan.eigenvalues[8] > 1e-3
    dense = dense_spectrum(wf.operator, wf.mass, count=10)
    assert np.max(np.abs(lan.eigenvalues - dense.eigenvalues)) < 1e-8


# a density varying along both axes of trivial's unit torus
TRIVIAL_BUMP = "3 + cos(6.283185307179586*x0) + cos(6.283185307179586*x1)"


def test_lanczos_sharpens_vectors_of_a_repeated_eigenvalue():
    # all 6 wanted pairs are copies of the 40-fold kernel (functions of x1);
    # ARPACK's own vectors leave the residuals of two above tol here
    wf = density_form("trivial", TRIVIAL_BUMP, 40)
    assert fourier_smallest(wf, 6) is None
    lan = lanczos_smallest(wf.operator, wf.mass, 6, tol=1e-10, seed=0)
    assert np.max(lan.residuals) <= 1e-10
    assert np.max(np.abs(lan.eigenvalues)) < 1e-10
    assert gram_defect(lan, wf) <= 1e-12


def test_lanczos_validates_inputs():
    with pytest.raises(SpectrumError, match="at least 1"):
        lanczos_smallest(sp.identity(400, format="csr"), np.ones(400), 0)
    # at most max(360, 12 count) nodes go to the dense solve
    for N, count in [(360, 1), (384, 32), (16, 16)]:
        with pytest.raises(SpectrumError, match="nodes; got %d$" % N):
            lanczos_smallest(sp.identity(N, format="csr"), np.ones(N), count)


def test_lanczos_matches_dense_above_32_pairs():
    # 40 pairs of 512 nodes (above 12 * 40 = 480); no invariant axis
    wf = density_form("contact3torus", "3 + cos(x0) + cos(x1)", 8)
    assert fourier_smallest(wf, 40) is None
    lan = lanczos_smallest(wf.operator, wf.mass, 40, tol=1e-10, seed=0)
    assert lan.method == "lanczos"
    assert_matches_dense(lan, wf, 40, 1e-8)
    assert np.max(lan.residuals) <= 1e-8


def test_lanczos_deterministic_for_fixed_seed(contact):
    g = Grid(shape=(8, 8, 8), periods=contact.periods)
    wf = assemble_weak_laplacian(contact, g)
    a = lanczos_smallest(wf.operator, wf.mass, 4, seed=7)
    b = lanczos_smallest(wf.operator, wf.mass, 4, seed=7)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.vectors, b.vectors)


def test_lanczos_failure_reports_best_bound_and_lu_fill(contact, monkeypatch):
    # the error names how many pairs converged and the shift-invert fill,
    # both when a pair fails the residual check and when ARPACK gives up
    import scipy.sparse.linalg
    from scipy.sparse.linalg import ArpackNoConvergence, splu

    g = Grid(shape=(8, 8, 8), periods=contact.periods)
    wf = assemble_weak_laplacian(contact, g)
    scaled, _ = scaled_standard_form(wf.operator, wf.mass)
    lu = splu(
        (scaled + 0.1 * sp.identity(g.size, format="csr")).tocsc(),
        permc_spec="MMD_AT_PLUS_A",
    )
    tail = r"with 20 Krylov vectors \((\d+) of 6 pairs converged, LU fill (\d+)\)$"

    def failure():
        with pytest.raises(SpectrumError) as info:
            lanczos_smallest(wf.operator, wf.mass, 6, tol=1e-300, seed=0)
        found = re.search(tail, str(info.value))
        assert found, str(info.value)
        assert int(found.group(2)) == lu.L.nnz + lu.U.nnz
        return str(info.value), int(found.group(1))

    # no pair meets a residual bound of 1e-300
    message, converged = failure()
    assert message.startswith("Lanczos did not converge to tolerance 1.0e-300 ")
    assert converged == 0

    def gives_up(*_, **__):
        raise ArpackNoConvergence("no convergence", np.ones(2), np.ones((g.size, 2)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", gives_up)
    assert failure()[1] == 2


def test_solve_weak_form_at_full_lanczos_basis_solves_densely(monkeypatch):
    # N = 16 lies below the Lanczos cutoff max(360, 12 count), so Lanczos
    # refuses it before the LU; with no invariant axis left, the size rule
    # solves densely
    import scipy.sparse.linalg

    def unreachable(*_, **__):
        raise AssertionError("LU factorized")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", unreachable)
    wf = density_form("trivial", TRIVIAL_BUMP, 4)
    with pytest.raises(
        SpectrumError,
        match=r"^Lanczos for 6 pairs needs more than 360 nodes; got 16$",
    ):
        lanczos_smallest(wf.operator, wf.mass, 6, tol=1e-9, seed=42)
    assert fourier_smallest(wf, 6) is None
    rep = solve_weak_form(wf, 6, 1e-9, 42)
    assert rep.method == "dense"
    dense = dense_spectrum(wf.operator, wf.mass, count=6)
    assert np.array_equal(rep.eigenvalues, dense.eigenvalues)


# ---------------------------------------------------------------------------
# Fourier path


@pytest.mark.parametrize("n", [6, 8])
def test_fourier_path_with_one_invariant_axis(n):
    # a density varying along x0 leaves contact3torus invariant along x1
    # only: blocks of n^2 rows over (x0, x2)
    for eps in [None, 2.0]:
        wf = density_form("contact3torus", "2 + cos(x0)", n, eps=eps)
        assert _invariant_axes(wf.operator, wf.mass.diagonal, wf.grid) == [1]
        for count in range(1, 9):
            rep = solve_weak_form(wf, count, 1e-10, 0)
            assert rep.method == "fourier"
            assert_matches_dense(rep, wf, count, 1e-10)
            assert gram_defect(rep, wf) <= 1e-12


@pytest.mark.parametrize("n, count", [(6, 6), (8, 4)])
def test_form_with_no_invariant_axis_goes_by_size(n, count):
    # x0 and x1 in the density, x2 in the frame
    wf = density_form("contact3torus", "3 + cos(x0) + cos(x1)", n, eps=2.0)
    assert _invariant_axes(wf.operator, wf.mass.diagonal, wf.grid) == []
    assert fourier_smallest(wf, count) is None
    rep = solve_weak_form(wf, count, 1e-10, 0)
    assert rep.method == choose_solver(wf.grid.size, count)
    assert_matches_dense(rep, wf, count, 1e-8)


def test_one_ulp_of_mass_breaks_invariance(contact):
    g = Grid(shape=(6, 6, 6), periods=contact.periods)
    wf = assemble_weak_laplacian(contact, g)
    diag = wf.mass.diagonal.copy()
    assert _invariant_axes(wf.operator, diag, g) == [0, 1]
    diag[37] = np.nextafter(diag[37], np.inf)
    assert _invariant_axes(wf.operator, diag, g) == []
    bumped = dataclasses.replace(wf, mass=DiagonalMass(diagonal=diag))
    assert fourier_smallest(bumped, 4) is None


def test_a_replaced_form_carries_no_decision_and_goes_by_size(contact):
    # the assembler proved the invariance from its own tables; a rebuilt
    # form, even with the same parts, is solved by size
    wf = assemble_weak_laplacian(contact, Grid(shape=(6, 6, 6), periods=contact.periods))
    assert wf.invariance == [0, 1]
    assert solve_weak_form(wf, 4, 1e-9, 0).method == "fourier"
    copy = dataclasses.replace(wf)
    assert copy.invariance is None
    assert fourier_smallest(copy, 4) is None
    rep = solve_weak_form(copy, 4, 1e-9, 0)
    assert rep.method == choose_solver(wf.grid.size, 4) == "dense"
    assert_matches_dense(rep, wf, 4, 1e-10)


def permutation_invariant_axes(mat, diag, grid):
    """Reference: the axes whose one-node shift perm keeps the CSR matrix
    and the mass diagonal exactly, (mat[perm][:, perm] != mat).nnz == 0."""
    multi = grid.multi_indices()
    axes = []
    for a in range(grid.dim):
        perm = grid.ravel(multi + np.eye(grid.dim, dtype=np.int64)[a])
        if np.array_equal(diag[perm], diag) and (mat[perm][:, perm] != mat).nnz == 0:
            axes.append(a)
    return axes


@pytest.mark.parametrize("name, density, n, eps", STENCIL_CASES)
def test_stencil_invariance_matches_the_permutation_criterion(name, density, n, eps):
    wf = density_form(name, density, n, eps=eps)
    diag = wf.mass.diagonal
    want = permutation_invariant_axes(wf.operator.matrix, diag, wf.grid)
    assert _invariant_axes(wf.operator, diag, wf.grid) == want


def test_one_ulp_of_a_stored_value_breaks_invariance(contact):
    g = Grid(shape=(6, 6, 6), periods=contact.periods)
    wf = assemble_weak_laplacian(contact, g)
    full = wf.operator
    # every row its own slab row, so that one row's value can change
    values = full._values[full.pos]
    k = int(np.flatnonzero(values[37])[0])
    values[37, k] = np.nextafter(values[37, k], np.inf)
    op = SparseOperator((full._offsets, values), g)
    bumped = dataclasses.replace(wf, operator=op)
    assert _invariant_axes(wf.operator, wf.mass.diagonal, g) == [0, 1]
    assert _invariant_axes(op, wf.mass.diagonal, g) == []
    assert permutation_invariant_axes(op.matrix, wf.mass.diagonal, g) == []
    assert fourier_smallest(bumped, 4) is None


def test_fourier_blocks_by_chunk_and_up_to_block_limit(monkeypatch):
    import srlab.spectrum as spec

    wf = density_form("contact3torus", "2 + cos(x0)", 6, eps=2.0)
    whole = fourier_smallest(wf, 7)
    monkeypatch.setattr(spec, "_BLOCK_ENTRIES", 1)  # one block at a time
    chunked = fourier_smallest(wf, 7)
    assert np.array_equal(chunked.eigenvalues, whole.eigenvalues)
    assert np.array_equal(chunked.vectors, whole.vectors)
    monkeypatch.setattr(spec, "FOURIER_BLOCK_LIMIT", 35)  # blocks have 36 rows
    assert fourier_smallest(wf, 7) is None


def test_solve_weak_form_checks_fourier_residuals(monkeypatch, contact):
    import srlab.spectrum as spec

    wf = assemble_weak_laplacian(contact, Grid((4, 4, 4), contact.periods))
    rep = fourier_smallest(wf, 3)
    rep.residuals[1] = 2e-8
    monkeypatch.setattr(spec, "fourier_smallest", lambda wf, count: rep)
    with pytest.raises(
        SpectrumError, match=r"^fourier solve residuals exceed tolerance: 2\.000e-08$"
    ):
        solve_weak_form(wf, 3, 1e-9, 0)
    assert solve_weak_form(wf, 3, 3e-8, 0) is rep


def test_fourier_validates_count(contact):
    wf = assemble_weak_laplacian(contact, Grid((4, 4, 4), contact.periods))
    for count in (0, 65):
        with pytest.raises(SpectrumError, match="between 1 and N"):
            fourier_smallest(wf, count)
    rep = fourier_smallest(wf, 64)
    assert_matches_dense(rep, wf, 64, 1e-10)
    assert gram_defect(rep, wf) <= 1e-12


def test_horizontal_spectrum_converges_to_mathieu_values(contact):
    # On the mode exp(i k.x) in x0, x1 the horizontal operator of
    # contact3torus is -u'' + |k|^2 sin^2(x2 - phi_k), Mathieu's equation
    # with eigenvalues |k|^2/2 + a_m(|k|^2/4).  The lowest clusters are
    # k = 0, the four |k| = 1 modes and the four |k| = sqrt 2 modes (m = 0);
    # the discrete values converge to theirs at second order in h.
    from scipy.special import mathieu_a

    exact = np.array([0.5 + mathieu_a(0, 0.25), 1.0 + mathieu_a(0, 0.5)])
    ns = np.array([12, 16, 24])
    misses = []
    for n in ns:
        wf = assemble_weak_laplacian(contact, Grid((n,) * 3, contact.periods))
        rep = solve_weak_form(wf, 9, 1e-9, 0)
        assert rep.method == "fourier"
        assert [len(c) for c in rep.clusters] == [1, 4, 4]
        assert abs(rep.eigenvalues[0]) < 1e-9
        misses.append([np.mean(rep.eigenvalues[c]) - e for c, e in zip(rep.clusters[1:], exact)])
    misses = np.array(misses)
    assert np.all(np.abs(misses) < 0.02)
    orders = np.log(misses[:-1] / misses[1:]) / np.log(ns[1:] / ns[:-1])[:, None]
    assert np.all(np.abs(orders - 2.0) <= 0.05), orders


@pytest.mark.parametrize("eps", [2.0, 32.0])
def test_penalized_spectrum_converges_to_mathieu_values(contact, eps):
    # The complement field scaled by 1/eps adds c |k|^2 cos^2(x2 - phi_k),
    # c = eps^-2, to the horizontal potential: the |k| = 1 and |k| = sqrt 2
    # clusters converge to |k|^2 (1 + c)/2 + a_0(|k|^2 (1 - c)/4), and the
    # k = 0 pair cos x2, sin x2 to 1, all at second order in h.
    from scipy.special import mathieu_a

    c = eps**-2
    mathieu = [(k2 * (1 + c) / 2 + mathieu_a(0, k2 * (1 - c) / 4), 4) for k2 in (1, 2)]
    exact, sizes = zip(*sorted(mathieu + [(1.0, 2)]))
    ns = np.array([12, 16, 24])
    misses = []
    for n in ns:
        wf = assemble_weak_laplacian(contact, Grid((n,) * 3, contact.periods), eps=eps)
        rep = solve_weak_form(wf, 11, 1e-9, 0)
        assert [len(c) for c in rep.clusters] == [1, *sizes]
        assert abs(rep.eigenvalues[0]) < 1e-9
        misses.append([np.mean(rep.eigenvalues[c]) - e for c, e in zip(rep.clusters[1:], exact)])
    misses = np.array(misses)
    assert np.all(np.abs(misses) < 0.03)
    orders = np.log(misses[:-1] / misses[1:]) / np.log(ns[1:] / ns[:-1])[:, None]
    assert np.all(np.abs(orders - 2.0) <= 0.05), orders


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
    sweep = epsilon_sweep(trivial, g, [2, 4, 8], count=4)
    assert sweep.monotone
    # recompute monotonicity independently: each gap either shrinks or
    # has already converged below the floor
    later, earlier = sweep.gaps[1:], sweep.gaps[:-1]
    assert np.all((later <= earlier) | (later <= GAP_FLOOR))
    # flat penalty directions converge at second order in eps
    fitted = sweep.orders[np.isfinite(sweep.orders)]
    assert fitted.size > 0
    assert np.all(np.abs(fitted - 2.0) < 0.3)


def test_epsilon_sweep_row_schema(trivial):
    g = Grid(shape=(8, 8), periods=trivial.periods)
    sweep = epsilon_sweep(trivial, g, [2, 4], count=2)
    rows = sweep.rows()
    assert len(rows) == 2 + 2 * 2
    assert rows[0]["eps"] == "inf"
    assert rows[0]["i"] == 0
    assert set(rows[0]) == {"eps", "i", "lambda", "residual", "multiplicity_cluster"}
    assert rows[2]["eps"] == 2.0
    assert all(r["residual"] < 1e-8 for r in rows)

    # an empty sweep is the horizontal solve alone, as `spectrum` without
    # --eps runs it
    empty = epsilon_sweep(trivial, g, [], count=2)
    assert [r["eps"] for r in empty.rows()] == ["inf"] * 2
    assert empty.gaps.shape == (0, 2)
    assert empty.monotone
    assert np.all(np.isnan(empty.orders))
    direct = solve_weak_form(assemble_weak_laplacian(trivial, g), 2, 1e-9, 0)
    assert np.array_equal(empty.horizontal.eigenvalues, direct.eigenvalues)
    assert np.array_equal(empty.horizontal.residuals, direct.residuals)


def test_epsilon_sweep_keeps_no_eigenvectors(trivial):
    # the rows read eigenvalues and residuals only
    grid = Grid(shape=(8, 8), periods=trivial.periods)
    sweep = epsilon_sweep(trivial, grid, [2, 4], 3)
    assert [rep.vectors for rep in [sweep.horizontal, *sweep.penalized]] == [None] * 3
    assert len(sweep.rows()) == 9


def test_epsilon_sweep_holds_no_earlier_form_while_it_assembles(monkeypatch, trivial):
    import srlab.spectrum as spec

    forms, alive = [], []

    def assemble(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in forms))
        wf = assemble_weak_laplacian(*args, **kwargs)
        forms.append(weakref.ref(wf))
        return wf

    monkeypatch.setattr(spec, "assemble_weak_laplacian", assemble)
    epsilon_sweep(trivial, Grid(shape=(8, 8), periods=trivial.periods), [2, 4, 8], 4)
    assert alive == [0, 0, 0, 0]
    assert all(ref() is None for ref in forms)


def test_epsilon_sweep_builds_no_quadrature(monkeypatch, contact):
    import srlab.discrete as disc

    built = []
    monkeypatch.setattr(disc, "_quadrature", lambda *args: built.append(args))
    grid = Grid(shape=(6, 6, 6), periods=contact.periods)
    sweep = epsilon_sweep(contact, grid, [2, 4], 4)
    assert {rep.method for rep in [sweep.horizontal, *sweep.penalized]} == {"fourier"}
    assert built == []


def test_epsilon_sweep_requires_ascending_eps(trivial):
    g = Grid(shape=(8, 8), periods=trivial.periods)
    with pytest.raises(SpectrumError, match="increasing"):
        epsilon_sweep(trivial, g, [8, 4, 2], count=2)
    with pytest.raises(SpectrumError, match="strictly increasing"):
        epsilon_sweep(trivial, g, [2, 2], count=2)


# ---------------------------------------------------------------------------
# kernel checks


@pytest.mark.parametrize(
    "name, density, n, method",
    [(name, None, n, "fourier") for name in GRID_NAMES for n in (4, 6, 8)]
    + [
        # x0 and x1 in the density, x2 in the frame: no invariant axis
        ("contact3torus", "3 + cos(x0) + cos(x1)", 4, "dense"),
        ("contact3torus", "3 + cos(x0) + cos(x1)", 8, "lanczos"),
    ],
)
def test_kernel_check_agrees_with_dense_reference(monkeypatch, name, density, n, method):
    import srlab.spectrum as spec

    if density is None:
        s = cached_structure(name)
        wf = assemble_weak_laplacian(s, Grid((n,) * s.dim, s.periods))
    else:
        wf = density_form(name, density, n)
    methods = []

    def spy(*args):
        rep = solve_weak_form(*args)
        methods.append(rep.method)
        return rep

    monkeypatch.setattr(spec, "solve_weak_form", spy)
    report = kernel_check(wf)
    assert methods == [method]
    ref = dense_spectrum(wf.operator, wf.mass, count=min(12, wf.grid.size))
    lams = ref.eigenvalues
    kernel = int(np.sum(lams < 1e-8 * max(1.0, float(np.max(lams)))))
    assert report.kernel_dim == kernel
    assert abs(report.gap - lams[kernel]) <= 1e-10 * abs(lams[kernel])
    if kernel == 1:
        assert report.flat_defect < 1e-6


def test_kernel_check_connected_structure(contact):
    g = Grid(shape=(6, 6, 6), periods=contact.periods)
    wf = assemble_weak_laplacian(contact, g)
    report = kernel_check(wf, count=6)
    assert isinstance(report, KernelReport)
    assert report.kernel_dim == 1
    assert report.flat_defect < 1e-6
    assert report.gap > 0.1


def test_kernel_check_degenerate_structure(integrable):
    n = 4
    g = Grid(shape=(n, n, n), periods=integrable.periods)
    wf = assemble_weak_laplacian(integrable, g)
    report = kernel_check(wf, count=8)
    assert report.kernel_dim == n
    assert report.gap > 1e-3


def test_kernel_check_penalized_operator_has_trivial_kernel(trivial):
    g = Grid(shape=(8, 8), periods=trivial.periods)
    wf = assemble_weak_laplacian(trivial, g, eps=1)
    report = kernel_check(wf, count=4)
    assert report.kernel_dim == 1
    assert report.flat_defect < 1e-8
