"""Generalized eigensolvers for the discretized forms.

Both solvers work on the symmetrically scaled standard problem
A~ = M^{-1/2} L M^{-1/2}.  The dense path hands A~ to LAPACK
(``scipy.linalg.eigh`` with the ``evr`` driver, restricted to the wanted
index range, and the full ``evd`` solve where ``evr`` fails); the
iterative path is a shift-invert block Lanczos process with full
reorthogonalization whose small projected eigenproblem goes through the
same LAPACK call.  Reported residuals are always the
generalized ones, || L v - lambda M v || / || M v ||, computed from the
original matrices.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


DENSE_LIMIT = 4096
LANCZOS_MAX_COUNT = 32


class SpectrumError(RuntimeError):
    pass


class _FullBasis(SpectrumError):
    """Block Lanczos did not converge with a basis spanning all N columns."""


def _mass_diagonal(M):
    if hasattr(M, "diagonal") and not callable(getattr(M, "diagonal", None)):
        diag = np.asarray(M.diagonal, dtype=float)
    elif sp.issparse(M):
        diag = M.diagonal()
        if (M - sp.diags(diag)).nnz:
            raise SpectrumError("mass matrix must be diagonal")
    else:
        diag = np.asarray(M, dtype=float)
        if diag.ndim == 2:
            diag = np.diag(diag)
    if np.any(diag <= 0):
        raise SpectrumError("mass diagonal must be positive")
    return diag


def _operator_matrix(L):
    if hasattr(L, "matrix"):
        return L.matrix
    return sp.csr_matrix(L)


def scaled_standard_form(L, M):
    """(A~, s) with A~ = diag(s) L diag(s), s = 1/sqrt(mass diagonal).

    The scale product s_i s_j is formed before touching the data so the
    scaled matrix is bitwise symmetric whenever L is.
    """
    mat = _operator_matrix(L)
    diag = _mass_diagonal(M)
    s = 1.0 / np.sqrt(diag)
    coo = mat.tocoo()
    factor = s[coo.row] * s[coo.col]
    scaled = sp.csr_matrix(
        (coo.data * factor, (coo.row, coo.col)), shape=mat.shape
    )
    return scaled, s


def rayleigh(L, M, v):
    mat = _operator_matrix(L)
    diag = _mass_diagonal(M)
    v = np.asarray(v, dtype=float)
    return float((v @ (mat @ v)) / (v @ (diag * v)))


def cluster_eigenvalues(values, rel=1e-6):
    """Group indices whose eigenvalues agree to rel * max(1, |value|)."""
    values = np.asarray(values, dtype=float)
    clusters = []
    for i, lam in enumerate(values):
        if clusters and abs(lam - values[clusters[-1][-1]]) <= rel * max(
            1.0, abs(lam)
        ):
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray
    vectors: np.ndarray  # (N, count), generalized eigenvectors
    residuals: np.ndarray
    method: str
    iterations: object = None
    clusters: list = field(default_factory=list)

    def __post_init__(self):
        if not self.clusters:
            self.clusters = cluster_eigenvalues(self.eigenvalues)

    def cluster_index(self):
        """Per-eigenvalue cluster label, in ascending order."""
        labels = np.zeros(self.eigenvalues.size, dtype=int)
        for label, members in enumerate(self.clusters):
            for i in members:
                labels[i] = label
        return labels

    def rows(self, eps):
        """One output row per eigenvalue, tagged with the penalty ``eps``."""
        labels = self.cluster_index()
        return [
            {
                "eps": eps,
                "i": i,
                "lambda": float(lam),
                "residual": float(self.residuals[i]),
                "multiplicity_cluster": int(labels[i]),
            }
            for i, lam in enumerate(self.eigenvalues)
        ]


# ---------------------------------------------------------------------------
# dense path


def _symmetric_eig(A, lo, hi):
    """Eigenpairs lo..hi (0-based, inclusive, ascending) of symmetric A.

    LAPACK ``?syevr`` computes only the requested index range, with
    orthonormal vectors inside clusters of repeated eigenvalues.  Where
    it fails (seen on a cluster of zero eigenvalues), ``?syevd`` solves
    in full and the range is sliced out.
    """
    from scipy.linalg import eigh

    try:
        return eigh(A, subset_by_index=[lo, hi], driver="evr")
    except np.linalg.LinAlgError:
        w, Z = eigh(A, driver="evd")
        return w[lo : hi + 1], Z[:, lo : hi + 1]


def dense_spectrum(L, M, count=None):
    """Smallest generalized eigenpairs by a dense LAPACK solve.

    The wanted eigenpairs of the scaled matrix A~ come from one
    ``scipy.linalg.eigh`` call restricted to indices 0..count-1; the
    vectors are mapped back to generalized eigenvectors v = M^{-1/2} z.
    """
    mat = _operator_matrix(L)
    N = mat.shape[0]
    if N > DENSE_LIMIT:
        raise SpectrumError(
            "dense solve limited to N <= %d; got %d" % (DENSE_LIMIT, N)
        )
    if count is None:
        count = N
    count = int(count)
    if not 1 <= count <= N:
        raise SpectrumError("count must be between 1 and N")
    scaled, s = scaled_standard_form(L, M)
    A = scaled.toarray()
    A = 0.5 * (A + A.T)
    wanted, Z = _symmetric_eig(A, 0, count - 1)
    V = s[:, None] * Z
    V /= np.linalg.norm(V, axis=0, keepdims=True)
    diag = _mass_diagonal(M)
    res = _generalized_residuals(mat, diag, wanted, V)
    return SpectrumReport(
        eigenvalues=wanted, vectors=V, residuals=res, method="dense"
    )


def _generalized_residuals(mat, diag, lams, V):
    res = np.empty(lams.size)
    for j in range(lams.size):
        v = V[:, j]
        defect = mat @ v - lams[j] * (diag * v)
        res[j] = float(np.linalg.norm(defect) / np.linalg.norm(diag * v))
    return res


# ---------------------------------------------------------------------------
# Lanczos path


def lanczos_smallest(L, M, count, tol=1e-10, seed=0, sigma=0.1):
    """Smallest generalized eigenpairs by shift-invert block Lanczos.

    Iterates with G = (A~ + sigma I)^{-1} (sparse LU for the inner
    solves), whose largest eigenvalues are the wanted smallest ones of
    A~, well separated.  The block recurrence (block size min(count, 6))
    resolves eigenvalue multiplicities up to the block size, which a
    single-vector Krylov process cannot see; full reorthogonalization
    keeps the basis numerically orthonormal and rank-deficient steps are
    refilled with random directions.  The basis is capped at
    min(N, max(360, 12 * count)) columns; without convergence there the
    error reports the best Ritz residual bound reached (scaled to compare
    with ``tol``) and the fill nnz(L) + nnz(U) of the shift-invert factor.
    """
    from scipy.sparse.linalg import splu

    count = int(count)
    if count > LANCZOS_MAX_COUNT:
        raise SpectrumError(
            "iterative solver supports at most %d eigenpairs" % LANCZOS_MAX_COUNT
        )
    mat = _operator_matrix(L)
    N = mat.shape[0]
    if count < 1 or count >= N:
        raise SpectrumError("count must be between 1 and N-1")
    if not sigma > 0:
        raise SpectrumError("sigma must be positive")
    p = min(count, 6)
    scaled, s = scaled_standard_form(L, M)
    diag = _mass_diagonal(M)
    absrow = np.asarray(np.abs(scaled).sum(axis=1)).ravel()
    cA = max(float(np.max(absrow)), 1.0)
    c = 1.0 / sigma  # scale of the largest eigenvalues of G
    solver = splu(
        (scaled + sigma * sp.identity(N, format="csr")).tocsc()
    )
    max_cols = min(N, max(360, 12 * count))

    rng = np.random.default_rng(seed)
    Q = np.zeros((N, max_cols + p))
    diag_blocks = []
    sub_blocks = []

    def _fill_orthonormal(W, n_done):
        """Orthonormalize W's columns against Q[:, :n_done] and each other.

        Returns (Z, R) with W = Z R + (reorthogonalization drift), R upper
        triangular; near-zero columns are replaced by fresh random
        directions with the matching R entries zeroed.
        """
        pcols = W.shape[1]
        Z = np.empty_like(W)
        R = np.zeros((pcols, pcols))
        for col in range(pcols):
            v = W[:, col].copy()
            for _ in range(2):
                if n_done:
                    v -= Q[:, :n_done] @ (Q[:, :n_done].T @ v)
                for prior in range(col):
                    r = float(Z[:, prior] @ v)
                    R[prior, col] += r
                    v -= r * Z[:, prior]
            norm = float(np.linalg.norm(v))
            if norm < 1e-10 * max(1.0, c):
                R[col, col] = 0.0
                v = rng.standard_normal(N)
                for _ in range(2):
                    if n_done:
                        v -= Q[:, :n_done] @ (Q[:, :n_done].T @ v)
                    for prior in range(col):
                        v -= (Z[:, prior] @ v) * Z[:, prior]
                norm = float(np.linalg.norm(v))
                if norm == 0.0:
                    raise SpectrumError("failed to extend the Krylov basis")
            else:
                R[col, col] = norm
            Z[:, col] = v / norm
        return Z, R

    Z, _ = _fill_orthonormal(rng.standard_normal((N, p)), 0)
    cols = 0
    prev_Z = None
    prev_B = None
    block_index = 0
    best = np.inf
    while cols < max_cols:
        Q[:, cols : cols + p] = Z
        cols += p
        block_index += 1
        W = solver.solve(Z)
        if prev_Z is not None:
            W -= prev_Z @ prev_B.T
        A = Z.T @ W
        A = 0.5 * (A + A.T)
        diag_blocks.append(A)
        W -= Z @ A
        Znew, Bblk = _fill_orthonormal(W, cols)
        sub_blocks.append(Bblk)
        last = cols + p > max_cols
        if cols >= count and (block_index % 3 == 0 or last):
            T = _assemble_block_tridiagonal(diag_blocks, sub_blocks, cols, p)
            theta, S = _symmetric_eig(T, cols - count, cols - 1)
            bound = np.linalg.norm(Bblk @ S[-p:, :], axis=0)
            if np.all(theta > 0):
                best = min(best, float(np.max(2 * (cA + sigma) * bound / theta)))
            # Ritz residual on the G side maps to roughly (cA+sigma)/theta
            # times larger on the A~ side
            if np.all(theta > 0) and np.all(
                bound <= 0.5 * tol * theta / (cA + sigma)
            ):
                V = Q[:, :cols] @ S
                lams = 1.0 / theta - sigma
                order = np.argsort(lams)
                lams = lams[order]
                V = V[:, order]
                V = s[:, None] * V
                V /= np.linalg.norm(V, axis=0, keepdims=True)
                res = _generalized_residuals(mat, diag, lams, V)
                if np.all(res <= np.maximum(tol, 1e3 * tol * np.abs(lams))):
                    return SpectrumReport(
                        eigenvalues=lams,
                        vectors=V,
                        residuals=res,
                        method="lanczos",
                        iterations=cols,
                    )
        prev_Z = Z
        prev_B = Bblk
        Z = Znew
    error = _FullBasis if max_cols == N else SpectrumError
    raise error(
        "block Lanczos did not converge to tolerance %.1e within %d basis "
        "vectors (best Ritz residual bound %.1e, LU fill %d)"
        % (tol, max_cols, best, solver.L.nnz + solver.U.nnz)
    )


def _assemble_block_tridiagonal(diag_blocks, sub_blocks, cols, p):
    T = np.zeros((cols, cols))
    nblocks = cols // p
    for jb in range(nblocks):
        sl_j = slice(jb * p, (jb + 1) * p)
        T[sl_j, sl_j] = diag_blocks[jb]
        if jb + 1 < nblocks:
            sl_n = slice((jb + 1) * p, (jb + 2) * p)
            T[sl_n, sl_j] = sub_blocks[jb]
            T[sl_j, sl_n] = sub_blocks[jb].T
    return T


# ---------------------------------------------------------------------------
# sweeps and kernel checks


@dataclass
class SweepReport:
    eps_values: list
    horizontal: SpectrumReport
    penalized: list  # SpectrumReport per eps
    gaps: np.ndarray  # (n_eps, count)
    orders: np.ndarray  # per-index fitted decay order
    monotone: bool
    floor: float = 1e-12

    def rows(self):
        out = self.horizontal.rows("inf")
        for eps, rep in zip(self.eps_values, self.penalized):
            out.extend(rep.rows(float(eps)))
        return out


def solve_weak_form(wf, count, solver, tol, seed):
    """Smallest ``count`` eigenpairs of a weak form with the named solver.

    A dense result whose residuals exceed max(tol, 1e-8) raises
    SpectrumError; the Lanczos path checks its residuals against ``tol``
    itself.  A Lanczos run that fails with a basis spanning all N columns
    has met a problem small enough to solve densely, so it is.
    """
    if solver == "lanczos":
        try:
            return lanczos_smallest(
                wf.operator, wf.mass, count, tol=tol, seed=seed
            )
        except _FullBasis:
            pass
    rep = dense_spectrum(wf.operator, wf.mass, count=count)
    if np.any(rep.residuals > max(tol, 1e-8)):
        raise SpectrumError(
            "dense solve residuals exceed tolerance: %.3e"
            % float(np.max(rep.residuals))
        )
    return rep


def epsilon_sweep(
    structure,
    grid,
    eps_values,
    count=6,
    tol=1e-9,
    seed=0,
    solver="lanczos",
    density=None,
):
    """Penalty spectra against the horizontal spectrum over a list of eps.

    Reports per-index gaps |lambda_i(eps) - lambda_i|, whether the gaps
    decrease monotonically (gaps below the floor count as converged), and
    the per-index decay order fitted on log(gap) against log(eps).
    """
    from .discrete import assemble_weak_laplacian

    eps_values = [float(e) for e in eps_values]
    if sorted(eps_values) != eps_values:
        raise SpectrumError("eps values must be increasing")
    wfH = assemble_weak_laplacian(structure, grid, eps=None, density=density)
    base = solve_weak_form(wfH, count, solver, tol, seed)
    reports = []
    gaps = np.empty((len(eps_values), count))
    for row, eps in enumerate(eps_values):
        wfe = assemble_weak_laplacian(structure, grid, eps=eps, density=density)
        rep = solve_weak_form(wfe, count, solver, tol, seed)
        reports.append(rep)
        gaps[row] = np.abs(rep.eigenvalues - base.eigenvalues)
    floor = 1e-12
    monotone = True
    for i in range(count):
        g = gaps[:, i]
        for r in range(1, len(eps_values)):
            if g[r] >= g[r - 1] and g[r] > floor:
                monotone = False
    orders = np.full(count, np.nan)
    logeps = np.log(np.asarray(eps_values))
    for i in range(count):
        g = gaps[:, i]
        mask = g > floor
        if int(np.sum(mask)) >= 2:
            slope = np.polyfit(logeps[mask], np.log(g[mask]), 1)[0]
            orders[i] = -slope
    return SweepReport(
        eps_values=eps_values,
        horizontal=base,
        penalized=reports,
        gaps=gaps,
        orders=orders,
        monotone=monotone,
        floor=floor,
    )


@dataclass
class KernelReport:
    eigenvalues: np.ndarray
    kernel_dim: int
    flat_defect: float
    gap: float


def kernel_check(L, M, count=12, kernel_tol=1e-8):
    """Kernel dimension, flatness of the ground vector, and spectral gap."""
    mat = _operator_matrix(L)
    count = min(count, mat.shape[0])
    rep = dense_spectrum(L, M, count=count)
    lams = rep.eigenvalues
    kernel = int(np.sum(lams < kernel_tol * max(1.0, float(np.max(lams)))))
    v = rep.vectors[:, 0]
    mean = float(np.mean(v))
    if abs(mean) < 1e-300:
        flat = np.inf
    else:
        flat = float((np.max(v) - np.min(v)) / abs(mean))
    gap = float(lams[kernel]) if kernel < lams.size else np.nan
    return KernelReport(
        eigenvalues=lams, kernel_dim=kernel, flat_defect=abs(flat), gap=gap
    )
